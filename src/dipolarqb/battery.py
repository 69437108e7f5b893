"""Battery-performance metrics for the charged two-qubit system.

Ergotropy xi is the maximum work a cyclic unitary can extract:

    xi(rho, H) = Tr[rho H] - Tr[passive(rho, H) H],

where the passive state pairs the descending populations of rho with
the ascending energy eigenvectors of H.  An equivalent double-sum form
over both eigensystems, `oracles.ergotropy_double_sum`, is the
independent route it is cross-checked against.

For a trajectory unitarily charged out of the Gibbs state zeta the
initial state stays the passive state of every point on the orbit, so
xi(t) = Tr[(rho(t) - zeta) H], the work W(t) equals xi(t), the
efficiency W/xi is identically 1, and the average power is W/t.  The
instantaneous power is P = Tr[rho K] with the fixed operator
K = -i[H, H_ch]; it equals Tr[-i[H_ch, rho] H] = dxi/dt, which
`oracles.instantaneous_power_fd` checks by finite differences.  xi, P
and the l1 coherence are each computed by one function over
(..., 4, 4) state stacks, which the trajectory columns
(`work_and_power`, the one route from charged samples to battery
columns), the orbit arrays and the orbit peak search all call.

Along the orbit, at s = Omega t, the state is a five-term Fourier form
in s (`_orbit_kernel`) and xi(s) = alpha sin^2 s + beta sin^2 2s, a
quadratic in sin^2 s, so `orbit_peaks` takes the xi and P peaks as roots.

Two capacity notions coexist and are always reported side by side:

* capacity_basis = <11|H|11> - <00|H|00>, the gap between the extreme
  computational-basis states (field-only: equals -4B here);
* capacity_unitary = Tr[H antipassive(zeta)] - Tr[H passive(zeta)],
  the spectrum-fixed bound on extractable work, constant along any
  unitary orbit.

`ergotropy_closed_form` is a manifestly real expression for xi(t) on
the Gibbs charging orbit, valid for every parameter combination
including D != 0: the independent oracle of the two-term law, which no
production path calls.  Its collapsed complex variant is
`oracles.ergotropy_closed_form_literal`, and the thermal capacity
expression, which matches neither capacity definition in general, is
`oracles.capacity_closed_form`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeSeries, charged_state
from .linalg import golden_max, hermitian_eigen, require_hermitian
from .model import build_hamiltonian, charging_hamiltonian
from .resources import l1_coherence
from .thermal import _thermal_terms, gibbs_numeric

PEAK_GRID_N = 2000
PEAK_TOL = 1e-8


@dataclass
class CapacityReport:
    capacity_basis: float
    capacity_unitary: float


def _paired_state(rho, h, energy_order):
    """Descending populations of rho on H's eigenvectors in energy_order."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    require_hermitian(rho, name="rho")
    require_hermitian(h, name="H")
    pops, _ = hermitian_eigen(rho, order="descending")
    _, vecs = hermitian_eigen(h, order=energy_order)
    return (vecs * pops) @ vecs.conj().T


def passive_state(rho, h):
    """Spectrum of rho rearranged to make work extraction impossible.

    Descending populations land on ascending energy eigenvectors.
    """
    return _paired_state(rho, h, "ascending")


def antipassive_state(rho, h):
    """Spectrum-preserving state of maximal energy (reversed pairing)."""
    return _paired_state(rho, h, "descending")


def ergotropy(rho, h):
    """Tr[rho H] - Tr[passive H]; negative round-off clipped to 0."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    sigma = passive_state(rho, h)
    val = float(np.trace((rho - sigma) @ h).real)
    if -1e-9 < val < 0.0:
        val = 0.0
    return val


def _power_of(p, h):
    """P = Tr[rho K], K = -i[H, H_ch], as a function of a state or a stack.

    Tr[rho K] = Tr[-i[H_ch, rho] H], which is dxi/dt on the orbit.
    """
    h_ch = charging_hamiltonian(p)
    k = -1j * (h @ h_ch - h_ch @ h)
    return lambda rho: np.einsum("...ij,ji->...", rho, k).real


def _orbit_metrics(p, h, zeta):
    """xi, P and l1 coherence, each a function of a state or a stack.

    xi = Tr[(rho - zeta) H] takes the difference first, so it is exactly
    0 at zeta itself.
    """
    return (
        lambda rho: np.einsum("...ij,ji->...", rho - zeta, h).real,
        _power_of(p, h),
        l1_coherence,
    )


def instantaneous_power(rho, p):
    """P = Tr[-i [H_ch, rho] H] = dxi/dt of a state or a (..., 4, 4) stack."""
    return _power_of(p, build_hamiltonian(p))(np.asarray(rho, dtype=complex))


def work_and_power(traj, times, p):
    """Battery columns of charged samples relative to the Gibbs start.

    traj holds one state per entry of the 1-D, strictly increasing
    times.  On the unitary orbit the work W is xi, so the efficiency
    W/xi is 1 (0/0 at t = 0 taken as 1) and the average power is W/t
    (0 at t = 0).  Returns a TimeSeries of the columns, in units of K.
    """
    rho = np.asarray(traj, dtype=complex)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size != len(rho):
        raise ValueError(f"trajectory has {len(rho)} samples but {times.size} times "
                         f"(shape {times.shape}); need one 1-D entry per sample")
    xi_of, power_of, coherence_of = _orbit_metrics(p, build_hamiltonian(p), gibbs_numeric(p))
    xi = xi_of(rho)
    xi = np.where((-1e-9 < xi) & (xi < 0.0), 0.0, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        pavg = np.where(times > 0.0, xi / times, 0.0)
    if np.min(xi) < -1e-9:
        raise ValueError(f"ergotropy {np.min(xi)} below -1e-9")
    return TimeSeries(times, {
        "ergotropy": xi, "work": xi, "power_instant": power_of(rho), "power_avg": pavg,
        "efficiency": np.ones(times.size), "coherence": coherence_of(rho),
    })


def ergotropy_closed_form(p, t):
    """Closed-form xi(t) for unitary charging out of the Gibbs state.

    Manifestly real; vectorized over t.  Agrees with the numeric
    Tr[(rho(t) - zeta) H] route to machine precision for all parameter
    values, D != 0 included.
    """
    th = _thermal_terms(p)
    d, e, dm, g, b = p.delta, p.epsilon, p.dm, p.ksea, p.field
    s = p.omega * np.asarray(t, dtype=float)
    sin2 = np.sin(s) ** 2
    sin2_2 = np.sin(2.0 * s) ** 2
    bracket1 = 6.0 * dm * dm * th.ws_over_k1 + 2.0 * (b * b + g * g) * th.sinhj_over_k2
    bracket2 = (d + e) * (d * th.ws_over_k1 + e * th.sinhj_over_k2 + th.w_cosh_s - th.cosh_j)
    out = (2.0 * sin2 * bracket1 + sin2_2 * bracket2) / (0.5 * th.twod0)
    return out if out.ndim else float(out)


def _unitary_capacity(h, zeta):
    """Tr[H antipassive(zeta)] - Tr[H passive(zeta)]."""
    return float(np.trace(h @ (antipassive_state(zeta, h) - passive_state(zeta, h))).real)


def capacity(p):
    """Both capacity definitions."""
    h = build_hamiltonian(p)
    return CapacityReport(
        capacity_basis=float(h[3, 3].real - h[0, 0].real),
        capacity_unitary=_unitary_capacity(h, gibbs_numeric(p)),
    )


# g(s) = (1, cos 2s, sin 2s, cos 4s, sin 4s) = cos(FREQS s - PHASES)
_FREQS = np.array([0.0, 2.0, 2.0, 4.0, 4.0])
_PHASES = np.array([0.0, 0.0, 0.5 * np.pi, 0.0, 0.5 * np.pi])


def _fourier_basis(s):
    """g(s) of scalar or array s, on a new last axis."""
    return np.cos(np.multiply.outer(s, _FREQS) - _PHASES)


# the five Fourier coefficients R_m of an orbit are fixed by its states at
# the nodes s_k = k pi / 5: R = _NODE_INVERSE @ rho(s_k).  The nodes are
# equispaced in 2s, so g's columns are orthogonal there, with squared
# norms (5, 5/2, 5/2, 5/2, 5/2), and the inverse is a scaled transpose.
_NODES = np.arange(5) * (np.pi / 5.0)
_NODE_INVERSE = _fourier_basis(_NODES).T * np.array([[0.2], [0.4], [0.4], [0.4], [0.4]])


def _orbit_kernel(p, zeta):
    """rho(s) = U zeta U^dag at s = Omega t, as a function of scalar or array s.

    U = u(s) x u(s) holds only the frequencies 0 and 2s, so
    rho(s) = sum_m g_m(s) R_m, one real product with the interleaved real
    and imaginary parts of the R_m, which `charged_state` gives at the nodes.
    """
    if p.omega == 0.0:
        raise ValueError("omega = 0 has no charging period pi/omega")
    r = _NODE_INVERSE @ charged_state(p, zeta, _NODES / p.omega).reshape(5, 16)
    parts = r.view(float)
    return lambda s: (_fourier_basis(s) @ parts).view(complex).reshape(np.shape(s) + (4, 4))


def charging_orbit_arrays(p, n_grid=PEAK_GRID_N):
    """Vectorized metric arrays over one charging period.

    Returns (s, xi, power, coherence) where s = Omega t runs over
    [0, pi] on n_grid uniform points; the period of every metric.
    """
    h = build_hamiltonian(p)
    zeta = gibbs_numeric(p)
    s = np.linspace(0.0, np.pi, n_grid)
    states = _orbit_kernel(p, zeta)(s)
    return (s, *(metric(states) for metric in _orbit_metrics(p, h, zeta)))


@dataclass
class OrbitPeaks:
    """Per-parameter-point maxima over one charging period.

    ergotropy_peak_at is the Omega*t location of the ergotropy maximum,
    the smallest one in [0, pi/2] (the orbit is symmetric about pi/2).
    """

    ergotropy_max: float
    power_max: float
    coherence_max: float
    capacity: float
    ergotropy_peak_at: float


def _ergotropy_peak(alpha, beta):
    """(s, xi) of the largest xi = alpha x + 4 beta x (1 - x), x = sin^2 s in [0, 1].

    The candidates are x = 0, the vertex when beta > 0 puts one inside,
    and x = 1, in increasing order, so ties go to the smallest s.
    """
    def xi(x):
        return alpha * x + 4.0 * beta * x * (1.0 - x)

    vertex = 0.5 + alpha / (8.0 * beta) if beta > 0.0 else 1.0
    x = max([0.0, vertex, 1.0] if 0.0 < vertex < 1.0 else [0.0, 1.0], key=xi)
    return math.asin(math.sqrt(x)), xi(x)


def _power_peak(omega, alpha, beta):
    """max P = |Omega| max |sin 2s (alpha + 4 beta c)| over c = cos 2s.

    P = Omega dxi/ds and P(pi - s) = -P(s).  The extremes of
    sqrt(1 - c^2) (alpha + 4 beta c) inside (-1, 1) solve
    8 beta c^2 + alpha c - 4 beta = 0 (c = 0 when beta = 0); c = +-1 give 0.
    """
    if beta == 0.0:
        roots = [0.0]
    else:  # alpha^2 + 128 beta^2 > 0: two real roots, taken without cancellation
        q = -0.5 * (alpha + math.copysign(math.sqrt(alpha * alpha + 128.0 * beta * beta), alpha))
        roots = [q / (8.0 * beta), -4.0 * beta / q]
    return abs(omega) * max((math.sqrt(1.0 - c * c) * abs(alpha + 4.0 * beta * c)
                             for c in roots if abs(c) <= 1.0), default=0.0)


def orbit_peaks(p, n_grid=PEAK_GRID_N, tol=PEAK_TOL):
    """Peaks of xi, P and l1 coherence over one charging period.

    alpha = xi(pi/2) and beta = xi(pi/4) - alpha/2, two trace evaluations,
    fix the xi and P peaks in closed form.  Coherence has no such law: it
    is scanned on n_grid uniform points of [0, pi] of the Fourier orbit and
    refined by golden section to tol; n_grid and tol set only that scan.
    The capacity is the unitary one, constant over the orbit.
    """
    h = build_hamiltonian(p)
    zeta = gibbs_numeric(p)
    orbit = _orbit_kernel(p, zeta)
    xi_of, _, coherence_of = _orbit_metrics(p, h, zeta)
    alpha, xi_quarter = xi_of(orbit(np.array([0.5 * np.pi, 0.25 * np.pi]))).tolist()
    beta = xi_quarter - 0.5 * alpha
    xi_at, xi_max = _ergotropy_peak(alpha, beta)
    s = np.linspace(0.0, np.pi, n_grid)
    coh = coherence_of(orbit(s))
    k = int(np.argmax(coh))
    _, refined = golden_max(lambda x: coherence_of(orbit(x)),
                            s[max(0, k - 1)], s[min(n_grid - 1, k + 1)], tol)
    return OrbitPeaks(
        ergotropy_max=xi_max,
        power_max=_power_peak(p.omega, alpha, beta),
        coherence_max=max(refined, float(coh[k])),
        capacity=_unitary_capacity(h, zeta),
        ergotropy_peak_at=xi_at,
    )
