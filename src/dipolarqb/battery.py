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

Two capacity notions coexist and are always reported side by side:

* capacity_basis = <11|H|11> - <00|H|00>, the gap between the extreme
  computational-basis states (field-only: equals -4B here);
* capacity_unitary = Tr[H antipassive(zeta)] - Tr[H passive(zeta)],
  the spectrum-fixed bound on extractable work, constant along any
  unitary orbit.

Closed-form evaluators: `ergotropy_closed_form` is a manifestly real
expression for xi(t) on the Gibbs charging orbit, valid for every
parameter combination including D != 0; its collapsed complex
variant is `oracles.ergotropy_closed_form_literal`.
`capacity_closed_form` is the corresponding thermal capacity
expression; it matches neither capacity definition in general.
"""

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


def capacity_closed_form(p):
    """Thermal closed-form capacity Q; compared with both definitions.

    Numerically equal to <00|H|00> - Tr[H zeta], i.e. the gap between
    the highest-field basis state and the thermal energy, which matches
    neither capacity_basis nor capacity_unitary in general.
    """
    th = _thermal_terms(p)
    b, d = p.field, p.delta
    k1, k2 = p.kappa1(), p.kappa2()
    num = (
        (3.0 * b + 2.0 * d) * th.w_cosh_s
        + 3.0 * b * th.cosh_j
        + k1 * k1 * th.ws_over_k1
        + 3.0 * k2 * k2 * th.sinhj_over_k2
    )
    return 4.0 * num / (3.0 * th.twod0)


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


def _orbit_grid(p, zeta, n_grid):
    """s = Omega t on n_grid uniform points of [0, pi], and the states there."""
    if p.omega == 0.0:
        raise ValueError("omega = 0 has no charging period pi/omega")
    s = np.linspace(0.0, np.pi, n_grid)
    return s, charged_state(p, zeta, s / p.omega)


def charging_orbit_arrays(p, n_grid=PEAK_GRID_N):
    """Vectorized metric arrays over one charging period.

    Returns (s, xi, power, coherence) where s = Omega t runs over
    [0, pi] on n_grid uniform points; the period of every metric.
    """
    h = build_hamiltonian(p)
    zeta = gibbs_numeric(p)
    s, states = _orbit_grid(p, zeta, n_grid)
    return (s, *(metric(states) for metric in _orbit_metrics(p, h, zeta)))


@dataclass
class OrbitPeaks:
    """Per-parameter-point maxima over one charging period.

    ergotropy_peak_at is the refined Omega*t location of the ergotropy
    maximum in [0, pi].
    """

    ergotropy_max: float
    power_max: float
    coherence_max: float
    capacity: float
    ergotropy_peak_at: float


def orbit_peaks(p, n_grid=PEAK_GRID_N, tol=PEAK_TOL):
    """Grid scan plus golden-section refinement of each orbit metric.

    H and zeta are built once.  The reported capacity is the unitary
    (passive/antipassive) one; it is constant over the orbit so no scan
    is needed.
    """
    h = build_hamiltonian(p)
    zeta = gibbs_numeric(p)
    s, states = _orbit_grid(p, zeta, n_grid)
    peaks = []  # (Omega t, value) of each metric's maximum
    for metric in _orbit_metrics(p, h, zeta):
        arr = metric(states)
        k = int(np.argmax(arr))
        refined = golden_max(
            lambda x: metric(charged_state(p, zeta, x / p.omega)),
            s[max(0, k - 1)], s[min(n_grid - 1, k + 1)], tol,
        )
        peaks.append(refined if refined[1] >= arr[k] else (float(s[k]), float(arr[k])))
    (xi_at, xi_max), (_, power_max), (_, coherence_max) = peaks
    return OrbitPeaks(
        ergotropy_max=xi_max,
        power_max=power_max,
        coherence_max=coherence_max,
        capacity=_unitary_capacity(h, zeta),
        ergotropy_peak_at=xi_at,
    )
