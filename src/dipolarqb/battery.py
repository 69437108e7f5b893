"""Battery-performance metrics for the charged two-qubit system.

Ergotropy xi is the maximum work a cyclic unitary can extract:

    xi(rho, H) = Tr[rho H] - Tr[passive(rho, H) H],

where the passive state pairs the descending populations of rho with
the ascending energy eigenvectors of H.  An equivalent double-sum form
over both eigensystems is kept as an independent route and the two are
cross-checked rather than merged.

For a trajectory unitarily charged out of the Gibbs state zeta the
initial state stays the passive state of every point on the orbit, so
xi(t) = Tr[(rho(t) - zeta) H], the work W(t) equals xi(t), the
efficiency W/xi is identically 1, and the average power is W/t.  The
instantaneous power is P = Tr[-i[H_ch, rho] H] (= dxi/dt), with a
finite-difference cross-check helper.

Two capacity notions coexist and are always reported side by side:

* capacity_basis = <11|H|11> - <00|H|00>, the gap between the extreme
  computational-basis states (field-only: equals -4B here);
* capacity_unitary = Tr[H antipassive(zeta)] - Tr[H passive(zeta)],
  the spectrum-fixed bound on extractable work, constant along any
  unitary orbit.

Closed-form evaluators: `ergotropy_closed_form` is a manifestly real
expression for xi(t) on the Gibbs charging orbit, valid for every
parameter combination including D != 0.  `ergotropy_closed_form_literal`
is an algebraically collapsed variant written with complex
intermediates; its imaginary part and its epsilon-sign convention are
diagnostics, not bugs in the caller.  `capacity_closed_form` is the
corresponding thermal capacity expression, reported next to both
capacity definitions because it matches neither in general.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, TimeSeries
from .linalg import golden_max, hermitian_eigen, require_hermitian
from .model import build_hamiltonian, charging_hamiltonian, charging_unitary
from .resources import l1_coherence
from .thermal import _sinhc, _thermal_terms, gibbs_numeric

PEAK_GRID_N = 2000
PEAK_TOL = 1e-8


@dataclass
class BatteryMetrics:
    """Single-sample charging metrics; all energies in units of K."""

    ergotropy: float
    work: float
    power_instant: float
    power_avg: float
    efficiency: float
    coherence: float
    time: float

    def __post_init__(self):
        if self.ergotropy < -1e-9:
            raise ValueError(f"ergotropy {self.ergotropy} below -1e-9")
        if self.efficiency > 1.0 + 1e-9:
            raise ValueError(f"efficiency {self.efficiency} above 1")


@dataclass
class CapacityReport:
    capacity_basis: float
    capacity_unitary: float
    closed_form: float


def _paired_state(rho, h, energy_order):
    """Descending populations of rho on H's eigenvectors in energy_order."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    require_hermitian(rho, name="rho")
    require_hermitian(h, name="H")
    pops = hermitian_eigen(rho, order="descending").values
    vecs = hermitian_eigen(h, order=energy_order).vectors
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


def ergotropy_double_sum(rho, h):
    """Independent route: sum_jk r_j e_k (|<e_k|r_j>|^2 - delta_jk).

    r sorted descending, e ascending.  Kept separate from the trace
    route so the two can be compared, never collapsed.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    r = hermitian_eigen(rho, order="descending")
    e = hermitian_eigen(h, order="ascending")
    overlap = np.abs(e.vectors.conj().T @ r.vectors) ** 2  # [k, j]
    total = 0.0
    for j, pop in enumerate(r.values):
        for k, energy in enumerate(e.values):
            total += pop * energy * (overlap[k, j] - (1.0 if j == k else 0.0))
    return float(total)


def instantaneous_power(rho, p, h=None, h_ch=None):
    """P = Tr[-i [H_ch, rho] H] = dxi/dt on the charging orbit."""
    if h is None:
        h = build_hamiltonian(p)
    if h_ch is None:
        h_ch = charging_hamiltonian(p)
    rho = np.asarray(rho, dtype=complex)
    comm = h_ch @ rho - rho @ h_ch
    return float(np.trace(-1j * comm @ h).real)


def instantaneous_power_fd(p, t, dt=1e-4, ordering="left"):
    """Central finite difference of xi(t) on the Gibbs charging orbit."""
    zeta = gibbs_numeric(p)
    h = build_hamiltonian(p)
    e0 = float(np.trace(zeta @ h).real)

    def xi_at(ti):
        u = charging_unitary(p, ti)
        rho = u @ zeta @ u.conj().T if ordering == "left" else u.conj().T @ zeta @ u
        return float(np.trace(rho @ h).real) - e0

    return (xi_at(t + dt) - xi_at(t - dt)) / (2.0 * dt)


def _times_for(traj, grid):
    if isinstance(grid, TimeGrid):
        n = grid.n_steps()
        if len(traj) != n + 1:
            raise ValueError(
                f"trajectory has {len(traj)} samples but the grid implies {n + 1}"
            )
        times = grid.t0 + grid.dt * np.arange(n + 1)
    else:
        times = np.asarray(grid, dtype=float)
        if times.ndim != 1 or times.size != len(traj):
            raise ValueError("times must be a 1-D array matching the trajectory")
    if times.size > 1 and np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return times


def battery_metrics(rho, t, p, h=None, h_ch=None, zeta=None):
    """Metrics of one charged sample relative to the Gibbs start."""
    if h is None:
        h = build_hamiltonian(p)
    if h_ch is None:
        h_ch = charging_hamiltonian(p)
    if zeta is None:
        zeta = gibbs_numeric(p)
    rho = np.asarray(rho, dtype=complex)
    xi = float(np.trace((rho - zeta) @ h).real)
    if -1e-9 < xi < 0.0:
        xi = 0.0
    work = xi
    # eta = W/xi = 1 identically on the orbit; 0/0 at t=0 resolved to 1
    eff = work / xi if xi > 0.0 else 1.0
    pavg = work / t if t > 0.0 else 0.0
    return BatteryMetrics(
        ergotropy=xi,
        work=work,
        power_instant=instantaneous_power(rho, p, h=h, h_ch=h_ch),
        power_avg=pavg,
        efficiency=eff,
        coherence=l1_coherence(rho),
        time=float(t),
    )


def work_and_power(traj, grid, p):
    """Per-sample battery metrics of a charging trajectory as a TimeSeries."""
    times = _times_for(traj, grid)
    h = build_hamiltonian(p)
    h_ch = charging_hamiltonian(p)
    zeta = gibbs_numeric(p)
    cols = {
        "ergotropy": [],
        "work": [],
        "power_instant": [],
        "power_avg": [],
        "efficiency": [],
        "coherence": [],
    }
    for rho, t in zip(traj, times):
        m = battery_metrics(rho, t, p, h=h, h_ch=h_ch, zeta=zeta)
        cols["ergotropy"].append(m.ergotropy)
        cols["work"].append(m.work)
        cols["power_instant"].append(m.power_instant)
        cols["power_avg"].append(m.power_avg)
        cols["efficiency"].append(m.efficiency)
        cols["coherence"].append(m.coherence)
    return TimeSeries(times, {k: np.array(v) for k, v in cols.items()})


def charged_coherence(traj, grid):
    """l1 coherence at every trajectory sample."""
    times = _times_for(traj, grid)
    vals = np.array([l1_coherence(rho) for rho in traj])
    return TimeSeries(times, {"coherence": vals})


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


def ergotropy_closed_form_literal(p, t, flip_epsilon=False):
    """Collapsed closed-form xi variant, evaluated verbatim.

    Complex-valued: two of its factors carry iD terms, and one real
    exponential is collapsed into exp(2(delta - iD)/T).  At D = 0 its
    imaginary part vanishes and it equals `ergotropy_closed_form` with
    the opposite sign convention for epsilon; pass flip_epsilon=True to
    apply that convention.  Kept as a diagnostic, not an oracle.
    """
    d = p.delta
    e = -p.epsilon if flip_epsilon else p.epsilon
    dm, g, b = p.dm, p.ksea, p.field
    tt = p.temperature
    k1 = p.kappa1()
    k2 = math.sqrt(b * b + g * g + e * e)
    u1 = math.cosh(2.0 * k1 / (3.0 * tt))
    v1 = math.sinh(2.0 * k2 / tt)
    v2 = math.cosh(2.0 * k2 / tt)
    w = math.exp(4.0 * d / (3.0 * tt))
    s = p.omega * np.asarray(t, dtype=float)
    sin2 = np.sin(s) ** 2
    sin2_2 = np.sin(2.0 * s) ** 2
    cos_2 = np.cos(2.0 * s)
    alpha = -d + 1j * dm + e
    pref = 1.0 / (w * u1 + v2)
    if k2 < 1e-12:
        ratio = (2.0 / tt) * _sinhc(2.0 * k2 / tt)
    else:
        ratio = v1 / k2
    core = (
        alpha * sin2_2 * v2
        + (-alpha) * np.exp(2.0 * (d - 1j * dm) / tt) * sin2_2
        + 2.0 * sin2 * ratio * (2.0 * b * b + 2.0 * g * g + e * alpha * (1.0 + cos_2))
    )
    out = pref * core
    return out if out.ndim else complex(out)


def capacity_closed_form(p):
    """Thermal closed-form capacity Q; reported beside both definitions.

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


def capacity(p):
    """Both capacity definitions plus the thermal closed form."""
    h = build_hamiltonian(p)
    basis = float(h[3, 3].real - h[0, 0].real)
    zeta = gibbs_numeric(p)
    lo = passive_state(zeta, h)
    hi = antipassive_state(zeta, h)
    unitary = float(np.trace(h @ (hi - lo)).real)
    return CapacityReport(
        capacity_basis=basis,
        capacity_unitary=unitary,
        closed_form=float(capacity_closed_form(p)),
    )


def charging_orbit_arrays(p, n_grid=PEAK_GRID_N):
    """Vectorized metric arrays over one charging period.

    Returns (s, xi, power, coherence) where s = Omega t runs over
    [0, pi] on n_grid uniform points; the period of every metric.
    """
    h = build_hamiltonian(p)
    h_ch = charging_hamiltonian(p)
    zeta = gibbs_numeric(p)
    s = np.linspace(0.0, np.pi, n_grid)
    a = np.cos(s) ** 2
    b = -np.sin(s) ** 2
    c = -0.5j * np.sin(2.0 * s)
    u = np.empty((n_grid, 4, 4), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = u[:, 2, 2] = u[:, 3, 3] = a
    u[:, 0, 3] = u[:, 1, 2] = u[:, 2, 1] = u[:, 3, 0] = b
    for i, j in ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)):
        u[:, i, j] = c
    rho = u @ zeta @ u.conj().transpose(0, 2, 1)
    e0 = float(np.trace(zeta @ h).real)
    xi = np.einsum("nij,ji->n", rho, h).real - e0
    comm = h_ch @ rho - rho @ h_ch
    power = np.einsum("nij,ji->n", -1j * comm, h).real
    diag_abs = np.abs(np.einsum("nii->ni", rho)).sum(axis=1)
    coherence = np.abs(rho).sum(axis=(1, 2)) - diag_abs
    return s, xi, power, coherence


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

    The reported capacity is the unitary (passive/antipassive) one;
    it is constant over the orbit so no scan is needed.
    """
    h = build_hamiltonian(p)
    h_ch = charging_hamiltonian(p)
    zeta = gibbs_numeric(p)
    e0 = float(np.trace(zeta @ h).real)

    def state_at(s):
        u = charging_unitary(p, s / p.omega)
        return u @ zeta @ u.conj().T

    def xi_at(s):
        return float(np.trace(state_at(s) @ h).real) - e0

    def power_at(s):
        rho = state_at(s)
        return float(np.trace(-1j * (h_ch @ rho - rho @ h_ch) @ h).real)

    def coh_at(s):
        return l1_coherence(state_at(s))

    s, xi, power, coherence = charging_orbit_arrays(p, n_grid=n_grid)
    out = []
    locs = []
    for arr, fn in ((xi, xi_at), (power, power_at), (coherence, coh_at)):
        k = int(np.argmax(arr))
        lo = s[max(0, k - 1)]
        hi = s[min(n_grid - 1, k + 1)]
        where, refined = golden_max(fn, lo, hi, tol)
        if refined >= arr[k]:
            out.append(refined)
            locs.append(where)
        else:
            out.append(float(arr[k]))
            locs.append(float(s[k]))
    cap = capacity(p).capacity_unitary
    return OrbitPeaks(
        ergotropy_max=out[0],
        power_max=out[1],
        coherence_max=out[2],
        capacity=cap,
        ergotropy_peak_at=locs[0],
    )
