"""Time evolution: dissipative relaxation and unitary charging.

The open-system dynamics follows

    d rho / dt = -i [H, rho]
                 + sum_k ( C_k rho C_k^dag - (1/2) {C_k^dag C_k, rho} )

with the two collapse operators C1 = sqrt(gamma) sx x 1 and
C2 = sqrt(gamma) 1 x sx.  Trajectories are integrated with fixed-step
classical RK4; the right-hand side is linear and traceless, so RK4
conserves the trace to round-off and the default dt = 1e-3 resolves the
regimes exercised here (gamma <= 0.2, couplings of order 10) comfortably.

The generator does not depend on time, so one RK4 step is the fixed
16x16 matrix P = 1 + z + z^2/2 + z^3/6 + z^4/24, z = dt L, acting on the
column-stacked state, with L = `lindblad_superoperator`.
`evolve_lindblad` precomputes P^stride once and applies it between
every pair of samples: the same numerical method as the step-by-step
loop, without the per-step Python work.  The plain generator
`oracles.lindblad_rhs` is what L is checked against, and expm(L t) is
the exact cross-check of the trajectories; the gamma = 0 limit must
reproduce plain unitary conjugation.

Charging is closed-system: rho(t) = U(t) rho0 U(t)^dag with the
transverse-field propagator from `model.charging_unitary`, conjugated
over a whole stack of sample times at once, with no integration grid.
Both return exactly n_samples samples, at t0 + (t1 - t0) k / (n_samples - 1).
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    IDENTITY_2,
    SIGMA_X,
    build_hamiltonian,
    charging_unitary,
)

TRACE_DRIFT_LIMIT = 1e-6
EIGENVALUE_FLOOR = -1e-6
DEFAULT_SAMPLES = 1000


def check_span(t0, t1, n_samples=2):
    """Raise ValueError unless t0 < t1 span a finite time with n_samples >= 2."""
    if not (np.isfinite(t1 - t0) and t1 > t0):
        raise ValueError(f"need finite t0 < t1, got [{t0!r}, {t1!r}]")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples!r}")


@dataclass
class TimeGrid:
    """Uniform integration grid: t0 to t1 in n equal steps.

    The requested dt is adjusted to (t1 - t0) / n with
    n = max(1, round((t1 - t0) / dt)), so the last step ends on t1.
    """

    t0: float
    t1: float
    dt: float = 1e-3

    def __post_init__(self):
        self.t0, self.t1, self.dt = float(self.t0), float(self.t1), float(self.dt)
        check_span(self.t0, self.t1)
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if (self.t1 - self.t0) / self.dt > 1e7:
            raise ValueError("grid would exceed 1e7 steps; enlarge dt")
        self.dt = (self.t1 - self.t0) / max(1, round((self.t1 - self.t0) / self.dt))

    def n_steps(self):
        return int(round((self.t1 - self.t0) / self.dt))

    def sampled(self, n_samples):
        """(grid, stride), stride = ceil(n / (n_samples - 1)), with the step shrunk to fit."""
        check_span(self.t0, self.t1, n_samples)
        stride = -(-self.n_steps() // (n_samples - 1))
        return TimeGrid(self.t0, self.t1, (self.t1 - self.t0) / (stride * (n_samples - 1))), stride


class TimeSeries:
    """Sampled named metrics over strictly increasing times."""

    def __init__(self, times, columns):
        self.times = np.asarray(times, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        self.columns = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
        for name, values in self.columns.items():
            if values.shape != self.times.shape:
                raise ValueError(f"column {name!r} length {values.shape} != times {self.times.shape}")

    def __getitem__(self, name):
        return self.columns[name]


def collapse_operators(p):
    g = np.sqrt(p.gamma)
    return [g * np.kron(SIGMA_X, IDENTITY_2), g * np.kron(IDENTITY_2, SIGMA_X)]


def lindblad_superoperator(p):
    """16x16 generator L on column-stacked states.

    L @ rho.flatten(order="F") equals oracles.lindblad_rhs(p, rho)
    flattened the same way; evolve_lindblad builds its RK4 step from L, and
    expm(L t) is the exact propagator its results are checked against.
    """
    h = build_hamiltonian(p)
    eye = np.eye(4, dtype=complex)
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse_operators(p):
        cdc = c.conj().T @ c
        sup += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return sup


class IntegrationAccuracyError(RuntimeError):
    """Raised when a trajectory leaves the valid-state neighbourhood."""


def _check_sample(rho, t):
    drift = abs(np.trace(rho).real - 1.0)
    if drift > TRACE_DRIFT_LIMIT:
        raise IntegrationAccuracyError(
            f"trace drift {drift:.3e} at t={t:.6g} exceeds {TRACE_DRIFT_LIMIT}; reduce dt"
        )
    w_min = float(np.linalg.eigvalsh(rho).min())
    if w_min < EIGENVALUE_FLOOR:
        raise IntegrationAccuracyError(
            f"eigenvalue {w_min:.3e} at t={t:.6g} below {EIGENVALUE_FLOOR}; reduce dt"
        )
    out = 0.5 * (rho + rho.conj().T)
    return out / np.trace(out).real


def evolve_lindblad(p, rho0, grid, n_samples=DEFAULT_SAMPLES):
    """Fixed-step RK4 trajectory of the dissipative dynamics.

    Returns (times, states) on the grid refined by `TimeGrid.sampled`;
    states are re-Hermitized, trace-renormalized copies checked against
    the trace and positivity guards at every sample.  The propagated
    state itself is never renormalized, so the guards see the raw drift.
    """
    grid, stride = grid.sampled(n_samples)
    z = grid.dt * lindblad_superoperator(p)
    eye = np.eye(16, dtype=complex)
    # RK4 on a linear ODE is its degree-4 Taylor polynomial, P = 1 + d
    d = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
    increment = _power_increment(d, stride)
    times = grid.t0 + grid.dt * (stride * np.arange(n_samples))
    vec = np.array(rho0, dtype=complex).flatten(order="F")
    states = []
    for t in times:
        states.append(_check_sample(vec.reshape(4, 4, order="F"), t))
        vec = vec + increment @ vec
    return times, states


def _power_increment(d, k):
    """D with (1 + d)^k = 1 + D, by binary powering on the increments.

    Rounding 1 + d once and raising it to the k-th power would repeat
    that rounding error k times over; the increments keep it relative
    to |d| instead, so long strides stay as accurate as single steps.
    """
    out = np.zeros_like(d)
    while k:
        if k & 1:
            out = out + d + out @ d
        d = 2.0 * d + d @ d
        k >>= 1
    return out


def charged_state(p, rho0, t):
    """U(t) rho0 U(t)^dag; an array of times gives a (..., 4, 4) stack."""
    u = charging_unitary(p, t)
    return u @ rho0 @ np.swapaxes(u.conj(), -1, -2)


def charge_trajectory(p, rho0, t0, t1, n_samples=DEFAULT_SAMPLES):
    """Unitary charging orbit at n_samples uniform times from t0 to t1.

    Returns (times, states) with states an (N, 4, 4) stack; the
    eigenvalues of every sample are those of rho0.
    """
    check_span(t0, t1, n_samples)
    times = np.linspace(t0, t1, n_samples)
    return times, charged_state(p, np.asarray(rho0, dtype=complex), times)
