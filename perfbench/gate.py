"""Output gate: every invocation's CSV against routes other than the timed one.

The oracles are the package's documented cross-check routes
(``lindblad_superoperator``, ``ergotropy_closed_form``) and the
benchmark's own formulas: the Hamiltonian assembled from the model's
Pauli form, Gibbs states and propagators through ``scipy.linalg.expm``,
capacities from ``numpy.linalg.eigh`` populations and energies, the
X-state concurrence, and a Powell-refined grid search for discord.

``check(case, path)`` returns (rows, problems); an empty problem list
means the CSV passed.  Sample-time checks accept any uniform grid that
starts at t0 and ends within one step of t1, so a fix that changes how
many rows an invocation writes still passes.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar

from dipolarqb.battery import ergotropy_closed_form
from dipolarqb.dynamics import lindblad_superoperator
from dipolarqb.model import ModelParams

import workloads

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

HEADERS = {
    "dephasing": ["t", "concurrence", "discord", "coherence"],
    "charge_discord": ["omega_t", "ergotropy", "power_instant", "capacity_basis",
                       "capacity_unitary", "coherence", "discord"],
    "grid2d": ["x", "y", "capacity", "coherence_max", "ergotropy_max", "power_max"],
}
# absolute tolerances.  RK4 at dt = 1e-3 against the exact propagator is
# the loosest route: its largest deviation over the corners of the
# coupling box is 1.0e-5 (coherence) and 1.1e-6 (discord).
TOL_RK4 = 5e-5
# The exact routes agree with the CLI to 6e-14 and discord to 3e-12.
TOL_EXACT = 1e-9
TOL_DISCORD = 1e-7
TOL_PEAK = 1e-8
X_STATE_TOL = 1e-12
DISCORD_ROW_FRACTIONS = (1 / 3, 2 / 3, 1.0)
DENSE_SCAN_N = 2001
# grid2d: power and coherence peaks are scanned densely at every
# PEAK_SUBSET_STRIDE-th point; capacity and ergotropy at every point
PEAK_SUBSET_STRIDE = 20


def hamiltonian(p):
    d, e = p.delta, p.epsilon
    xy, yx = np.kron(SX, SY), np.kron(SY, SX)
    dipolar = (d - 3 * e) * np.kron(SX, SX) + (d + 3 * e) * np.kron(SY, SY) - 2 * d * np.kron(SZ, SZ)
    return (p.dm * (xy - yx) + p.ksea * (xy + yx) - dipolar / 3
            + p.field * (np.kron(SZ, I2) + np.kron(I2, SZ)))


def charging_hamiltonian(p):
    return p.omega * (np.kron(SX, I2) + np.kron(I2, SX))


def gibbs(p, h):
    shifted = h - np.linalg.eigvalsh(h)[0] * np.eye(4)
    z = expm(-shifted / p.temperature)
    return z / np.trace(z).real


def l1(rho):
    return np.abs(rho).sum(axis=(-2, -1)) - np.abs(np.diagonal(rho, axis1=-2, axis2=-1)).sum(axis=-1)


def entropy(rho):
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def unitary_capacity(h, zeta):
    pops = np.linalg.eigvalsh(zeta)[::-1]
    energies = np.linalg.eigvalsh(h)
    return float(pops @ energies[::-1] - pops @ energies)


def x_concurrence(rho):
    r = rho.real
    return 2 * max(0.0, abs(rho[1, 2]) - math.sqrt(max(r[0, 0] * r[3, 3], 0.0)),
                   abs(rho[0, 3]) - math.sqrt(max(r[1, 1] * r[2, 2], 0.0)))


def is_x_state(rho):
    mask = np.ones((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = False
    mask[[0, 3, 1, 2], [3, 0, 2, 1]] = False
    return float(np.abs(rho[mask]).max()) <= X_STATE_TOL


def mutual_information(rho):
    r = rho.reshape(2, 2, 2, 2)
    return entropy(np.einsum("ikjk->ij", r)) + entropy(np.einsum("kikj->ij", r)) - entropy(rho)


def discord(rho):
    """Mutual information minus the classical correlation, measuring qubit A.

    The conditional entropy over Bloch directions of the measurement on A
    is scanned on a 61 x 120 grid and the four best cells are refined with
    Powell's method; the conditional states come from batched eigvalsh.
    """
    r = rho.reshape(2, 2, 2, 2)

    def conditional(theta, phi):
        theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)
        n_sigma = np.einsum("...k,kij->...ij", n, np.stack([SX, SY, SZ]))
        total = np.zeros(theta.shape)
        for sign in (1.0, -1.0):
            proj = 0.5 * (I2 + sign * n_sigma)
            # Tr_A[(P x 1) rho]: b, d index qubit B
            cond = np.einsum("...ac,cbad->...bd", proj, r)
            lam = np.clip(np.linalg.eigvalsh(cond), 0.0, None)
            prob = lam.sum(-1, keepdims=True)
            safe = np.where(lam > 0, lam / np.where(prob > 0, prob, 1.0), 1.0)
            total -= (lam * np.log2(safe)).sum(-1)
        return total

    tg, pg = np.meshgrid(np.linspace(0, np.pi, 61), np.linspace(0, 2 * np.pi, 120, endpoint=False),
                         indexing="ij")
    values = conditional(tg.ravel(), pg.ravel())
    best = float(values.min())
    for k in np.argsort(values)[:4]:
        res = minimize(lambda x: float(conditional(x[0], x[1])[0]), [tg.ravel()[k], pg.ravel()[k]],
                       method="Powell", options={"xtol": 1e-10, "ftol": 1e-14})
        best = min(best, float(res.fun))
    s_b = entropy(np.einsum("kikj->ij", r))
    return mutual_information(rho) - (s_b - best)


def read_csv(path):
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    body = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    return lines[0].split(","), np.array(body, dtype=float).reshape(len(body), -1)


def _check_times(t, t1, dt, samples):
    problems = []
    if not samples // 2 <= t.size <= samples + 1:
        return [f"{t.size} rows for {samples} samples"]
    steps = np.diff(t)
    if abs(t[0]) > 1e-12:
        problems.append(f"first sample at t={float(t[0])!r}, not 0")
    if np.any(steps <= 0) or np.any(np.abs(steps[:-1] - steps[0]) > 1e-9) or steps[-1] > steps[0] + 1e-9:
        problems.append("sample times are not a uniform grid")
    if abs(t[-1] - t1) > dt:
        problems.append(f"last sample at t={float(t[-1])!r}, more than dt from t1={t1!r}")
    return problems


def _compare(problems, name, got, want, tol, rows=None):
    err = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    if err.size and not np.all(err <= tol):  # also catches NaN
        k = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        row = k if rows is None else rows[k]
        problems.append(f"{name} row {row}: got {float(np.ravel(got)[k])!r}, "
                        f"oracle {float(np.ravel(want)[k])!r}")


def _discord_rows(n):
    return sorted({round(f * (n - 1)) for f in DISCORD_ROW_FRACTIONS})


def _check_discord(problems, states, column, tol):
    mutual = np.array([mutual_information(rho) for rho in states])
    if np.any(column < -tol) or np.any(column > mutual + tol):
        problems.append("discord outside [0, mutual information]")
    rows = _discord_rows(len(states))
    _compare(problems, "discord", column[rows], [discord(states[k]) for k in rows], tol, rows)


def _check_dephasing(p, data):
    t = data[:, 0]
    problems = _check_times(t, workloads.DEPHASING["t1"], workloads.DEPHASING["dt"],
                            workloads.DEPHASING["samples"])
    gen = lindblad_superoperator(p)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    v0 = rho0.reshape(-1, order="F")
    states = [(expm(gen * tk) @ v0).reshape(4, 4, order="F") for tk in t]
    if not all(is_x_state(rho) for rho in states):
        return problems + ["oracle state is not an X-state; the X-state concurrence does not apply"]
    _compare(problems, "coherence", data[:, 3], l1(np.array(states)), TOL_RK4)
    _compare(problems, "concurrence", data[:, 1], [x_concurrence(rho) for rho in states], TOL_RK4)
    _check_discord(problems, states, data[:, 2], TOL_RK4)
    return problems


def _check_charge(p, data):
    t = data[:, 0] / p.omega
    problems = _check_times(t, math.pi / p.omega, 1e-3, workloads.CHARGE_SAMPLES)
    h, hch = hamiltonian(p), charging_hamiltonian(p)
    zeta = gibbs(p, h)
    us = [expm(-1j * hch * tk) for tk in t]
    states = np.array([u @ zeta @ u.conj().T for u in us])
    power = np.einsum("nij,ji->n", -1j * (hch @ states - states @ hch), h).real
    _compare(problems, "ergotropy", data[:, 1], ergotropy_closed_form(p, t), TOL_EXACT)
    _compare(problems, "power_instant", data[:, 2], power, TOL_EXACT)
    _compare(problems, "capacity_basis", data[:, 3], np.full(t.size, (h[3, 3] - h[0, 0]).real), TOL_EXACT)
    _compare(problems, "capacity_unitary", data[:, 4], np.full(t.size, unitary_capacity(h, zeta)), TOL_EXACT)
    _compare(problems, "coherence", data[:, 5], l1(states), TOL_EXACT)
    _check_discord(problems, list(states), data[:, 6], TOL_DISCORD)
    return problems


def _peak(f_dense, f_scalar):
    """Maximum over s in [0, pi]: dense scan, then bounded Brent refinement."""
    s = np.linspace(0.0, np.pi, DENSE_SCAN_N)
    k = int(np.argmax(f_dense(s)))
    lo, hi = s[max(k - 1, 0)], s[min(k + 1, s.size - 1)]
    res = minimize_scalar(lambda x: -f_scalar(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(float(f_dense(s[k:k + 1])[0]), -float(res.fun))


def _orbit(p, h, hch, zeta):
    """(power(s), coherence(s)) along the charging orbit, s = omega t."""
    w, v = np.linalg.eigh(hch)

    def states(s):
        phases = np.exp(-1j * np.multiply.outer(np.atleast_1d(s) / p.omega, w))
        u = np.einsum("ik,nk,jk->nij", v, phases, v.conj())
        return u @ zeta @ u.conj().transpose(0, 2, 1)

    def power(s):
        rho = states(s)
        return np.einsum("nij,ji->n", -1j * (hch @ rho - rho @ hch), h).real

    def coherence(s):
        return l1(states(s))

    return power, coherence


def _check_grid2d(case, data):
    (xname, xlo, xhi, nx), (yname, ylo, yhi, ny) = case.axes
    xs, ys = np.linspace(xlo, xhi, nx), np.linspace(ylo, yhi, ny)
    if data.shape[0] != nx * ny:
        return [f"{data.shape[0]} rows for a {nx} x {ny} grid"]
    problems = []
    _compare(problems, "x", data[:, 0], np.repeat(xs, ny), 1e-12)
    _compare(problems, "y", data[:, 1], np.tile(ys, nx), 1e-12)
    for k, (xv, yv) in enumerate(zip(np.repeat(xs, ny), np.tile(ys, nx))):
        p = ModelParams(**case.params, **{xname: float(xv), yname: float(yv)})
        h, hch = hamiltonian(p), charging_hamiltonian(p)
        zeta = gibbs(p, h)
        _compare(problems, "capacity", data[k, 2], unitary_capacity(h, zeta), TOL_EXACT, [k])
        erg = _peak(lambda s: ergotropy_closed_form(p, s / p.omega),
                    lambda s: ergotropy_closed_form(p, s / p.omega))
        _compare(problems, "ergotropy_max", data[k, 4], erg, TOL_PEAK, [k])
        if k % PEAK_SUBSET_STRIDE == 0:
            power, coherence = _orbit(p, h, hch, zeta)
            for col, name, f in ((5, "power_max", power), (3, "coherence_max", coherence)):
                _compare(problems, name, data[k, col], _peak(f, lambda s: float(f(s)[0])), TOL_PEAK, [k])
    return problems


def check(case, path):
    """(data rows, problems) for the CSV one invocation of `case` wrote."""
    try:
        header, data = read_csv(path)
    except (OSError, ValueError) as exc:
        return 0, [f"unreadable CSV: {exc}"]
    if header != HEADERS[case.workload]:
        return 0, [f"header {header} != {HEADERS[case.workload]}"]
    if data.shape[0] < 2:
        return data.shape[0], ["fewer than two rows"]
    if case.workload == "dephasing":
        problems = _check_dephasing(ModelParams(**case.params), data)
    elif case.workload == "charge_discord":
        problems = _check_charge(ModelParams(**case.params), data)
    else:
        problems = _check_grid2d(case, data)
    return data.shape[0], problems
