"""Independent cross-check routes the production paths are tested against.

Nothing in the package imports this module, and the package root does
not re-export it; tests, demos and diagnostics import it by name.  Each
route recomputes a production result another way:

* `matrix_exp` exponentiates a Hermitian or anti-Hermitian matrix
  through its eigenbasis; `charging_unitary_exact` is exp(-i H_ch t)
  through it, the reference for `model.charging_unitary`.
* `gibbs_spectrum` is the numeric Gibbs eigensystem with
  `GibbsSpectrumDiagnostics`: the analytic eigenvalues and two candidate
  eigenvector parameters of the {|00>,|11>} branch, only one of which
  agrees with the Hamiltonian eigenbasis.
* `lindblad_rhs` is the plain generator applied to one state, the
  definition `dynamics.lindblad_superoperator` is checked against;
  `is_valid_state` is a cheap Hermitian/trace/positivity probe.
* `_projector_pairs` gives the +/- measurement projectors for angle
  arrays; the conditionals built from them are the reference for
  `resources._conditional_entropy`.
* `nelder_mead_search` is a second discord search with the same
  contract: a 64x64 grid over the whole sphere, then scipy's
  Nelder-Mead from the five best cells.  It is the reference for
  `resources._general_search`, and the one route that loads scipy, at
  its first call.
* `ergotropy_double_sum` is the sum over both eigensystems that
  `battery.ergotropy` equals; `instantaneous_power_fd` is the central
  difference of xi(t) that `battery.instantaneous_power` equals.
* `ergotropy_closed_form_literal` is the algebraically collapsed xi(t),
  written with complex intermediates.  Its imaginary part and its
  epsilon-sign convention are diagnostics: at D = 0 it equals
  `battery.ergotropy_closed_form` with epsilon flipped.
* `capacity_closed_form` is the thermal closed-form capacity, equal to
  <00|H|00> - Tr[H zeta]; no CSV writes it, and it matches neither
  capacity that `battery.capacity` reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import collapse_operators
from .linalg import HERM_TOL, hermitian_eigen, hermiticity_defect
from .model import build_hamiltonian, charging_hamiltonian, charging_unitary
from .resources import _conditional_entropy, _scalar_objective
from .thermal import _sinhc, _thermal_terms, gibbs_numeric

GRID_N = 64
POLISH_STARTS = 5


def matrix_exp(m):
    """exp(M) for a dense complex matrix.

    Hermitian input goes through its eigenbasis; anti-Hermitian input
    (M = -iH with H Hermitian, the unitary-propagator case) through the
    eigenbasis of iM.  Anything else is a ValueError that names both
    defects, max |M - M^dag| and max |M + M^dag|.
    """
    m = np.asarray(m, dtype=complex)
    if hermiticity_defect(m) <= HERM_TOL:
        h = 0.5 * (m + m.conj().T)
        w, v = np.linalg.eigh(h)
        return (v * np.exp(w)) @ v.conj().T
    im = 1j * m
    if hermiticity_defect(im) <= HERM_TOL:
        h = 0.5 * (im + im.conj().T)  # m = -i h
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w)) @ v.conj().T
    raise ValueError(
        "matrix_exp needs a Hermitian or anti-Hermitian matrix: max |M - M^dag| "
        f"entry = {hermiticity_defect(m):.3e}, max |M + M^dag| entry = {hermiticity_defect(im):.3e}"
    )


def charging_unitary_exact(p, t):
    """Reference propagator via the matrix exponential (cross-check path)."""
    return matrix_exp(-1j * charging_hamiltonian(p) * t)


@dataclass
class GibbsSpectrumDiagnostics:
    """Cross-checks of the numeric Gibbs eigensystem against analytic forms.

    phi_closed : the four analytic eigenvalues (descending).
    phi_max_deviation : max |numeric - analytic| eigenvalue gap.
    vector_param_literal : the literal closed-form candidate for the
        {|00>,|11>}-branch eigenvector parameter, W kappa2 |sinh S| / sinh J.
    vector_param_consistent : the value (kappa2) that makes those
        eigenvectors coincide with the Hamiltonian eigenbasis, as they
        must since the state commutes with H.
    vector_overlap_defect_literal / _consistent : 1 - |<numeric|analytic>|
        for the worst {|00>,|11>}-branch eigenvector under each parameter
        choice (only meaningful away from degeneracies).
    """

    phi_closed: np.ndarray
    phi_max_deviation: float
    vector_param_literal: float
    vector_param_consistent: float
    vector_overlap_defect_literal: float
    vector_overlap_defect_consistent: float


def _closed_form_phis(p):
    """Analytic Gibbs eigenvalues, descending, overflow-safe."""
    t = _thermal_terms(p)
    return np.sort(np.array(t.e) / t.twod0)[::-1]


def _log_sinh(x):
    """log(sinh(x)) for x > 0 without overflow."""
    return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))


def _branch_vector(b_param, ksea, epsilon):
    top = -1j * (b_param)
    den = ksea - 1j * epsilon
    n = math.hypot(abs(top), abs(den))
    v = np.zeros(4, dtype=complex)
    v[0] = top / n
    v[3] = den / n
    return v


def gibbs_spectrum(p):
    """Descending eigensystem of the numeric Gibbs state, with diagnostics.

    Returns (values, vectors, diagnostics), the last a
    GibbsSpectrumDiagnostics record.
    """
    rho = gibbs_numeric(p)
    values, vectors = hermitian_eigen(rho, order="descending")
    phi = _closed_form_phis(p)
    phi_dev = float(np.max(np.abs(np.sort(values)[::-1] - phi)))

    T = p.temperature
    k1, k2 = p.kappa1(), p.kappa2()
    S = 2.0 * k1 / (3.0 * T)
    J = 2.0 * k2 / T
    if J > 1e-300 and (abs(p.ksea) > 0 or abs(p.epsilon) > 0):
        # kappa2 * W |sinh S| / sinh J, evaluated in log space
        if S <= 0.0:
            l_literal = 0.0
        else:
            log_l = 4.0 * p.delta / (3.0 * T) + _log_sinh(S) - _log_sinh(J)
            l_literal = k2 * math.exp(log_l) if log_l < 700.0 else math.inf
        l_consistent = k2
        defects = []
        for l_value in (l_literal, l_consistent):
            worst = 0.0
            for sign in (+1.0, -1.0):
                cand = _branch_vector(p.field + sign * l_value, p.ksea, p.epsilon)
                # best match among the numeric eigenvectors
                overlap = max(abs(np.vdot(vectors[:, k], cand)) for k in range(4))
                worst = max(worst, 1.0 - overlap)
            defects.append(worst)
        diag = GibbsSpectrumDiagnostics(
            phi_closed=phi,
            phi_max_deviation=phi_dev,
            vector_param_literal=l_literal,
            vector_param_consistent=l_consistent,
            vector_overlap_defect_literal=defects[0],
            vector_overlap_defect_consistent=defects[1],
        )
    else:
        diag = GibbsSpectrumDiagnostics(
            phi_closed=phi,
            phi_max_deviation=phi_dev,
            vector_param_literal=float("nan"),
            vector_param_consistent=k2,
            vector_overlap_defect_literal=float("nan"),
            vector_overlap_defect_consistent=float("nan"),
        )
    return values, vectors, diag


def lindblad_rhs(p, rho):
    """Generator applied to one state; Hermitian and traceless output."""
    h = build_hamiltonian(p)
    out = -1j * (h @ rho - rho @ h)
    for c in collapse_operators(p):
        cdc = c.conj().T @ c
        out += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def is_valid_state(rho, herm_tol=1e-9, trace_tol=1e-8, psd_tol=1e-8):
    """Cheap validity probe for tests and demos; no production path calls it."""
    if hermiticity_defect(rho) > herm_tol:
        return False
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        return False
    return float(np.linalg.eigvalsh(rho).min()) >= -psd_tol


def _projector_pairs(theta, phi):
    """(N,2,2,2) array of the +/- projectors for angle arrays."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    st, ct = np.sin(theta), np.cos(theta)
    nx, ny, nz = st * np.cos(phi), st * np.sin(phi), ct
    pairs = np.empty((theta.size, 2, 2, 2), dtype=complex)
    for k, sign in enumerate((1.0, -1.0)):
        pairs[:, k, 0, 0] = 0.5 * (1.0 + sign * nz)
        pairs[:, k, 1, 1] = 0.5 * (1.0 - sign * nz)
        pairs[:, k, 0, 1] = 0.5 * sign * (nx - 1j * ny)
        pairs[:, k, 1, 0] = 0.5 * sign * (nx + 1j * ny)
    return pairs


def nelder_mead_search(rho):
    """(conditional entropy, (theta, phi), evals) of one state: grid plus Nelder-Mead.

    rho is 4x4, or reshaped to (2, 2, 2, 2) as [a, b, a', b'].
    """
    from scipy.optimize import minimize  # at first use: importing oracles skips scipy

    rho = np.reshape(rho, (4, 4))
    thetas = np.linspace(0.0, np.pi, GRID_N)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_N, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    cond = _conditional_entropy(rho, (tg * np.exp(1j * pg)).ravel())
    evals = tg.size
    best = np.argsort(cond)[:POLISH_STARTS]
    objective = _scalar_objective(rho)

    best_val = float(cond[best[0]])
    best_x = (float(tg.ravel()[best[0]]), float(pg.ravel()[best[0]]))
    for idx in best:
        res = minimize(
            objective,
            x0=[tg.ravel()[idx], pg.ravel()[idx]],
            method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 1e-8, "maxiter": 400},
        )
        evals += int(res.nfev)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = (float(res.x[0]), float(res.x[1]))
    return best_val, best_x, evals


def ergotropy_double_sum(rho, h):
    """Independent route: sum_jk r_j e_k (|<e_k|r_j>|^2 - delta_jk).

    r sorted descending, e ascending.  Kept separate from the trace
    route so the two can be compared, never collapsed.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    pops, r_vecs = hermitian_eigen(rho, order="descending")
    energies, e_vecs = hermitian_eigen(h, order="ascending")
    overlap = np.abs(e_vecs.conj().T @ r_vecs) ** 2  # [k, j]
    total = 0.0
    for j, pop in enumerate(pops):
        for k, energy in enumerate(energies):
            total += pop * energy * (overlap[k, j] - (1.0 if j == k else 0.0))
    return float(total)


def instantaneous_power_fd(p, t, dt=1e-4):
    """Central finite difference of xi(t) on the Gibbs charging orbit."""
    zeta = gibbs_numeric(p)
    h = build_hamiltonian(p)
    e0 = float(np.trace(zeta @ h).real)

    def xi_at(ti):
        u = charging_unitary(p, ti)
        return float(np.trace(u @ zeta @ u.conj().T @ h).real) - e0

    return (xi_at(t + dt) - xi_at(t - dt)) / (2.0 * dt)


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
