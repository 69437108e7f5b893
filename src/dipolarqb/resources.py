"""Quantum-resource measures for two-qubit states.

* l1-norm coherence: sum of |off-diagonal| entries in the computational
  basis, range [0, 3] for two qubits; also over (..., 4, 4) stacks.

* Concurrence: max(0, l1 - l2 - l3 - l4) over the decreasingly sorted
  square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

* Quantum discord, measured on subsystem A: mutual information
  I = S(A) + S(B) - S(AB) minus the classical correlation

      C_A = sup_{theta, phi} [ S(B) - sum_i p_i S(B | outcome i) ],

  the supremum running over projective measurements along the Bloch
  direction (sin t cos f, sin t sin f, cos t) on A.  All entropies are
  base-2.  Two optimizers share the conditional-entropy objective:

  - X-states (every entry off the diagonal and anti-diagonal at most
    X_STATE_TOL in absolute value, as for the Gibbs states and the
    dephasing trajectories from |00> this model produces) take an exact
    reduction (Ali, Rau & Alber, PRA 81, 042105 (2010)).  The
    conditional states' diagonals do not depend on phi, and
    phi* = (arg rho_21 - arg rho_03) / 2 maximises the modulus of their
    off-diagonal for every theta, so phi* is optimal.  The objective is
    also symmetric under theta -> pi - theta, so a coarse theta grid on
    [0, pi/2] refined by golden section finds the optimum, including the
    intermediate angles Huang, PRA 88, 014302 (2013) shows can occur.
  - Every other state gets a 33x64 grid over theta in [0, pi/2] and phi
    (the other half of the sphere repeats it), then a pattern search
    from the five best cells on w = theta exp(i phi), smooth at the
    pole: each round evaluates a 9x9 grid over +-1 step around every
    start, and moves the start to a lower point or else shrinks its step
    4x.  This route is the X-state path's reference.

  The objective has two evaluators, kept apart because each is the fast
  one for its caller: `_conditional_entropy` takes the grids as angle
  arrays (tens of times cheaper than the same grid point by point), and
  `_scalar_objective` takes golden section's single points (about ten
  times cheaper than a one-point array call).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import golden_max, partial_trace, von_neumann_entropy
from .model import SIGMA_Y

GRID_THETA_N = 33
GRID_PHI_N = 64
REFINE_STARTS = 5
REFINE_N = 9
REFINE_STEP_TOL = 1e-8
REFINE_ROUNDS = 100
X_STATE_TOL = 1e-12
X_THETA_N = 33
# entries of a 4x4 X-state off the diagonal and the anti-diagonal
_NON_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def l1_coherence(rho):
    """Sum of absolute off-diagonal entries in the computational basis.

    A (..., 4, 4) stack gives an array of the per-state values.
    """
    a = np.abs(rho)
    out = a.sum(axis=(-2, -1)) - np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def concurrence(rho):
    """Two-qubit entanglement monotone from the spin-flipped spectrum."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    prod = rho @ yy @ rho.conj() @ yy
    ev = np.linalg.eigvals(prod).real
    lams = np.sqrt(np.clip(ev, 0.0, None))
    lams.sort()
    return float(max(0.0, lams[3] - lams[2] - lams[1] - lams[0]))


@dataclass
class MeasurementDirection:
    """Bloch angles of the projective measurement axis."""

    theta: float
    phi: float

    def axis(self):
        st = np.sin(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])


@dataclass
class DiscordResult:
    discord: float
    classical_correlation: float
    mutual_information: float
    optimal_direction: MeasurementDirection
    optimizer_evals: int


def _conditional_entropy(r4, theta, phi):
    """Average post-measurement entropy of B for angle arrays (vectorized).

    r4 is rho reshaped to (2, 2, 2, 2) as [a, b, a', b'].  For a
    projector E on A the unnormalized conditional of B is
    Tr_A[(E x 1) rho] = einsum('im,mkil->kl', E, r4).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    e00 = 0.5 * (1.0 + np.cos(theta))
    e01 = 0.5 * np.sin(theta) * np.exp(-1j * phi)
    e10 = e01.conj()
    e11 = 1.0 - e00
    # only the (0,0), (0,1), (1,1) entries of the 2x2 conditional matter
    out = np.zeros(theta.shape)
    plus = []
    for k, l in ((0, 0), (0, 1), (1, 1)):
        plus.append(
            e00 * r4[0, k, 0, l]
            + e01 * r4[1, k, 0, l]
            + e10 * r4[0, k, 1, l]
            + e11 * r4[1, k, 1, l]
        )
    rho_b = r4[0, :, 0, :] + r4[1, :, 1, :]
    minus = [rho_b[0, 0] - plus[0], rho_b[0, 1] - plus[1], rho_b[1, 1] - plus[2]]
    for m00, m01, m11 in (plus, minus):
        a = m00.real
        d = m11.real
        prob = a + d
        half = 0.5 * (a + d)
        gap = np.sqrt(np.clip(0.25 * (a - d) ** 2 + np.abs(m01) ** 2, 0.0, None))
        for lam in (half + gap, half - gap):
            lam = np.clip(lam, 0.0, None)
            mask = lam > 0.0
            # p_i * S(rho_B|i): the p_i cancels one normalization power,
            # leaving -lam log2(lam/p) summed over the two eigenvalues
            term = np.zeros_like(lam)
            term[mask] = -lam[mask] * np.log2(lam[mask] / prob[mask])
            out += term
    return out


def _scalar_objective(r4):
    """Same conditional entropy as a fast scalar callable for refiners.

    M+[k,l] is a fixed linear combination of four 2x2 slices of r4, so
    the slices are lifted to plain complex numbers once and each
    evaluation is a handful of scalar operations; M- = rho_B - M+.
    """
    sl = [
        [complex(r4[m, k, i, l]) for (k, l) in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for (m, i) in ((0, 0), (1, 0), (0, 1), (1, 1))
    ]
    a_, b_, c_, d_ = sl
    rb = [a_[j] + d_[j] for j in range(4)]  # rho_B entries (trace over A)
    log2 = math.log(2.0)

    def half_term(m00, m01, m11):
        a = m00.real
        d = m11.real
        p = a + d
        if p <= 0.0:
            return 0.0
        gap = math.sqrt(max(0.25 * (a - d) ** 2 + abs(m01) ** 2, 0.0))
        out = 0.0
        for lam in (0.5 * p + gap, 0.5 * p - gap):
            if lam > 0.0:
                out -= lam * math.log(lam / p) / log2
        return out

    def objective(x):
        theta, phi = x
        ct = math.cos(theta)
        st = math.sin(theta)
        e00 = 0.5 * (1.0 + ct)
        e11 = 0.5 * (1.0 - ct)
        e01 = 0.5 * st * complex(math.cos(phi), -math.sin(phi))
        e10 = e01.conjugate()
        m = [e00 * a_[j] + e01 * b_[j] + e10 * c_[j] + e11 * d_[j] for j in range(4)]
        total = half_term(m[0], m[1], m[3])
        total += half_term(rb[0] - m[0], rb[1] - m[1], rb[3] - m[3])
        return total

    return objective


def _general_search(r4):
    """(conditional entropy, (theta, phi), evals): grid plus pattern search."""
    thetas = np.linspace(0.0, 0.5 * np.pi, GRID_THETA_N)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_PHI_N, endpoint=False)
    t, p = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    cond = _conditional_entropy(r4, t, p)
    evals = cond.size
    best = np.argsort(cond, kind="stable")[:REFINE_STARTS]
    w, val, step = t[best] * np.exp(1j * p[best]), cond[best], np.full(REFINE_STARTS, phis[1])
    offsets = np.linspace(-1.0, 1.0, REFINE_N)
    dw = (offsets[:, None] + 1j * offsets).ravel()
    rows = np.arange(REFINE_STARTS)
    for _ in range(REFINE_ROUNDS):
        if np.max(step) < REFINE_STEP_TOL:
            break
        near = w[:, None] + step[:, None] * dw
        local = _conditional_entropy(r4, np.abs(near), np.angle(near))  # (starts, REFINE_N**2)
        evals += local.size
        k = np.argmin(local, axis=1)
        # shrink only when the centre wins, so a start can follow a long valley
        moved = local[rows, k] < val
        w = np.where(moved, near[rows, k], w)
        val = np.where(moved, local[rows, k], val)
        step = np.where(moved, step, 0.25 * step)
    i = int(np.argmin(val))
    return float(val[i]), (float(abs(w[i])), float(np.angle(w[i]))), evals


def _x_state_search(r4):
    """Same contract as _general_search, exact for X-states (module doc)."""
    phi = float(0.5 * (np.angle(r4[1, 0, 0, 1]) - np.angle(r4[0, 0, 1, 1])))
    thetas = np.linspace(0.0, 0.5 * np.pi, X_THETA_N).tolist()
    cond = _conditional_entropy(r4, thetas, np.full(X_THETA_N, phi))
    i = int(np.argmin(cond))
    best_val, best_theta = float(cond[i]), thetas[i]
    objective = _scalar_objective(r4)
    tried = []

    def gain(theta):  # golden_max maximizes: negate the entropy
        tried.append(theta)
        return -objective((theta, phi))
    theta, refined = golden_max(gain, thetas[max(i - 1, 0)], thetas[min(i + 1, X_THETA_N - 1)], 1e-10)
    if -refined < best_val:  # keep the grid value unless refinement lowers it
        best_val, best_theta = -refined, theta
    return best_val, (best_theta, phi), X_THETA_N + len(tried)


def _discord(rho, search):
    """DiscordResult of rho measured on A, optimised by the given search."""
    rho_a = partial_trace(rho, "A")
    rho_b = partial_trace(rho, "B")
    s_a = von_neumann_entropy(rho_a)
    s_b = von_neumann_entropy(rho_b)
    s_ab = von_neumann_entropy(rho)
    mutual = s_a + s_b - s_ab

    best_val, best_x, evals = search(rho.reshape(2, 2, 2, 2))
    classical = s_b - best_val
    discord = mutual - classical
    if -1e-9 < discord < 0.0:
        discord = 0.0
    theta = best_x[0] % (2.0 * np.pi)
    phi = best_x[1] % (2.0 * np.pi)
    if theta > np.pi:  # fold the redundant half of the sphere back
        theta = 2.0 * np.pi - theta
        phi = (phi + np.pi) % (2.0 * np.pi)
    return DiscordResult(
        discord=float(discord),
        classical_correlation=float(classical),
        mutual_information=float(mutual),
        optimal_direction=MeasurementDirection(theta=theta, phi=phi),
        optimizer_evals=evals,
    )


def quantum_discord(rho, measure="A"):
    """Discord, classical correlation, and mutual information in bits.

    measure "A" (default) projects on the first qubit, matching the
    definition used throughout; "B" is a diagnostic that projects on the
    second qubit instead.  X-states take the exact X-state search, all
    other states the general one (module doc).
    """
    rho = np.asarray(rho, dtype=complex)
    if measure == "B":
        rho = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    elif measure != "A":
        raise ValueError(f"measure must be 'A' or 'B', got {measure!r}")
    x_state = np.max(np.abs(rho[_NON_X])) <= X_STATE_TOL
    return _discord(rho, _x_state_search if x_state else _general_search)
