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
  base-2.  One state or a (..., 4, 4) stack goes in; two optimizers
  share the conditional-entropy objective:

  - X-states (every entry off the diagonal and anti-diagonal at most
    X_STATE_TOL in absolute value, as for the Gibbs states and the
    dephasing trajectories from |00> this model produces) take an exact
    reduction (Ali, Rau & Alber, PRA 81, 042105 (2010)), one state at a
    time.  The conditional states' diagonals do not depend on phi, and
    phi* = (arg rho_21 - arg rho_03) / 2 maximises the modulus of their
    off-diagonal for every theta, so phi* is optimal.  The objective is
    also symmetric under theta -> pi - theta, so a coarse theta grid on
    [0, pi/2] refined by golden section finds the optimum, including the
    intermediate angles Huang, PRA 88, 014302 (2013) shows can occur.
  - All other states of a stack are searched together.  Each gets a
    33x64 grid over theta in [0, pi/2] and phi (the other half of the
    sphere repeats it), then a pattern search from its five best cells
    on w = theta exp(i phi), smooth at the pole: each round evaluates a
    9x9 grid over +-1 step around every start, and moves the start to a
    lower point or else shrinks its step 4x.  A state leaves the rounds
    once all its steps are below REFINE_STEP_TOL, so its result and
    evaluation count do not depend on the states beside it.  This route
    is the X-state path's reference.

  A round of one state is a few hundred points, so its cost is the
  fixed cost of some 40 numpy calls; the states of a stack share each
  round's call.  They go through in chunks of SEARCH_CHUNK states,
  because the evaluator's temporaries grow with its points: the rounds
  of all 501 states of a charge run in one call raise the peak memory
  by about 40 MiB, their start grids by about 120 MiB.  The start grid
  is 2112 points, which pay per point, so it goes one state per call.

  The objective has two evaluators, kept apart because each is the fast
  one for its caller: `_conditional_entropy` takes stacks of states and
  arrays of axes in the Bloch form (tens of times cheaper than the same
  grid point by point), and `_scalar_objective` takes golden section's
  single points (about ten times cheaper than a one-point array call).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import golden_max, partial_trace, von_neumann_entropy
from .model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

GRID_THETA_N = 33
GRID_PHI_N = 64
SEARCH_CHUNK = 8  # states per pattern-search round call
REFINE_STARTS = 5
REFINE_N = 9
REFINE_STEP_TOL = 1e-8
REFINE_ROUNDS = 100
X_STATE_TOL = 1e-12
X_THETA_N = 33
# entries of a 4x4 X-state off the diagonal and the anti-diagonal
_NON_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
_TINY = np.finfo(float).tiny  # x log2 x at x = 0 evaluates as tiny log2 tiny, -2e-305
# row 4 mu + nu dotted with rho.ravel() is Tr[rho (s_mu x s_nu)], s_0 = 1
_PAULI_PAIRS = np.array([np.kron(a, b).T.ravel()
                         for a in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
                         for b in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)])


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
    """Discord of one state; for a stack every field but the last is an array.

    optimizer_evals is always one int, the total over the stack.
    """

    discord: float
    classical_correlation: float
    mutual_information: float
    optimal_direction: MeasurementDirection
    optimizer_evals: int


def _axes(w):
    """Unit measurement axes, (..., 3, P), for w = theta exp(i phi) of shape (..., P)."""
    r = np.abs(w)
    n = np.empty(w.shape[:-1] + (3,) + w.shape[-1:])
    sinc = np.sin(r) / np.where(r > 0.0, r, 1.0)  # sin(theta) exp(i phi) = sinc w
    np.multiply(w.real, sinc, out=n[..., 0, :])
    np.multiply(w.imag, sinc, out=n[..., 1, :])
    np.cos(r, out=n[..., 2, :])
    return n


def _conditional_entropy(rho, w):
    """Average post-measurement entropy of B for axes w = theta exp(i phi).

    rho is a (..., 4, 4) stack and w a (..., P) array that broadcasts
    against it; the result is (..., P).  In the Bloch form
    rho = sum t[mu, nu] s_mu x s_nu / 4, a = t[1:, 0] and b = t[0, 1:]
    are the local Bloch vectors and C = t[1:, 1:] the correlations.
    Outcome +-1 along n leaves B in ((1 +- n.a) 1 + (b +- C^T n).sigma) / 4,
    with probability (1 +- n.a) / 2 and eigenvalues
    (1 +- n.a +- |b +- C^T n|) / 4.
    """
    # one product per state, so a state's values do not depend on its stack
    t = (_PAULI_PAIRS @ rho.reshape(rho.shape[:-2] + (16, 1))).real.reshape(rho.shape)
    m = np.swapaxes(t[..., 1:, :], -1, -2) @ _axes(w)  # (..., 4, P): n.a, then C^T n
    # in place from here on: this working set is the search's peak memory
    m = np.stack((m, -m))  # outcomes +1 and -1
    m[..., 0, :] += 1.0  # p2 = 1 +- n.a, twice the outcome probability p
    m[..., 1:, :] += t[..., 0, 1:, None]  # b +- C^T n
    # p S(B|outcome) = -sum lam log2(lam / p) over the eigenvalues lam
    #                = [x(2 p2) - x(p2 + g) - x(p2 - g)] / 4 with x(y) = y log2 y
    y = np.empty(m.shape[:-2] + (3,) + m.shape[-1:])
    p2 = m[..., 0, :]
    g = np.sqrt(np.square(m[..., 1:, :], out=m[..., 1:, :]).sum(axis=-2), out=y[..., 1, :])
    np.subtract(p2, g, out=y[..., 2, :])
    g += p2
    np.multiply(p2, 2.0, out=y[..., 0, :])
    np.maximum(y, _TINY, out=y)
    f = np.log2(y, out=m[..., 1:, :])
    f *= y
    return 0.25 * (f[..., 0, :] - f[..., 1, :] - f[..., 2, :]).sum(axis=0)


def _scalar_objective(rho):
    """Same conditional entropy of one state as a fast scalar callable.

    M+[k,l] is a fixed linear combination of four 2x2 slices of rho, so
    the slices are lifted to plain complex numbers once and each
    evaluation is a handful of scalar operations; M- = rho_B - M+.
    """
    r4 = rho.reshape(2, 2, 2, 2)
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


def _general_search(rho):
    """Grid plus pattern search over a (S, 4, 4) stack, SEARCH_CHUNK at a time.

    Returns a (4, S) array whose rows are the conditional entropy, theta,
    phi and evaluation count of each state.
    """
    thetas = np.linspace(0.0, 0.5 * np.pi, GRID_THETA_N)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_PHI_N, endpoint=False)
    grid = (thetas[:, None] * np.exp(1j * phis)).ravel()
    offsets = np.linspace(-1.0, 1.0, REFINE_N)
    dw = (offsets[:, None] + 1j * offsets).ravel()
    found = np.empty((4, len(rho)))
    for lo in range(0, len(rho), SEARCH_CHUNK):
        chunk = rho[lo:lo + SEARCH_CHUNK]
        # the start grid pays per point, not per round: one state per call
        cond = np.array([_conditional_entropy(state, grid) for state in chunk])
        best = np.argsort(cond, axis=1, kind="stable")[:, :REFINE_STARTS]
        w, val = grid[best], np.take_along_axis(cond, best, axis=1)
        step = np.full(w.shape, phis[1])
        evals = np.full(len(chunk), grid.size)
        for _ in range(REFINE_ROUNDS):
            live = np.flatnonzero(step.max(axis=1) >= REFINE_STEP_TOL)
            if not live.size:
                break
            near = w[live, :, None] + step[live, :, None] * dw  # (live, starts, REFINE_N**2)
            local = _conditional_entropy(chunk[live], near.reshape(live.size, -1))
            local = local.reshape(near.shape)
            evals[live] += local[0].size
            pick = np.arange(live.size)[:, None], np.arange(REFINE_STARTS), local.argmin(axis=2)
            low = local[pick]
            # shrink only when the centre wins, so a start can follow a long valley
            moved = low < val[live]
            w[live] = np.where(moved, near[pick], w[live])
            val[live] = np.where(moved, low, val[live])
            step[live] = np.where(moved, step[live], 0.25 * step[live])
        pick = np.arange(len(chunk)), val.argmin(axis=1)
        found[:, lo:lo + len(chunk)] = val[pick], np.abs(w[pick]), np.angle(w[pick]), evals
    return found


def _x_state_search(rho):
    """(conditional entropy, theta, phi, evals) of one X-state, exact (module doc)."""
    phi = float(0.5 * (np.angle(rho[2, 1]) - np.angle(rho[0, 3])))
    thetas = np.linspace(0.0, 0.5 * np.pi, X_THETA_N)
    cond = _conditional_entropy(rho, thetas * np.exp(1j * phi))
    thetas = thetas.tolist()
    i = int(np.argmin(cond))
    best_val, best_theta = float(cond[i]), thetas[i]
    objective = _scalar_objective(rho)
    tried = []

    def gain(theta):  # golden_max maximizes: negate the entropy
        tried.append(theta)
        return -objective((theta, phi))
    theta, refined = golden_max(gain, thetas[max(i - 1, 0)], thetas[min(i + 1, X_THETA_N - 1)], 1e-10)
    if -refined < best_val:  # keep the grid value unless refinement lowers it
        best_val, best_theta = -refined, theta
    return best_val, best_theta, phi, X_THETA_N + len(tried)


def _routed_search(rho):
    """X-states of a (S, 4, 4) stack one by one, the rest as one stack."""
    x_state = np.max(np.abs(rho[:, _NON_X]), axis=1) <= X_STATE_TOL
    found = np.empty((4, len(rho)))
    for i in np.flatnonzero(x_state):
        found[:, i] = _x_state_search(rho[i])
    if not x_state.all():
        found[:, ~x_state] = _general_search(rho[~x_state])
    return found


def _discord(rho, search):
    """DiscordResult of a (..., 4, 4) stack measured on A.

    search maps a (S, 4, 4) stack to the (4, S) rows of `_general_search`.
    """
    stack = rho.reshape(-1, 4, 4)
    s_b = von_neumann_entropy(partial_trace(stack, "B"))
    mutual = von_neumann_entropy(partial_trace(stack, "A")) + s_b - von_neumann_entropy(stack)
    cond, theta, phi, evals = search(stack)
    classical = s_b - cond
    discord = mutual - classical
    discord[(-1e-9 < discord) & (discord < 0.0)] = 0.0
    theta = theta % (2.0 * np.pi)
    phi = phi % (2.0 * np.pi)
    fold = theta > np.pi  # fold the redundant half of the sphere back
    theta[fold] = 2.0 * np.pi - theta[fold]
    phi[fold] = (phi[fold] + np.pi) % (2.0 * np.pi)

    def shaped(x):
        return float(x[0]) if rho.ndim == 2 else x.reshape(rho.shape[:-2])
    return DiscordResult(
        discord=shaped(discord),
        classical_correlation=shaped(classical),
        mutual_information=shaped(mutual),
        optimal_direction=MeasurementDirection(theta=shaped(theta), phi=shaped(phi)),
        optimizer_evals=int(evals.sum()),
    )


def quantum_discord(rho, measure="A"):
    """Discord, classical correlation, and mutual information in bits.

    rho is one 4x4 state or a (..., 4, 4) stack; a stack gives arrays of
    that leading shape, and optimizer_evals is the total over it.
    measure "A" (default) projects on the first qubit, matching the
    definition used throughout; "B" is a diagnostic that projects on the
    second qubit instead.  X-states take the exact X-state search, all
    other states the general one (module doc).
    """
    rho = np.asarray(rho, dtype=complex)
    if measure == "B":
        r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
        rho = r.swapaxes(-4, -3).swapaxes(-2, -1).reshape(rho.shape)
    elif measure != "A":
        raise ValueError(f"measure must be 'A' or 'B', got {measure!r}")
    return _discord(rho, _routed_search)
