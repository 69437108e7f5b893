"""Two-qubit dipolar-spin battery model.

The working Hamiltonian couples two spins through an antisymmetric
exchange term of strength D, a symmetric exchange term of strength G, a
traceless dipolar tensor P = diag(delta - 3*eps, delta + 3*eps,
-2*delta), and a uniform Zeeman field B along z:

    H = D (sx x sy - sy x sx) + G (sx x sy + sy x sx)
        - (1/3) [ (delta - 3 eps) sx x sx + (delta + 3 eps) sy x sy
                  - 2 delta sz x sz ]
        + B (sz x 1 + 1 x sz)

in the computational basis |00>, |01>, |10>, |11> with sz|0> = +|0>.
Everything is dimensionless; the Boltzmann constant is 1.

The spectrum has a closed form in the two invariants

    kappa1 = sqrt(9 D^2 + delta^2),   kappa2 = sqrt(B^2 + G^2 + eps^2):

    nu1 = -2 (delta + kappa1) / 3     on the {|01>, |10>} block,
    nu2 =  2 (-delta + kappa1) / 3,
    nu3 =  2 (delta - 3 kappa2) / 3   on the {|00>, |11>} block,
    nu4 =  2 (delta + 3 kappa2) / 3,

with eigenvectors parameterized by eta = (3iD - delta)/kappa1 (a unit
complex number) and delta_k = i(-(+/-)B + kappa2)/(G - i eps).

Charging applies a transverse field of strength omega on both spins,
H_ch = omega (sx x 1 + 1 x sx).  Its two terms commute, so the
propagator is exp(-i omega t sx) on each spin:

    exp(-i H_ch t) = cos^2(wt) 1 - sin^2(wt) sx x sx
                     - (i/2) sin(2wt) (sx x 1 + 1 x sx),   w = omega.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
_X_SUM = np.kron(SIGMA_X, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_X)
# which closed-form coefficient each entry of exp(-i H_ch t) holds:
# 0 where 1 is nonzero, 1 where sx x sx is, 2 where sx x 1 + 1 x sx is
_CHARGER_PATTERN = np.array([[0, 2, 2, 1], [2, 0, 1, 2], [2, 1, 0, 2], [1, 2, 2, 0]])

# limit below which the closed-form eigenvector parameters are treated
# as degenerate 0/0 expressions and replaced by their limiting bases
DEGENERATE_EPS = 1e-14


@dataclass
class ModelParams:
    """Physical parameters of one battery configuration.

    delta, epsilon : axial and rhombic anisotropies of the dipolar tensor
    dm, ksea       : antisymmetric (D) and symmetric (G) exchange strengths
    field          : Zeeman strength B
    temperature    : bath temperature T > 0 (k_B = 1)
    omega          : charging-field strength
    gamma          : dephasing rate of the sigma-x collapse channels, >= 0
    """

    delta: float = 0.0
    epsilon: float = 0.0
    dm: float = 0.0
    ksea: float = 0.0
    field: float = 0.0
    temperature: float = 1.0
    omega: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value!r}")
            setattr(self, name, value)
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma!r}")

    def replace(self, **kw):
        d = asdict(self)
        d.update(kw)
        return ModelParams(**d)

    def kappa1(self):
        return math.hypot(3.0 * self.dm, self.delta)

    def kappa2(self):
        return math.sqrt(self.field**2 + self.ksea**2 + self.epsilon**2)


def build_hamiltonian(p):
    """Assemble the 4x4 battery Hamiltonian for parameters `p`."""
    d, e = p.delta, p.epsilon
    h = p.dm * (np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X))
    h += p.ksea * (np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X))
    h -= (1.0 / 3.0) * (
        (d - 3.0 * e) * np.kron(SIGMA_X, SIGMA_X)
        + (d + 3.0 * e) * np.kron(SIGMA_Y, SIGMA_Y)
        - 2.0 * d * np.kron(SIGMA_Z, SIGMA_Z)
    )
    h += p.field * (np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z))
    return h


@dataclass
class ClosedFormSpectrum:
    """Closed-form eigensystem: nu[k] pairs with eigvecs[:, k]."""

    nu: np.ndarray
    kappa1: float
    kappa2: float
    eigvecs: np.ndarray


def closed_form_spectrum(p):
    """Closed-form eigenvalues and eigenvectors of the battery Hamiltonian.

    Eigenvalue order is (nu1, nu2, nu3, nu4) as listed in the module
    docstring, not sorted by magnitude.  Degenerate parameter corners
    (kappa1 = 0, or G = eps = 0) switch to the limiting eigenbases
    (|01> +/- |10>)/sqrt(2) and {|00>, |11>}.
    """
    k1 = p.kappa1()
    k2 = p.kappa2()
    d, e, D, G, B = p.delta, p.epsilon, p.dm, p.ksea, p.field
    nu = np.array(
        [
            -2.0 * (d + k1) / 3.0,
            2.0 * (-d + k1) / 3.0,
            2.0 * (d - 3.0 * k2) / 3.0,
            2.0 * (d + 3.0 * k2) / 3.0,
        ]
    )
    vecs = np.zeros((4, 4), dtype=complex)
    if k1 > DEGENERATE_EPS:
        eta = (3.0j * D - d) / k1
        q = 1.0 / math.sqrt(2.0)
        vecs[1, 0], vecs[2, 0] = q * eta, -q  # nu1
        vecs[1, 1], vecs[2, 1] = q * eta, q  # nu2
    else:
        q = 1.0 / math.sqrt(2.0)
        vecs[1, 0], vecs[2, 0] = q, -q
        vecs[1, 1], vecs[2, 1] = q, q
    if abs(G) > DEGENERATE_EPS or abs(e) > DEGENERATE_EPS:
        # same rays as (delta_k, 1)/sqrt(1+|delta_k|^2) but scale-free,
        # so a tiny G - i*eps denominator cannot overflow
        denom = G - 1.0j * e
        top1 = 1.0j * (-B + k2)  # delta_1 * denom
        top2 = -1.0j * (B + k2)  # delta_2 * denom
        n1 = math.hypot(abs(top1), abs(denom))
        n2 = math.hypot(abs(top2), abs(denom))
        vecs[0, 2], vecs[3, 2] = top1 / n1, denom / n1  # nu3
        vecs[0, 3], vecs[3, 3] = top2 / n2, denom / n2  # nu4
    else:
        # G = eps = 0: the {|00>, |11>} block is diagonal with entries
        # 2 delta/3 +/- 2B; pair each basis state with its own energy
        if B >= 0.0:
            vecs[3, 2] = 1.0  # |11> at 2d/3 - 2B = nu3
            vecs[0, 3] = 1.0  # |00> at 2d/3 + 2B = nu4
        else:
            vecs[0, 2] = 1.0
            vecs[3, 3] = 1.0
    return ClosedFormSpectrum(nu, k1, k2, vecs)


def charging_hamiltonian(p):
    """H_ch = omega (sx x 1 + 1 x sx); eigenvalues {-2w, 0, 0, 2w}."""
    return p.omega * _X_SUM


def charging_unitary(p, t):
    """Propagator exp(-i H_ch t) in closed form (module docstring).

    An array of times gives a (..., 4, 4) stack; the result is unitary
    to round-off and matches `oracles.charging_unitary_exact`.
    """
    wt = p.omega * np.asarray(t, dtype=float)
    coef = np.stack([np.cos(wt) ** 2, -np.sin(wt) ** 2, -0.5j * np.sin(2.0 * wt)], axis=-1)
    return coef[..., _CHARGER_PATTERN]
