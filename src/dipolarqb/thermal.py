"""Thermal (Gibbs) state of the battery Hamiltonian.

Two independent routes build the same state:

* `gibbs_numeric` exponentiates -H/T through the eigenbasis with a
  max-eigenvalue shift, so Boltzmann weights are evaluated as
  exp(-(nu_s - nu_min)/T) and never overflow.  This is the
  authoritative state used by every downstream computation.

* `gibbs_closed_form` evaluates the analytic X-state entries in the
  scaled variables J = 2 kappa2 / T and S = 2 kappa1 / (3T):

      z11 = [cosh J - (B/kappa2) sinh J] / (2 D0)
      z14 = i (G + i eps) sinh J / (2 kappa2 D0)
      z22 = W cosh S / (2 D0)
      z23 = W (delta - 3iD) sinh S / (2 kappa1 D0)
      z44 = [cosh J + (B/kappa2) sinh J] / (2 D0)

  with W = exp(4 delta / (3T)) and D0 = W cosh S + cosh J.  All
  hyperbolic/exponential products are evaluated with a common exponent
  shift so small T cannot overflow, and kappa -> 0 corners go through
  sinh(x)/x series branches.  This route exists purely as a
  cross-validation oracle for the numeric one.

`gibbs_spectrum` reports the numeric eigensystem of the state together
with diagnostics comparing it against the analytic eigenvalue set
(Boltzmann weights in disguise) and against two candidate values of the
analytic eigenvector parameter for the {|00>,|11>} branch, only one of
which agrees with the Hamiltonian eigenbasis; see
`GibbsSpectrumDiagnostics`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import SpectralDecomposition, hermitian_eigen
from .model import build_hamiltonian, closed_form_spectrum


def _sinhc(x):
    """sinh(x)/x with a series branch near zero."""
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def gibbs_numeric(p):
    """exp(-H/T) / Z via eigendecomposition with overflow shift."""
    if p.temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {p.temperature!r}")
    h = build_hamiltonian(p)
    w, v = np.linalg.eigh(h)
    weights = np.exp(-(w - w.min()) / p.temperature)
    rho = (v * weights) @ v.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


@dataclass
class GibbsClosedForm:
    """Analytic X-state entries plus the scaled arguments they used."""

    z11: float
    z14: complex
    z22: float
    z23: complex
    z44: float
    j_arg: float
    s_arg: float

    def matrix(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = self.z11
        m[1, 1] = m[2, 2] = self.z22
        m[3, 3] = self.z44
        m[0, 3] = self.z14
        m[3, 0] = np.conj(self.z14)
        m[1, 2] = self.z23
        m[2, 1] = np.conj(self.z23)
        return m


class _ThermalTerms(NamedTuple):
    """Exponent-shifted building blocks shared by every thermal closed form.

    With W = exp(4 delta/(3T)), S = 2 kappa1/(3T), J = 2 kappa2/T and m
    the largest of a = (log W + S, log W - S, J, -J), every quantity but
    the arguments carries the factor e^{-m}, which cancels in each ratio.
    """

    j_arg: float
    s_arg: float
    e: tuple  # exp(a - m): W e^S, W e^-S, e^J, e^-J
    twod0: float  # 2 D0 = 2 (W cosh S + cosh J)
    w_cosh_s: float
    cosh_j: float
    ws_over_k1: float  # W sinh(S) / kappa1
    sinhj_over_k2: float  # sinh(J) / kappa2


def _thermal_terms(p):
    """Shifted exponentials of the Gibbs closed forms, finite for any T > 0.

    The sinh/kappa ratios go through sinh(x)/x series branches for small
    arguments, so the kappa -> 0 corners are exact rather than 0/0.
    """
    if p.temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {p.temperature!r}")
    T = p.temperature
    k1, k2 = p.kappa1(), p.kappa2()
    J = 2.0 * k2 / T
    S = 2.0 * k1 / (3.0 * T)
    w_arg = 4.0 * p.delta / (3.0 * T)
    a = (w_arg + S, w_arg - S, J, -J)
    m = max(a)
    e1, e2, e3, e4 = e = tuple(math.exp(x - m) for x in a)
    if J < 1e-6:
        sinhj_over_k2 = (2.0 / T) * _sinhc(J) * math.exp(-m)
    else:
        sinhj_over_k2 = 0.5 * (e3 - e4) / k2
    if S < 1e-6:
        ws_over_k1 = (2.0 / (3.0 * T)) * _sinhc(S) * math.exp(w_arg - m)
    else:
        ws_over_k1 = 0.5 * (e1 - e2) / k1
    return _ThermalTerms(J, S, e, e1 + e2 + e3 + e4, 0.5 * (e1 + e2), 0.5 * (e3 + e4),
                         ws_over_k1, sinhj_over_k2)


def gibbs_closed_form(p):
    """Analytic Gibbs entries, overflow-safe for any T > 0."""
    t = _thermal_terms(p)
    b_ratio = p.field * t.sinhj_over_k2
    z11 = (t.cosh_j - b_ratio) / t.twod0
    z44 = (t.cosh_j + b_ratio) / t.twod0
    z22 = t.w_cosh_s / t.twod0
    z14 = 1j * (p.ksea + 1j * p.epsilon) * t.sinhj_over_k2 / t.twod0
    z23 = (p.delta - 3j * p.dm) * t.ws_over_k1 / t.twod0
    return GibbsClosedForm(z11=float(z11), z14=complex(z14), z22=float(z22), z23=complex(z23), z44=float(z44), j_arg=t.j_arg, s_arg=t.s_arg)


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

    Returns a SpectralDecomposition whose `diagnostics` attribute holds a
    GibbsSpectrumDiagnostics record.
    """
    rho = gibbs_numeric(p)
    dec = hermitian_eigen(rho, order="descending")
    phi = _closed_form_phis(p)
    phi_dev = float(np.max(np.abs(np.sort(dec.values)[::-1] - phi)))

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
                overlap = max(abs(np.vdot(dec.vectors[:, k], cand)) for k in range(4))
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
    dec.diagnostics = diag
    return dec
