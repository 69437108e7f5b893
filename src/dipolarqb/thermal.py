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

The eigensystem diagnostics (`gibbs_spectrum`) live in `oracles`.
"""

import math
from typing import NamedTuple

import numpy as np

from .model import build_hamiltonian


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


class _ThermalTerms(NamedTuple):
    """Exponent-shifted building blocks shared by every thermal closed form.

    With W = exp(4 delta/(3T)), S = 2 kappa1/(3T), J = 2 kappa2/T and m
    the largest of a = (log W + S, log W - S, J, -J), every quantity
    carries the factor e^{-m}, which cancels in each ratio.
    """

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
    return _ThermalTerms(e, e1 + e2 + e3 + e4, 0.5 * (e1 + e2), 0.5 * (e3 + e4),
                         ws_over_k1, sinhj_over_k2)


def gibbs_closed_form(p):
    """The analytic Gibbs state as a 4x4 matrix, overflow-safe for any T > 0."""
    t = _thermal_terms(p)
    b_ratio = p.field * t.sinhj_over_k2
    z11 = (t.cosh_j - b_ratio) / t.twod0
    z44 = (t.cosh_j + b_ratio) / t.twod0
    z22 = t.w_cosh_s / t.twod0
    z14 = 1j * (p.ksea + 1j * p.epsilon) * t.sinhj_over_k2 / t.twod0
    z23 = (p.delta - 3j * p.dm) * t.ws_over_k1 / t.twod0
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[3, 3] = z11, z44
    m[1, 1] = m[2, 2] = z22
    m[0, 3], m[3, 0] = z14, np.conj(z14)
    m[1, 2], m[2, 1] = z23, np.conj(z23)
    return m
