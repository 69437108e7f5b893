"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything downstream works with plain numpy arrays of complex128.  The
helpers here add the validation semantics the rest of the package relies
on: Hermiticity checks that report the worst offending entry, an
eigendecomposition with deterministic ordering that returns
(values, vectors) as numpy's eigh does, partial traces, the von Neumann
entropy in bits, and the one 1-D refiner (golden section).  The
Hermiticity defect, partial traces and entropies also take (..., n, n)
stacks.

Entropy eigenvalues in [-1e-10, 0) are treated as round-off and clipped
to zero; anything more negative is rejected as a genuinely invalid
state rather than silently floored.
"""

import math

import numpy as np

HERM_TOL = 1e-10
CLIP_TOL = 1e-10


def hermiticity_defect(m):
    """Return max_ij |m[i,j] - conj(m[j,i])|, the largest over a stack."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def require_hermitian(m, tol=HERM_TOL, name="matrix"):
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| entry = {defect:.3e}")


def hermitian_eigen(m, order="ascending"):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    numpy's eigh (LAPACK zheevd) returns orthonormal eigenvectors, also
    in degenerate subspaces, and the same ones on every run.

    Parameters
    ----------
    m : square complex array, Hermitian within 1e-10.
    order : "ascending" (default) or "descending".

    Returns
    -------
    (values, vectors) as numpy's eigh gives them: real eigenvalues sorted
    per `order`, and a complex matrix whose column vectors[:, k] belongs
    to values[k].
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown sort order {order!r}")
    m = np.asarray(m, dtype=complex)
    require_hermitian(m)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))  # ascending
    if order == "descending":
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
    return w, v


def partial_trace(rho, keep="A"):
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : 4x4 array in the product basis |00>,|01>,|10>,|11>, or a
        (..., 4, 4) stack of them.
    keep : "A" keeps the first tensor factor, "B" the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "A":
        return np.einsum("...ikjk->...ij", r)
    if keep == "B":
        return np.einsum("...kikj->...ij", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def von_neumann_entropy(rho):
    """S(rho) = -Tr[rho log2 rho] in bits.

    Requires unit trace within 1e-8 and eigenvalues >= -1e-10; small
    negative eigenvalues are clipped to zero, larger ones raise.  A
    (..., n, n) stack gives an array of the per-state values.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, name="density matrix")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    worst = float(tr.flat[np.argmax(np.abs(tr - 1.0))])
    if abs(worst - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {worst!r} deviates from 1 beyond 1e-8")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -CLIP_TOL:
        raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below -1e-10")
    w = np.clip(w, 0.0, None)
    out = -np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=-1)
    return float(out) if out.ndim == 0 else out


def golden_max(f, lo, hi, tol):
    """Golden-section maximization on [lo, hi]; deterministic."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)
