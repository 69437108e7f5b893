"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything downstream works with plain numpy arrays of complex128.  The
helpers here add the validation semantics the rest of the package relies
on: Hermiticity checks that report the worst offending entry, an
eigendecomposition with deterministic ordering and degenerate-subspace
re-orthonormalization, a matrix exponential that routes Hermitian and
anti-Hermitian inputs through their eigenbasis, partial traces, the
von Neumann entropy in bits, and the one 1-D refiner (golden section).

Entropy eigenvalues in [-1e-10, 0) are treated as round-off and clipped
to zero; anything more negative is rejected as a genuinely invalid
state rather than silently floored.
"""

import math

import numpy as np

HERM_TOL = 1e-10
DEGENERACY_TOL = 1e-10
CLIP_TOL = 1e-10


def hermiticity_defect(m):
    """Return max_ij |m[i,j] - conj(m[j,i])|."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m, tol=HERM_TOL, name="matrix"):
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| entry = {defect:.3e}")


class SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian matrix.

    Attributes
    ----------
    values : ndarray of real eigenvalues, sorted per `order`.
    vectors : complex ndarray whose columns are the eigenvectors,
        vectors[:, k] belonging to values[k].
    order : "ascending" or "descending".
    """

    def __init__(self, values, vectors, order):
        self.values = np.asarray(values, dtype=float)
        self.vectors = np.asarray(vectors, dtype=complex)
        self.order = order

    def reconstruct(self):
        """Sum_k values[k] |v_k><v_k|."""
        return (self.vectors * self.values) @ self.vectors.conj().T

    def __iter__(self):
        return iter((self.values, self.vectors))


def _gram_schmidt_in_place(block):
    # re-orthonormalize the columns of a degenerate eigenspace in index order
    for j in range(block.shape[1]):
        v = block[:, j]
        for k in range(j):
            v = v - (block[:, k].conj() @ v) * block[:, k]
        block[:, j] = v / np.linalg.norm(v)
    return block


def hermitian_eigen(m, order="ascending"):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Eigenvalues equal within 1e-10 are grouped and their eigenvectors
    re-orthonormalized by Gram-Schmidt in index order, so degenerate
    subspaces come out the same on every run.

    Parameters
    ----------
    m : square complex array, Hermitian within 1e-10.
    order : "ascending" (default) or "descending".

    Returns
    -------
    SpectralDecomposition
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"unknown sort order {order!r}")
    m = np.asarray(m, dtype=complex)
    require_hermitian(m)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    # eigh returns ascending order already; group near-equal values
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[i]) <= DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            v[:, i:j] = _gram_schmidt_in_place(v[:, i:j])
        i = j
    if order == "descending":
        w = w[::-1].copy()
        v = v[:, ::-1].copy()
    return SpectralDecomposition(w, v, order)


def matrix_exp(m):
    """exp(M) for a dense complex matrix.

    Hermitian input goes through its eigenbasis; anti-Hermitian input
    (M = -iH with H Hermitian, the unitary-propagator case) through the
    eigenbasis of iM.  Anything else falls back to scaling-and-squaring.
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
    from scipy.linalg import expm  # imported here: only this branch needs scipy

    return expm(m)


def partial_trace(rho, keep="A"):
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : 4x4 array in the product basis |00>,|01>,|10>,|11>.
    keep : "A" keeps the first tensor factor, "B" the second.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", r)
    if keep == "B":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def von_neumann_entropy(rho):
    """S(rho) = -Tr[rho log2 rho] in bits.

    Requires unit trace within 1e-8 and eigenvalues >= -1e-10; small
    negative eigenvalues are clipped to zero, larger ones raise.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, name="density matrix")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-8")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -CLIP_TOL:
        raise ValueError(f"density matrix has eigenvalue {w.min():.3e} below -1e-10")
    w = np.clip(w, 0.0, None)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy_2x2(a, d, b):
    """Entropy in bits of the 2x2 Hermitian matrix [[a, b], [conj(b), d]].

    Closed-form eigenvalues avoid an eigensolver call in the discord
    optimizer's inner loop.  a, d real; negative round-off clipped.
    """
    half = 0.5 * (a + d)
    gap = np.sqrt(max(0.25 * (a - d) ** 2 + abs(b) ** 2, 0.0))
    out = 0.0
    for lam in (half + gap, half - gap):
        if lam > 0.0:
            out -= lam * np.log2(lam)
    return out


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
