"""Closed-form spectrum of the two-qubit dipolar Hamiltonian.

Builds H for a few parameter sets and checks the analytic eigenvalues
and eigenvectors against a dense numerical diagonalization.
"""

import numpy as np

from dipolarqb import ModelParams, build_hamiltonian, closed_form_spectrum, hermitian_eigen

np.set_printoptions(precision=6, suppress=True, linewidth=120)

p = ModelParams(delta=1.0, epsilon=0.5, dm=0.3, ksea=0.2, field=0.7)
h = build_hamiltonian(p)
print("H =")
print(h)
print("traceless:", abs(np.trace(h)) < 1e-12)

spec = closed_form_spectrum(p)
print("\nclosed-form levels:", np.sort(spec.nu))
print("numeric levels:    ", hermitian_eigen(h)[0])

# eigenvector residuals ||H v - nu v||
for nu, v in zip(spec.nu, spec.eigvecs.T):
    res = np.linalg.norm(h @ v - nu * v)
    print(f"  nu = {nu:+.6f}   residual = {res:.2e}")

# the two interaction strengths enter only through kappa1 and kappa2,
# so swapping (delta, dm) pairs with equal kappa1 leaves the (01,10)
# block's levels unchanged
q = ModelParams(delta=np.hypot(3 * 0.3, 1.0), epsilon=0.5, dm=0.0, ksea=0.2, field=0.7)
print("\nkappa1 preserved:", np.isclose(p.kappa1(), q.kappa1()))
print("nu1, nu2 depend on delta directly though:",
      np.sort(closed_form_spectrum(q).nu)[:2], "vs", np.sort(spec.nu)[:2])
