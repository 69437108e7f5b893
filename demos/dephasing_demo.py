"""Dephasing dynamics under local sigma_x collapse operators.

Starts from |00><00| and integrates the Lindblad equation, printing the
resource measures on a coarse sample of the trajectory.  With gamma = 0
the evolution is unitary and the spectrum of rho is frozen.
"""

import numpy as np

from dipolarqb import (
    ModelParams,
    TimeGrid,
    concurrence,
    evolve_lindblad,
    l1_coherence,
    quantum_discord,
)
from dipolarqb.oracles import is_valid_state

rho0 = np.zeros((4, 4), dtype=complex)
rho0[0, 0] = 1.0

p = ModelParams(delta=1.0, epsilon=0.5, field=1.0, gamma=0.2)
grid = TimeGrid(0.0, 5.0, 1e-3)
times, states = evolve_lindblad(p, rho0, grid, n_samples=11)

print("t     coherence  concurrence  discord   valid")
for t, rho in zip(times, states):
    print(f"{t:4.1f}  {l1_coherence(rho):9.5f}  {concurrence(rho):11.5f}"
          f"  {quantum_discord(rho).discord:8.5f}  {is_valid_state(rho)}")

# gamma = 0 sanity: purity stays 1
p0 = p.replace(gamma=0.0)
_, unitary_states = evolve_lindblad(p0, rho0, grid, n_samples=6)
purities = [np.trace(r @ r).real for r in unitary_states]
print("\npurity along the gamma=0 trajectory:", np.round(purities, 12))
