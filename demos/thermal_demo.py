"""Thermal (Gibbs) state: closed form vs numeric, and how the
equilibrium quantum resources decay with temperature."""

import numpy as np

from dipolarqb import (
    ModelParams,
    concurrence,
    gibbs_closed_form,
    gibbs_numeric,
    l1_coherence,
    quantum_discord,
)

p = ModelParams(delta=1.0, epsilon=0.5, dm=0.2, ksea=0.1, field=0.3, temperature=0.8)

closed = gibbs_closed_form(p)
numeric = gibbs_numeric(p)
print("max |closed - numeric| =", np.max(np.abs(closed - numeric)))
print("trace =", np.trace(closed).real)

print("\nT      coherence  concurrence  discord")
for t in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
    z = gibbs_numeric(p.replace(temperature=t))
    c = l1_coherence(z)
    e = concurrence(z)
    d = quantum_discord(z).discord
    print(f"{t:5.1f}  {c:9.5f}  {e:11.5f}  {d:7.5f}")

# very cold: the state approaches the ground-state projector
cold = gibbs_numeric(p.replace(temperature=0.05))
evals = np.linalg.eigvalsh(cold)
print("\npopulations at T = 0.05:", np.round(evals, 6))
