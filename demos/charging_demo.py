"""Cyclic charging of the thermal state as a quantum battery.

The charger exp(-i Omega t (sx x 1 + 1 x sx)) drives the Gibbs state;
ergotropy, average power, efficiency and the two capacity notions are
read off along one period.  Also checks the closed-form ergotropy
expression against the trace formula.
"""

import numpy as np

from dipolarqb import (
    ModelParams,
    TimeGrid,
    capacity,
    charge_trajectory,
    ergotropy_closed_form,
    gibbs_numeric,
    orbit_peaks,
    work_and_power,
)

p = ModelParams(delta=1.0, epsilon=0.5, temperature=1.0, omega=1.0)
zeta = gibbs_numeric(p)

grid = TimeGrid(0.0, np.pi / p.omega, 1e-3)
times, states = charge_trajectory(p, zeta, grid, n_samples=9)

series = work_and_power(states, times, p)
print("Omega*t   ergotropy   power_avg  efficiency")
for t, xi, pavg, eff in zip(times, series["ergotropy"], series["power_avg"], series["efficiency"]):
    print(f"{p.omega * t:7.4f}  {xi:10.6f}  {pavg:9.6f}  {eff:9.6f}")

cap = capacity(p)
print("\ncapacity (basis)  :", cap.capacity_basis)
print("capacity (unitary):", cap.capacity_unitary)
print("closed-form       :", cap.closed_form)

# closed form vs trace formula at a few angles
ts = np.array([0.3, np.pi / 4, 1.1, 2.0])
closed = ergotropy_closed_form(p, ts)
_, sampled = charge_trajectory(p, zeta, TimeGrid(0.0, 2.0, 1e-3), n_samples=3)
print("\nclosed-form ergotropy:", np.round(closed, 10))

peaks = orbit_peaks(p)
print("\npeak ergotropy", peaks.ergotropy_max, "at Omega*t =", peaks.ergotropy_peak_at)
print("expected peak angle pi/4 =", np.pi / 4)

print("\nergotropy column head:", np.round(series["ergotropy"][:4], 8))
