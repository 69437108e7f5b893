"""Cyclic charging of the thermal state as a quantum battery.

The charger exp(-i Omega t (sx x 1 + 1 x sx)) drives the Gibbs state;
ergotropy, average power, efficiency and the two capacity notions are
read off along one period.  Also checks the closed-form ergotropy
expression against the trace formula, and exits 1 if they disagree by
more than 1e-12.
"""

import sys

import numpy as np

from dipolarqb import (
    ModelParams,
    capacity,
    charge_trajectory,
    ergotropy_closed_form,
    gibbs_numeric,
    orbit_peaks,
    work_and_power,
)
from dipolarqb.dynamics import charged_state
from dipolarqb.oracles import capacity_closed_form

p = ModelParams(delta=1.0, epsilon=0.5, temperature=1.0, omega=1.0)
zeta = gibbs_numeric(p)

times, states = charge_trajectory(p, zeta, 0.0, np.pi / p.omega, n_samples=9)

series = work_and_power(states, times, p)
print("Omega*t   ergotropy   power_avg  efficiency")
for t, xi, pavg, eff in zip(times, series["ergotropy"], series["power_avg"], series["efficiency"]):
    print(f"{p.omega * t:7.4f}  {xi:10.6f}  {pavg:9.6f}  {eff:9.6f}")

cap = capacity(p)
print("\ncapacity (basis)  :", cap.capacity_basis)
print("capacity (unitary):", cap.capacity_unitary)
print("closed-form       :", capacity_closed_form(p))

# closed form vs trace formula at a few angles
ts = np.array([0.3, np.pi / 4, 1.1, 2.0])
closed = ergotropy_closed_form(p, ts)
traced = work_and_power(charged_state(p, zeta, ts), ts, p)["ergotropy"]
deviation = float(np.max(np.abs(closed - traced)))
print("\nclosed-form ergotropy:", np.round(closed, 10))
print("trace-formula       :", np.round(traced, 10))
print(f"largest deviation    : {deviation:.3e}")

peaks = orbit_peaks(p)
print("\npeak ergotropy", peaks.ergotropy_max, "at Omega*t =", peaks.ergotropy_peak_at)
print("expected peak angle pi/4 =", np.pi / 4)

print("\nergotropy column head:", np.round(series["ergotropy"][:4], 8))

if deviation > 1e-12:
    sys.exit(f"closed-form ergotropy deviates from the trace formula by {deviation:.3e}")
