"""Seeded invocation streams for the three benchmark workloads.

Invocation ``i`` of a run with seed ``s`` is drawn from its own generator,
seeded with ``(s, i)``, so the runner and the output gate rebuild the same
case from its index alone.  Every case has the shape of a bundled config;
the couplings are log-uniform in [0.1, 10] and temperatures uniform in
[0.5, 4], the ranges the bundled configs cover.
"""

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dephasing", "charge_discord", "grid2d")
COUPLINGS = ("delta", "epsilon", "dm", "ksea", "field")
TEMPERATURE_RANGE = (0.5, 4.0)

# dephasing_*.cfg: one trajectory from |00>
DEPHASING = {"gamma": 0.2, "t1": 10.0, "dt": 1e-3, "samples": 201}
# charge_*.cfg: one charging period at the bundled sample count
CHARGE_SAMPLES = 501
# grid_*.cfg: the four bundled axis pairs at the bundled 21 x 21 size
GRID_PAIRS = (
    (("delta", -3.0, 3.0), ("dm", -3.0, 3.0)),
    (("delta", -3.0, 3.0), ("epsilon", -3.0, 3.0)),
    (("delta", -3.0, 3.0), ("ksea", -3.0, 3.0)),
    (("field", 0.0, 2.0), ("temperature", 0.5, 4.0)),
)
GRID_N = 21


@dataclass(frozen=True)
class Case:
    """One generated invocation: its CLI argv (without --out) and inputs.

    params holds the ModelParams keywords the argv sets; the CLI default
    applies to every other one.  axes is ((name, lo, hi, count), ...) for
    grid2d and empty otherwise.
    """

    workload: str
    index: int
    argv: tuple
    params: dict
    axes: tuple = ()

    def argv_with_out(self, out_path):
        return list(self.argv) + ["--out", out_path]


def _log_uniform(rng):
    return float(10.0 ** rng.uniform(-1.0, 1.0))


def make_case(workload, seed, index):
    """The index-th invocation of the workload's stream for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, index])
    params = {k: _log_uniform(rng) for k in COUPLINGS}
    axes = ()
    if workload == "dephasing":
        scenario = "dephasing"
        params["gamma"] = DEPHASING["gamma"]
        extra = ["--t1", repr(DEPHASING["t1"]), "--dt", repr(DEPHASING["dt"]),
                 "--samples", str(DEPHASING["samples"])]
    elif workload == "charge_discord":
        scenario = "charge"
        params["temperature"] = float(rng.uniform(*TEMPERATURE_RANGE))
        extra = ["--samples", str(CHARGE_SAMPLES), "--with-discord"]
    else:
        scenario = "grid2d"
        params["temperature"] = float(rng.uniform(*TEMPERATURE_RANGE))
        pair = GRID_PAIRS[int(rng.integers(len(GRID_PAIRS)))]
        axes = tuple((name, lo, hi, GRID_N) for name, lo, hi in pair)
        for name, *_ in axes:
            params.pop(name)
        extra = []
        for flag, (name, lo, hi, n) in zip(("--sweep", "--sweep2"), axes):
            extra += [flag, f"{name}:{lo!r}:{hi!r}:{n}"]
    argv = [scenario]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    argv += extra + ["--jobs", "1"]
    return Case(workload, index, tuple(argv), params, axes)
