"""Command-line driver: scenario execution, sweeps, CSV and plot output.

scenario       run keys it takes                         what it writes
spectrum       (none)                                    eigenvalues, closed vs numeric
gibbs          (none)                                    Gibbs entries, closed vs numeric
dephasing      t0 t1 dt samples sweep outputs            measures vs t under dephasing
thermal-sweep  sweep outputs                             Gibbs-state measures vs T
charge         t0 t1 samples sweep outputs with_discord  battery metrics vs Omega*t
grid2d         sweep sweep2                              orbit peaks over a 2-D grid

Every scenario also takes the eight model parameters and ``out``; a run
key the scenario does not take is a configuration error.  A time study
writes exactly ``samples`` uniform rows from t0 to t1; dt bounds the RK4
step.  Configs are flat ``key = value`` text files and every key has a
matching CLI flag.  File and flag values are merged as text, flags
winning, and parsed once, so a flag also overrides a file value that
would not parse.  Sweep axes are compact specs
``name:min:max:count[:log]`` over the model parameters, with finite
bounds and at most MAX_POINTS points over all axes.
``run_scenario`` expands the axes into parameter points and maps the
scenario's row function, which returns the CSV rows of one point, over
them.  spectrum, gibbs, dephasing and charge write one CSV per point (one
CSV when nothing is swept); thermal-sweep and grid2d write one CSV whose
rows lead with the axis values.  CSV output uses 17 significant digits,
comma separators, and LF endings so repeated runs are byte-identical.
``--emit-plot`` writes a gnuplot script next to each CSV; scripts
reference the CSV, never embed data.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .battery import capacity, orbit_peaks, work_and_power
from .dynamics import TimeGrid, charge_trajectory, check_span, evolve_lindblad
from .linalg import hermitian_eigen
from .model import ModelParams, build_hamiltonian, closed_form_spectrum
from .resources import concurrence, l1_coherence, quantum_discord
from .thermal import gibbs_closed_form, gibbs_numeric

PARAM_KEYS = ("delta", "epsilon", "dm", "ksea", "field", "temperature", "omega", "gamma")
# a run holds (samples, 4, 4) complex stacks, 256 bytes a sample: 1e8 would
# be 25 GB a stack, 1e5 (200x the largest bundled value) is 25 MB
MAX_SAMPLES = 100_000
# a run builds a ModelParams per point and keeps every point's rows until
# it writes, so the axes' product is capped: 1e5 is 227x the bundled grids
MAX_POINTS = 100_000


class ConfigError(ValueError):
    """Bad configuration: unknown key, malformed value, missing input."""


@dataclass
class AxisSpec:
    """Swept parameter axis, parsed from name:min:max:count[:log]."""

    name: str
    lo: float
    hi: float
    count: int
    log: bool = False

    def __post_init__(self):
        if self.name not in PARAM_KEYS:
            raise ConfigError(
                f"unknown sweep parameter {self.name!r}; choose from {', '.join(PARAM_KEYS)}"
            )
        for bound, value in (("min", self.lo), ("max", self.hi)):
            if not math.isfinite(value):
                raise ConfigError(f"sweep {bound} must be finite, got {value!r}")
        if self.count < 2:
            raise ConfigError("sweep count must be at least 2")
        if not self.lo < self.hi:
            raise ConfigError("sweep requires min < max")
        if self.log and self.lo <= 0.0:
            raise ConfigError("log sweep requires min > 0")

    def values(self):
        if self.log:
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    def spec_string(self):
        base = f"{self.name}:{float(self.lo)!r}:{float(self.hi)!r}:{self.count}"
        return base + (":log" if self.log else "")


def parse_axis(spec):
    parts = spec.split(":")
    if len(parts) == 5 and parts[4] == "log":
        log = True
        parts = parts[:4]
    elif len(parts) == 4:
        log = False
    else:
        raise ConfigError(f"malformed sweep spec {spec!r}; want name:min:max:count[:log]")
    name = parts[0].strip()
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"malformed sweep spec {spec!r}: {exc}") from None
    return AxisSpec(name=name, lo=lo, hi=hi, count=count, log=log)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw):
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"want true/false, got {raw!r}")
    return _BOOL_WORDS[word]


def _parse_outputs(raw):
    return tuple(c.strip() for c in raw.split(",") if c.strip())


# run key -> (ScenarioConfig field, parser of its text value).  A field
# left at None is a key that was not set; resolved_* supply the defaults.
RUN_KEYS = {
    "t0": ("t0", float),
    "t1": ("t1", float),
    "dt": ("dt", float),
    "samples": ("samples", int),
    "sweep": ("sweep", parse_axis),
    "sweep2": ("second_axis", parse_axis),
    "outputs": ("outputs", _parse_outputs),
    "with_discord": ("with_discord", _parse_bool),
}
# every key a config file or a flag may set, besides scenario
FLAG_KEYS = PARAM_KEYS + tuple(RUN_KEYS) + ("out",)


def _as_text(value):
    """A run-key value as text its RUN_KEYS parser reads back unchanged."""
    if isinstance(value, AxisSpec):
        return value.spec_string()
    if isinstance(value, tuple):
        return ", ".join(value)
    # a numpy scalar's repr (np.float64(1.5)) does not parse back
    return repr(value.item() if isinstance(value, np.generic) else value)


@dataclass(frozen=True)
class Scenario:
    """What the CLI knows about one scenario.

    leading: CSV columns before the metrics; defaults: the metric columns
    written when outputs is unset; allowed: the columns outputs may name;
    keys: the RUN_KEYS it takes; samples: its default sample count;
    t1(p): its default end time at point p; axis: the axis swept when
    sweep is unset.  rows(cfg, p) returns the CSV rows of parameter point
    p: whole rows, one CSV per point, or, with axis_rows, the metrics
    only, gathered into one CSV whose rows lead with the axis values.
    """

    leading: tuple
    defaults: tuple
    rows: object
    keys: tuple = ()
    allowed: tuple = ()
    samples: int = None
    t1: object = None
    axis: AxisSpec = None
    axis_rows: bool = False


@dataclass
class ScenarioConfig:
    scenario: str
    params: ModelParams = field(default_factory=ModelParams)
    sweep: AxisSpec = None
    second_axis: AxisSpec = None
    outputs: tuple = None  # None means scenario default
    t0: float = None  # None: 0
    t1: float = None  # None: the scenario's t1(p)
    dt: float = None  # None: 1e-3
    samples: int = None
    out_path: str = None
    with_discord: bool = None

    def resolved_outputs(self):
        sc = SCENARIOS[self.scenario]
        cols = tuple(self.outputs if self.outputs is not None else sc.defaults)
        if self.with_discord and "discord" not in cols:
            cols += ("discord",)
        return cols

    def resolved_header(self):
        return SCENARIOS[self.scenario].leading + self.resolved_outputs()

    def resolved_span(self, p):
        t1 = SCENARIOS[self.scenario].t1(p) if self.t1 is None else self.t1
        return 0.0 if self.t0 is None else self.t0, t1

    def resolved_grid(self, p):
        return TimeGrid(*self.resolved_span(p), 1e-3 if self.dt is None else self.dt)

    def resolved_samples(self):
        return SCENARIOS[self.scenario].samples if self.samples is None else self.samples

    def resolved_out(self):
        return self.out_path if self.out_path else f"{self.scenario}.csv"


def validate_config(cfg):
    sc = SCENARIOS.get(cfg.scenario)
    if sc is None:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}; choose from {', '.join(SCENARIOS)}")
    unused = [key for key, (name, _) in RUN_KEYS.items()
              if getattr(cfg, name) is not None and key not in sc.keys]
    if unused:
        raise ConfigError(
            f"{cfg.scenario} does not take {', '.join(unused)}; "
            f"its run keys are: {', '.join(sc.keys) or 'none'}"
        )
    if cfg.scenario == "grid2d":
        if not (cfg.sweep and cfg.second_axis):
            raise ConfigError("grid2d requires both sweep and sweep2 axes")
        if cfg.sweep.name == cfg.second_axis.name:
            raise ConfigError("grid2d axes must sweep different parameters")
    if cfg.scenario == "thermal-sweep" and cfg.sweep and cfg.sweep.name != "temperature":
        raise ConfigError("thermal-sweep's sweep axis must be temperature")
    if cfg.outputs == ():
        raise ConfigError("outputs names no column")
    bad = [c for c in cfg.outputs or () if c not in sc.allowed]
    if bad:
        raise ConfigError(
            f"unknown outputs for {cfg.scenario}: {', '.join(bad)}; "
            f"allowed: {', '.join(sorted(sc.allowed))}"
        )
    repeated = [c for i, c in enumerate(cfg.outputs or ()) if c in cfg.outputs[:i]]
    if repeated:
        raise ConfigError(f"outputs names {', '.join(repeated)} more than once")
    if cfg.samples is not None and not 2 <= cfg.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must be at least 2 and at most {MAX_SAMPLES}")
    n_points = math.prod(a.count for a in (cfg.sweep, cfg.second_axis) if a is not None)
    if n_points > MAX_POINTS:
        raise ConfigError(f"the sweep axes give {n_points} points; at most {MAX_POINTS}")
    # every swept point must give valid parameters and, for the time
    # studies, valid sample times, not just the base point
    try:
        points = [cfg.params]
        for axis in (cfg.sweep, cfg.second_axis):
            if axis is not None:
                points += [cfg.params.replace(**{axis.name: float(v)}) for v in axis.values()]
        for p in points if "t1" in sc.keys else ():
            check_span(*cfg.resolved_span(p), cfg.resolved_samples())
            if "dt" in sc.keys:  # and the RK4 grid once refined for the samples
                cfg.resolved_grid(p).sampled(cfg.resolved_samples())
        if cfg.scenario == "grid2d" and any(p.omega == 0.0 for p in points):
            raise ValueError("grid2d with omega = 0 has no charging period pi/omega")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _read_values(text):
    """Flat key = value config text as a dict of raw text values."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def _config_from_values(values):
    """Parse and validate raw text values, keyed as in a config file."""
    if "scenario" not in values:
        raise ConfigError("config must set scenario")
    cfg = ScenarioConfig(scenario=values["scenario"])
    pkw = {}
    for key, raw in values.items():
        try:
            if key in PARAM_KEYS:
                pkw[key] = float(raw)
            elif key in RUN_KEYS:
                name, parse = RUN_KEYS[key]
                setattr(cfg, name, parse(raw))
            elif key == "out":
                cfg.out_path = raw
            elif key != "scenario":
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    try:
        cfg.params = ModelParams(**pkw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return validate_config(cfg)


def parse_config(text):
    """Parse flat key = value config text into a ScenarioConfig."""
    return _config_from_values(_read_values(text))


def serialize_config(cfg):
    """Config as flat text, run keys only where set; parse_config(serialize_config(c)) == c."""
    lines = [f"scenario = {cfg.scenario}"]
    for key in PARAM_KEYS:
        lines.append(f"{key} = {getattr(cfg.params, key)!r}")
    for key, (name, _) in RUN_KEYS.items():
        value = getattr(cfg, name)
        if value is not None:
            lines.append(f"{key} = {_as_text(value)}")
    if cfg.out_path is not None:
        lines.append(f"out = {cfg.out_path}")
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    """Write the CSV; a nan or inf value is a ValueError raised before the file opens."""
    lines = [",".join(header)]
    for i, row in enumerate(rows, start=1):
        values = [float(v) for v in row]
        for name, v in zip(header, values):
            if not math.isfinite(v):
                raise ValueError(f"column {name} holds {v} in data row {i}; no CSV written")
        lines.append(",".join(f"{v:.17g}" for v in values))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- metrics

_STATE_METRICS = {
    "concurrence": concurrence,
    "coherence": l1_coherence,
    "discord": lambda rho: quantum_discord(rho).discord,
}


def _spectrum_rows(cfg, p):
    numeric, _ = hermitian_eigen(build_hamiltonian(p))
    closed = np.sort(closed_form_spectrum(p).nu)
    return [[k + 1, closed[k], numeric[k], abs(closed[k] - numeric[k])] for k in range(4)]


def _gibbs_rows(cfg, p):
    closed, numeric = gibbs_closed_form(p), gibbs_numeric(p)
    return [[i, j, c.real, c.imag, n.real, n.imag, abs(c - n)]
            for (i, j), c, n in zip(np.ndindex(4, 4), closed.flat, numeric.flat)]


def _dephasing_rows(cfg, p):
    """One dephasing trajectory from |00><00|."""
    times, states = evolve_lindblad(p, np.diag([1.0, 0.0, 0.0, 0.0]), cfg.resolved_grid(p),
                                    n_samples=cfg.resolved_samples())
    outputs = cfg.resolved_outputs()
    return [[t] + [_STATE_METRICS[name](rho) for name in outputs]
            for t, rho in zip(times, states)]


def _thermal_rows(cfg, p):
    """Gibbs-state measures at one temperature; the axis supplies T."""
    rho = gibbs_numeric(p)
    return [[_STATE_METRICS[name](rho) for name in cfg.resolved_outputs()]]


def _charge_rows(cfg, p):
    """One unitary charging run from the Gibbs state."""
    outputs = cfg.resolved_outputs()
    times, states = charge_trajectory(p, gibbs_numeric(p), *cfg.resolved_span(p),
                                      n_samples=cfg.resolved_samples())
    columns = dict(work_and_power(states, times, p).columns)
    columns.update((name, [value] * len(times)) for name, value in vars(capacity(p)).items())
    if "discord" in outputs:
        columns["discord"] = quantum_discord(states).discord.tolist()
    return [[p.omega * t] + [columns[name][i] for name in outputs]
            for i, t in enumerate(times)]


def _grid_point_rows(cfg, p):
    """Peak orbit metrics at one 2-D grid point; the axes supply x and y."""
    peaks = orbit_peaks(p)
    return [[getattr(peaks, name) for name in cfg.resolved_outputs()]]


def _one_period(p):
    """charge's default end time: one charging period pi/omega."""
    if p.omega == 0.0:
        raise ValueError("charge with omega = 0 has no period pi/omega; set t1")
    return np.pi / p.omega


def _run_tasks(worker, tasks, jobs):
    """Map tasks to the pool, preserving order; inline when one worker suffices.

    The pool gets at most one worker per task and per CPU: under fork the
    executor starts every worker at the first submit, however large jobs is.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # --jobs 1 never loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(worker, tasks, chunksize=chunk))


# ---------------------------------------------------------------- scenarios

_STATE_COLUMNS = ("concurrence", "discord", "coherence")

SCENARIOS = {
    "spectrum": Scenario(
        ("level",), ("energy_closed", "energy_numeric", "abs_deviation"), _spectrum_rows),
    "gibbs": Scenario(
        ("row", "col"), ("closed_re", "closed_im", "numeric_re", "numeric_im", "abs_deviation"),
        _gibbs_rows),
    "dephasing": Scenario(
        ("t",), _STATE_COLUMNS, _dephasing_rows, ("t0", "t1", "dt", "samples", "sweep", "outputs"),
        _STATE_COLUMNS, 201, t1=lambda p: 10.0),
    "thermal-sweep": Scenario(
        ("T",), _STATE_COLUMNS, _thermal_rows, ("sweep", "outputs"), _STATE_COLUMNS,
        axis=AxisSpec("temperature", 0.05, 5.0, 200), axis_rows=True),
    "charge": Scenario(
        ("omega_t",),
        ("ergotropy", "power_instant", "capacity_basis", "capacity_unitary", "coherence"),
        _charge_rows,
        ("t0", "t1", "samples", "sweep", "outputs", "with_discord"),
        ("ergotropy", "work", "power_instant", "power_avg", "efficiency",
         "capacity_basis", "capacity_unitary", "coherence", "discord"),
        501, t1=_one_period),
    "grid2d": Scenario(
        ("x", "y"), ("capacity", "coherence_max", "ergotropy_max", "power_max"),
        _grid_point_rows, ("sweep", "sweep2"), axis_rows=True),
}


def run_scenario(cfg, jobs=1):
    """Execute a validated config; returns the list of CSV paths written."""
    validate_config(cfg)
    sc = SCENARIOS[cfg.scenario]
    axes = [a for a in (cfg.sweep or sc.axis, cfg.second_axis) if a is not None]
    grid = list(itertools.product(*([float(v) for v in a.values()] for a in axes)))
    points = [cfg.params.replace(**{a.name: v for a, v in zip(axes, values)}) for values in grid]
    results = _run_tasks(partial(sc.rows, cfg), points, jobs)
    out, header = cfg.resolved_out(), cfg.resolved_header()
    if sc.axis_rows:
        write_csv(out, header, [list(values) + row
                                for values, rows in zip(grid, results) for row in rows])
        return [out]
    paths = []
    stem, ext = os.path.splitext(out)
    for i, (values, rows) in enumerate(zip(grid, results)):
        path = f"{stem}_{axes[0].name}{i:02d}_{values[0]:.12g}{ext}" if axes else out
        write_csv(path, header, rows)
        paths.append(path)
    return paths


# ---------------------------------------------------------------- plotting

def emit_plot_script(csv_path, cfg):
    """Write a gnuplot script next to a CSV that cfg's run wrote; returns its path."""
    sc = SCENARIOS[cfg.scenario]
    header = cfg.resolved_header()
    metrics = header[len(sc.leading):]
    script = os.path.splitext(csv_path)[0] + ".gp"
    csv_name = os.path.basename(csv_path)
    lines = ["set datafile separator ','"]
    if "sweep2" in sc.keys:  # a 2-D grid: one heatmap per metric
        lines += ["set view map", "set multiplot layout 2,2"]
        for name in metrics:
            lines += [f"set title '{name}'",
                      f"splot '{csv_name}' using 1:2:{header.index(name) + 1} with image notitle"]
        lines.append("unset multiplot")
    else:
        lines += ["set key outside", f"set xlabel '{sc.leading[0]}'"]
        terms = [f"'{csv_name}' using 1:{header.index(m) + 1} with lines title '{m}'"
                 for m in metrics]
        lines.append("plot " + ", \\\n     ".join(terms))
    with open(script, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return script


# ---------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are 1
        raise ConfigError(message)


def build_parser():
    """Every value flag keeps its text; _config_from_values parses it."""
    parser = _Parser(prog="dipolar-qb", description=__doc__.splitlines()[0], add_help=True)
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="flat key = value config file")
    for key in FLAG_KEYS:
        if key == "with_discord":
            parser.add_argument("--with-discord", action="store_const", const="true")
        else:
            parser.add_argument(f"--{key}")
    parser.add_argument("--jobs")
    parser.add_argument("--emit-plot", action="store_true")
    return parser


def _config_from_args(args):
    """File values, then flag values over them, parsed and validated once."""
    values = {"scenario": args.scenario}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                values = _read_values(f.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if values.get("scenario", args.scenario) != args.scenario:
            raise ConfigError(
                f"config scenario {values['scenario']!r} conflicts with requested {args.scenario!r}"
            )
    values.update((k, getattr(args, k)) for k in FLAG_KEYS if getattr(args, k) is not None)
    return _config_from_values(values)


def _resolve_jobs(args):
    raw, source = args.jobs, "jobs"
    if raw is None:
        raw, source = os.environ.get("DIPOLAR_QB_JOBS"), "DIPOLAR_QB_JOBS"
        if not raw:
            return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    return jobs


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        paths = run_scenario(cfg, jobs=_resolve_jobs(args))
        if args.emit_plot:
            for path in paths:
                emit_plot_script(path, cfg)
    except ConfigError as exc:
        print(f"dipolar-qb: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dipolar-qb: config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric failure from the inner modules
        print(f"dipolar-qb: numeric failure in {args.scenario}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
