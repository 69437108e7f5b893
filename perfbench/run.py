"""dipolarqb benchmark: seeded CLI studies, gated outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload dephasing --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists): dephasing, charge_discord,
grid2d.  One client calls ``dipolarqb.cli.main(argv)`` in a closed loop
with ``--jobs 1`` inside a fresh child interpreter that imports the
package from this checkout's ``src/`` with BLAS threads pinned to 1.
CSVs go to a temporary directory under ``.perfbench_run/``; every one is
checked against independent oracles afterwards, outside the timed region.

--trace 0 prints the end-to-end metrics:
    rows_per_s   CSV rows of passing invocations per second of loop wall time
    op_p50_s     median wall time of one cli.main invocation
    setup_s      median time from starting a fresh interpreter to having
                 imported dipolarqb.cli, over SETUP_PROBES launches
    peak_rss_mb  peak resident memory of the child that ran the workload
--trace 1 prints the per-layer metrics from a traced run of a fixed number
of invocations (child.TRACE_INVOCATIONS): ``<module>.<function>.<counter>``
and ``trace.overhead_frac``; the spans go to ``.perfbench_run/``.

The last stdout line is the result JSON; the line before it records the
run's environment.  Exits 2 without a result if the package source is
missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads here and in every child
    os.environ[_var] = "1"

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, gate included, ends within 180 s
GATE_RESERVE_S = 30.0
SPAN_CHECK_TOL = 0.01
COUNTER_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "evals": "count", "bytes": "bytes"}

# -s -E: no user site-packages and no PYTHON* variables, so nothing but
# the sys.path entry each child adds can supply dipolarqb
PYTHON = [sys.executable, "-s", "-E"]
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import dipolarqb.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def setup_seconds():
    """Launch-to-imported time of one fresh interpreter."""
    start = time.perf_counter()
    with subprocess.Popen(PYTHON + ["-c", PROBE, SRC], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait()
    if line != b"ready\n" or rc != 0:
        raise RuntimeError(f"import probe failed with exit code {rc}")
    return elapsed


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def gate_runs(workload, seed, runs):
    """Marks each invocation record with its rows and problems."""
    import gate

    first = {}
    for run in runs:
        run["rows"], run["problems"] = 0, []
        if run["rc"] != 0 or run["error"]:
            run["problems"].append(f"exit {run['rc']}: {run['error']}")
            continue
        run["rows"], run["problems"] = gate.check(workloads.make_case(workload, seed, run["index"]),
                                                  run["csv"])
        # the first run of each index is the reference every rerun must match
        ref = first.setdefault(run["index"], run["csv"])
        if ref != run["csv"] and not same_bytes(ref, run["csv"]):
            run["problems"].append(f"CSV bytes differ from {os.path.basename(ref)}")
    return runs


def tail_percentile(walls):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    for q in (99, 90):
        if len(walls) * (100 - q) / 100 >= 10:
            return f"op_p{q}_s", statistics.quantiles(walls, n=100)[q - 1]
    return None


def end_to_end(child, runs, setup):
    timed = [r for r in runs if r["phase"] == "timed"]
    walls = [r["wall_s"] for r in timed]
    rows = sum(r["rows"] for r in timed if not r["problems"])
    metrics = {
        "rows_per_s": {"value": rows / child["loop_wall_s"], "unit": "rows/s"},
        "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_kb"] / 1024.0, "unit": "MiB"},
    }
    info = {"op_samples": len(walls), "setup_samples": len(setup)}
    tail = tail_percentile(walls)
    if tail:
        info[tail[0]] = tail[1]
    return metrics, info


def per_layer(child, runs):
    import tracer

    walls = {phase: sum(r["wall_s"] for r in runs if r["phase"] == phase)
             for phase in ("untraced", "traced")}
    overhead = walls["traced"] / walls["untraced"] - 1.0
    metrics = {}
    for name in tracer.TRACED:
        for counter, value in child["layers"][name].items():
            metrics[f"{name}.{counter}"] = {"value": value, "unit": COUNTER_UNITS[counter]}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    # spans nest under cli.main, so the self times add up to its wall time
    self_sum = sum(layer["self_s"] for layer in child["layers"].values())
    main_total = child["layers"]["cli.main"]["total_s"]
    problems = []
    if abs(self_sum - walls["traced"]) > SPAN_CHECK_TOL * walls["traced"]:
        problems.append(f"self times sum to {self_sum:.4f} s, traced cli.main wall is {walls['traced']:.4f} s")
    if abs(self_sum - walls["untraced"]) > (abs(overhead) + SPAN_CHECK_TOL) * walls["untraced"]:
        problems.append(f"self times sum to {self_sum:.4f} s, beyond the overhead of the untraced "
                        f"{walls['untraced']:.4f} s")
    shares = {name: round(child["layers"][name]["total_s"] / main_total, 4)
              for name in ("dynamics.evolve_lindblad", "resources.quantum_discord",
                           "battery.orbit_peaks", "cli.write_csv")}
    return metrics, {"span_count": child["span_count"], "share_of_cli_main": shares}, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dipolarqb", "cli.py")):
        print(f"perfbench: no dipolarqb source under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    sys.path.insert(0, SRC)
    os.makedirs(RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        setup = []
        if not args.trace:
            setup_seconds()  # fills the page and bytecode caches; not counted
            setup = [setup_seconds() for _ in range(SETUP_PROBES)]
        budget = DEADLINE_S - GATE_RESERVE_S - (time.monotonic() - started)
        cmd = PYTHON + [os.path.join(HERE, "child.py"), ROOT, args.workload, str(args.seed),
                        str(args.seconds), str(args.trace), tmp]
        try:
            proc = subprocess.run(cmd, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"perfbench: workload child exceeded {budget:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: workload child exited {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(tmp, "child.json"), encoding="ascii") as f:
            child = json.load(f)
        runs = gate_runs(args.workload, args.seed, child["runs"])
        if args.trace:
            metrics, info, run_problems = per_layer(child, runs)
            spans = os.path.join(RUN_DIR, f"spans_{args.workload}_seed{args.seed}.json")
            shutil.move(os.path.join(tmp, "spans.json"), spans)
            info["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            metrics, info = end_to_end(child, runs, setup)
            run_problems = []
    failed = [r for r in runs if r["problems"]]
    for r in failed:
        print(f"perfbench: {r['phase']} invocation {r['index']}: {'; '.join(r['problems'])}", file=sys.stderr)
    for problem in run_problems:
        print(f"perfbench: trace: {problem}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, **environment())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed and not run_problems, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
