"""Runs one workload's invocations in a fresh interpreter; see run.py.

Usage: child.py ROOT WORKLOAD SEED SECONDS TRACE OUTDIR

A closed loop with a single client: each ``dipolarqb.cli.main(argv)``
call starts after the previous one returned.  Invocation 0 runs once as
a warm-up and again as the first measured call, so the output gate can
compare the two CSVs byte for byte.

TRACE 0: measured invocations run until SECONDS have elapsed.
TRACE 1: each of the first TRACE_INVOCATIONS runs untraced and then
traced, so per-layer counts repeat exactly for a seed.

Writes OUTDIR/child.json; CSVs go to OUTDIR, spans to OUTDIR/spans.json.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

TRACE_INVOCATIONS = 2


def _invoke(cli, case, out_path, phase):
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(case.argv_with_out(out_path))
    except Exception as exc:  # a crash is a failed invocation, not a crashed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if rc != 0 and error is None:
        error = stderr.getvalue().strip()
    return {"index": case.index, "phase": phase, "csv": out_path, "rc": rc,
            "wall_s": wall, "error": error}


def main(argv):
    root, workload, seed, seconds, trace, outdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from dipolarqb import cli  # noqa: E402  (must come from ROOT/src)
    import workloads
    import tracer

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dipolarqb imported from {cli.__file__}, not from {src}")

    def case(i):
        return workloads.make_case(workload, seed, i)

    def csv(phase, i):
        return os.path.join(outdir, f"{phase}_{i:03d}.csv")

    runs = [_invoke(cli, case(0), csv("warm", 0), "warm")]
    result = {"runs": runs}
    if not trace:
        loop_start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - loop_start < seconds:
            runs.append(_invoke(cli, case(i), csv("timed", i), "timed"))
            i += 1
        result["loop_wall_s"] = time.perf_counter() - loop_start
    else:
        t = tracer.Tracer()
        for i in range(TRACE_INVOCATIONS):
            runs.append(_invoke(cli, case(i), csv("untraced", i), "untraced"))
            t.invocation = i
            with t.installed():
                runs.append(_invoke(cli, case(i), csv("traced", i), "traced"))
        t.write(os.path.join(outdir, "spans.json"))
        result["layers"] = t.layers()
        result["span_count"] = len(t.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(outdir, "child.json"), "w", encoding="ascii") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
