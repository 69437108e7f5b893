"""Shows that the output gate flags injected faults; exits 1 if one slips by.

Run from the repository root:  python3 perfbench/selftest.py

For one generated invocation of each workload it checks that the clean
CSV passes, then that the gate flags: each metric column perturbed by
1e-3 in one row, a dropped middle row, a dropped last row, a nonzero
exit, and a rerun whose bytes differ.
"""

import contextlib
import io
import os
import sys
import tempfile

import run  # sets the thread variables and puts src/ on the path first

sys.path.insert(0, run.SRC)

import gate  # noqa: E402
import workloads  # noqa: E402
from dipolarqb import cli  # noqa: E402

PERTURBATION = 1e-3
SEED = 0


def rewrite(src, dst, edit):
    with open(src, encoding="ascii") as f:
        lines = f.read().split("\n")[:-1]
    with open(dst, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(edit(lines)) + "\n")


def perturb(row, col):
    def edit(lines):
        cells = lines[row + 1].split(",")
        cells[col] = f"{float(cells[col]) + PERTURBATION:.17g}"
        return lines[:row + 1] + [",".join(cells)] + lines[row + 2:]
    return edit


def drop(row):
    return lambda lines: lines[:row + 1] + lines[row + 2:]


def respell_first_cell(lines):
    cells = lines[1].split(",")
    cells[0] = str(int(float(cells[0]))) + ".0"
    return lines[:1] + [",".join(cells)] + lines[2:]


def flagged(workload, index, csv, rc=0, rerun_of=None):
    runs = [] if rerun_of is None else [
        {"index": index, "phase": "warm", "csv": rerun_of, "rc": 0, "error": None}]
    runs.append({"index": index, "phase": "timed", "csv": csv, "rc": rc,
                 "error": None if rc == 0 else "injected"})
    return run.gate_runs(workload, SEED, runs)[-1]["problems"]


def report(misses, workload, fault, problems):
    print(f"{workload}: {fault}: " + (f"flagged ({problems[0]})" if problems else "MISSED"))
    if not problems:
        misses.append(f"{workload}: {fault}")


def main():
    misses = []
    os.makedirs(run.RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        for workload in workloads.WORKLOADS:
            case = workloads.make_case(workload, SEED, 0)
            clean = os.path.join(tmp, f"{workload}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(case.argv_with_out(clean))
            if rc != 0 or flagged(workload, 0, clean):
                misses.append(f"{workload}: the clean invocation did not pass")
                continue
            n = sum(1 for _ in open(clean, encoding="ascii")) - 1
            # a row whose every column the gate checks, discord and peaks included
            row = 0 if workload == "grid2d" else gate._discord_rows(n)[0]
            first_metric = 2 if workload == "grid2d" else 1
            faults = {f"{name} perturbed": perturb(row, col)
                      for col, name in enumerate(gate.HEADERS[workload]) if col >= first_metric}
            faults.update({"middle row dropped": drop(n // 2), "last row dropped": drop(n - 1)})
            for name, edit in faults.items():
                bad = os.path.join(tmp, "bad.csv")
                rewrite(clean, bad, edit)
                report(misses, workload, name, flagged(workload, 0, bad))
            # same values, other bytes: the first cell (t0 or the first axis
            # value, an integer) gains a ".0"
            rerun = os.path.join(tmp, "rerun.csv")
            rewrite(clean, rerun, respell_first_cell)
            report(misses, workload, "nonzero exit", flagged(workload, 0, clean, rc=2))
            report(misses, workload, "rerun bytes differ", flagged(workload, 0, rerun, rerun_of=clean))
    for miss in misses:
        print(f"selftest: {miss}", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
