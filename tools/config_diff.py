"""Rebuild every bundled config at a git ref and in the working tree, and diff.

Usage: python3 tools/config_diff.py REF

REF is exported with `git archive`; the working tree is copied file by
file from `git ls-files --cached --others --exclude-standard`, so
uncommitted and new files count.  Both copies go into one temporary
directory.  Each config of the working tree's `configs/` runs on both
sides as its own process, `--jobs 1 --emit-plot`, from that side's
root, so its `out` path lands in that side's `results/`.  Per config
the script prints whether every CSV and `.gp` file is byte-identical,
the largest absolute deviation over the numeric CSV cells (or, where a
CSV's data row count changed, both counts, as `450→501 rows`), and the
whole-process wall time on each side.  It exits 0 when every config ran
on both sides and 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export_ref(ref, dest):
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", ref), check=True)


def export_working_tree(dest):
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / os.fsdecode(name)
        if name and src.is_file():  # a deleted but still tracked file is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_config(tree, config):
    """(exit code, stderr, wall seconds, {relative path: bytes}) of one run."""
    scenario = next(line.split("=", 1)[1].strip() for line in config.read_text().splitlines()
                    if line.split("=", 1)[0].strip() == "scenario")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dipolarqb.cli", scenario, "--config", str(config),
         "--jobs", "1", "--emit-plot"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    files = {}
    for line in proc.stdout.splitlines():
        csv = tree / line
        for path in (csv, csv.with_suffix(".gp")):
            if path.is_file():
                files[str(path.relative_to(tree))] = path.read_bytes()
    return proc.returncode, proc.stderr, wall, files


def max_cell_deviation(a, b):
    """Largest |a - b| over numeric CSV cells.

    Tables with different data row counts give both counts as text,
    `ref→tree rows`; inf when they otherwise differ in shape or text.
    """
    rows_a = [line.split(",") for line in a.decode("ascii").splitlines()]
    rows_b = [line.split(",") for line in b.decode("ascii").splitlines()]
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 1}→{len(rows_b) - 1} rows"
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return float("inf")
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            try:
                worst = max(worst, abs(float(x) - float(y)))
            except ValueError:  # header text
                if x != y:
                    return float("inf")
    return worst


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="config_diff_") as tmp:
        ref_tree, work_tree = Path(tmp) / "ref", Path(tmp) / "tree"
        export_ref(argv[0], ref_tree)
        export_working_tree(work_tree)
        configs = sorted((work_tree / "configs").glob("*.cfg"))
        print(f"{'config':32} {'identical':9} {'max |dev|':>12} {'ref s':>7} {'tree s':>7}")
        failed = identical = 0
        for config in configs:
            runs = [run_config(tree, config) for tree in (ref_tree, work_tree)]
            if any(code != 0 for code, *_ in runs):
                failed += 1
                errors = "; ".join(err.strip() for _, err, _, _ in runs if err.strip())
                print(f"{config.name:32} run failed (exit {runs[0][0]} / {runs[1][0]}): {errors}")
                continue
            (_, _, ref_s, ref_files), (_, _, tree_s, tree_files) = runs
            same = ref_files == tree_files and bool(ref_files)
            identical += same
            devs = [max_cell_deviation(ref_files[name], tree_files[name])
                    for name in sorted(ref_files.keys() & tree_files.keys()) if name.endswith(".csv")]
            dev = max([d for d in devs if not isinstance(d, str)]
                      + [0.0 if ref_files.keys() == tree_files.keys() else float("inf")])
            rows = sorted({d for d in devs if isinstance(d, str)})
            shown = ", ".join(rows + ([f"{dev:.3g}"] if dev or not rows else []))
            print(f"{config.name:32} {'yes' if same else 'NO':9} {shown:>12} {ref_s:7.2f} {tree_s:7.2f}")
        print(f"{identical}/{len(configs)} configs byte-identical, {failed} failed to run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
