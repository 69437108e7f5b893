"""Start-up cost: what importing and running the CLI loads.

scipy and multiprocessing are imported at their first use, so a fresh
interpreter that imports dipolarqb, or runs any study with --jobs 1
except `charge --with-discord`, never loads them.  Discord of X-states
(every dephasing and thermal-sweep state) is numpy-only; only discord
of other states (the charging orbit) reaches scipy.  Neither importing
the package nor running a study loads the cross-check module
`dipolarqb.oracles`.  Each test runs in its own child interpreter,
because this one has long since imported all of them.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("scipy", "multiprocessing")

# argv: src dir, JSON list of CLI argv lists; prints exit codes, the
# heavy modules loaded and whether oracles was, once every run has returned
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
{prelude}
import dipolarqb, dipolarqb.cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dipolarqb.cli.main(argv))
heavy = sorted(m for m in sys.modules if m.split(".")[0] in {heavy!r})
oracles = "dipolarqb.oracles" in sys.modules
print(json.dumps({{"codes": codes, "heavy": heavy, "oracles": oracles}}))
"""


def run_child(runs, prelude=""):
    code = _CHILD.format(prelude=prelude, heavy=HEAVY)
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC, json.dumps(runs)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def cheap_runs(tmp_path):
    def out(name):
        return ["--jobs", "1", "--out", str(tmp_path / f"{name}.csv")]

    return [
        ["spectrum", "--delta", "1"] + out("spectrum"),
        ["gibbs", "--dm", "0.5"] + out("gibbs"),
        ["charge", "--samples", "5"] + out("charge"),
        ["grid2d", "--sweep", "delta:0:1:2", "--sweep2", "epsilon:0:1:2"] + out("grid2d"),
        # default outputs include discord, of X-states only
        ["dephasing", "--delta", "1", "--t1", "0.1", "--samples", "3"] + out("dephasing"),
        ["thermal-sweep", "--delta", "1", "--epsilon", "0.5", "--sweep", "temperature:0.5:2:3"]
        + out("thermal"),
    ]


def charge_discord_run(tmp_path):  # orbit states are not X-states
    return ["charge", "--delta", "1", "--field", "0.5", "--samples", "5", "--with-discord",
            "--jobs", "1", "--out", str(tmp_path / "charge_discord.csv")]


def test_import_loads_neither_scipy_nor_multiprocessing():
    result, _ = run_child([])
    assert result["heavy"] == []
    assert result["oracles"] is False


def test_cheap_studies_load_neither(tmp_path):
    result, stderr = run_child(cheap_runs(tmp_path))
    assert result["codes"] == [0] * 6, stderr
    assert result["heavy"] == []
    assert result["oracles"] is False


def test_discord_loads_scipy_optimize(tmp_path):  # the positive control
    result, stderr = run_child([charge_discord_run(tmp_path)])
    assert result["codes"] == [0], stderr
    assert "scipy.optimize" in result["heavy"]


def test_missing_scipy_is_exit_2_at_first_use(tmp_path):
    blocked = 'sys.modules["scipy.optimize"] = None'  # import of it now raises
    dephasing = cheap_runs(tmp_path)[4]
    result, stderr = run_child([dephasing, charge_discord_run(tmp_path)], blocked)
    assert result["codes"] == [0, 2]
    assert "numeric failure in charge: ModuleNotFoundError: " in stderr
    assert "Traceback" not in stderr
