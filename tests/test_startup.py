"""Start-up cost: what importing and running the CLI loads.

No run loads scipy: every study, `charge --with-discord` included,
is numpy-only, and each exits 0 in a child where `import scipy` fails.
multiprocessing is imported at its first use, so a fresh interpreter
that imports dipolarqb, or runs any study with --jobs 1, never loads
it.  Neither importing the package nor running a study loads the
cross-check module `dipolarqb.oracles`, whose Nelder-Mead discord
search is the one route that loads scipy (the positive control).  Each
test runs in its own child interpreter, because this one has long since
imported all of them.
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
    result, stderr = run_child(cheap_runs(tmp_path) + [charge_discord_run(tmp_path)])
    assert result["codes"] == [0] * 7, stderr
    assert result["heavy"] == []
    assert result["oracles"] is False


def test_nelder_mead_oracle_loads_scipy_optimize():  # the positive control
    nelder_mead = """
import numpy as np
from dipolarqb.oracles import nelder_mead_search
rho = np.full((4, 4), 0.05, dtype=complex) + np.diag([0.2, 0.1, 0.1, 0.2])  # not an X-state
nelder_mead_search(rho.reshape(2, 2, 2, 2))
"""
    result, stderr = run_child([], nelder_mead)
    assert "scipy.optimize" in result["heavy"], stderr


def test_runs_succeed_without_scipy(tmp_path):
    blocked = 'sys.modules["scipy"] = None'  # import of it now raises
    dephasing = cheap_runs(tmp_path)[4]
    result, stderr = run_child([dephasing, charge_discord_run(tmp_path)], blocked)
    assert result["codes"] == [0, 0], stderr
