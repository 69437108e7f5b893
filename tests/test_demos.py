"""Every Python demo, and every Python block of the README, runs to completion.

Each one runs in a child interpreter with this checkout's `src` first
on the import path, so a name that moved between modules shows up here
rather than in a reader's terminal.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)
RUNS = ([pytest.param([str(path)], id=path.name) for path in DEMOS]
        + [pytest.param(["-c", block], id=f"README.md-{k}")
           for k, block in enumerate(README_BLOCKS, start=1)])


def test_demos_found():
    assert len(DEMOS) >= 5
    assert README_BLOCKS


@pytest.mark.parametrize("args", RUNS)
def test_demo_exits_cleanly(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
