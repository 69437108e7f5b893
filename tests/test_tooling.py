"""The benchmark's imports must exist in the package, and oracles stay apart.

`perfbench/tracer.py` wraps each name in TRACED with getattr, and the
other perfbench scripts import names from the package's modules; a
refactor that drops or moves one of them would otherwise only show as a
crash of a benchmark run.  The cross-check routes live in
`dipolarqb.oracles`, which no production module may import, and it is
the only module that imports scipy: numpy is the one runtime
dependency.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE_DIR = ROOT / "src" / "dipolarqb"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    tracer = load_tracer()
    assert tracer.TRACED
    for name in tracer.TRACED:
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(getattr(module, attr, None)), name


def test_every_perfbench_module_import_resolves():
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dipolarqb."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    found.append(f"{node.module}.{alias.name}")
                    assert hasattr(module, alias.name), f"{path.name}: {found[-1]}"
    assert found  # the benchmark's gate imports from the package modules


def imports_oracles(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "dipolarqb.oracles" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("oracles", "dipolarqb.oracles"):
                return True
            if node.module in (None, "dipolarqb") and any(a.name == "oracles" for a in node.names):
                return True
    return False


def test_no_production_module_imports_oracles():
    assert imports_oracles(ast.parse("from .oracles import matrix_exp"))  # the check bites
    offenders = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "oracles.py" and imports_oracles(ast.parse(path.read_text()))]
    assert offenders == []


def imports_scipy(tree):
    for node in ast.walk(tree):  # function-local imports included
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "scipy" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "scipy":
                return True
    return False


def test_only_oracles_imports_scipy():
    assert imports_scipy(ast.parse("def f():\n    from scipy.optimize import minimize"))  # bites
    assert imports_scipy(ast.parse("import scipy.linalg as sl"))
    offenders = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "oracles.py" and imports_scipy(ast.parse(path.read_text()))]
    assert offenders == []


def test_config_diff_reports_row_counts():
    spec = importlib.util.spec_from_file_location("config_diff", ROOT / "tools" / "config_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ref = b"t,x\n0,1\n1,2\n"
    assert module.max_cell_deviation(ref, ref) == 0.0
    assert module.max_cell_deviation(ref, b"t,x\n0,1\n1,2.5\n") == 0.5
    assert module.max_cell_deviation(ref, b"t,x\n0,1\n0.5,1\n1,2\n") == "2→3 rows"
    assert module.max_cell_deviation(ref, b"t,y\n0,1\n1,2\n") == float("inf")
