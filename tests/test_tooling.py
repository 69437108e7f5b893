"""The benchmark tracer's function names must exist in the package.

`perfbench/tracer.py` wraps each name in TRACED with getattr; a refactor
that drops or renames one of them would otherwise only show as a crash
of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
