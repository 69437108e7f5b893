"""Spans around the package's public functions, recorded from outside.

The package binds many of these functions by name at import time
(``from .battery import orbit_peaks`` in ``cli``, ``battery``'s imports
of ``model`` and ``thermal``, the ``cli._STATE_METRICS`` table), so a
function is wrapped wherever a module namespace or a module-level dict
holds that exact object.  ``Tracer.installed()`` restores every binding
on exit.  Spans stay in memory as (name, start, end, parent, invocation)
and are summarised or written out after the traced invocations.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

TRACED = (
    "cli.main",
    "cli.run_scenario",
    "cli.write_csv",
    "dynamics.evolve_lindblad",
    "dynamics.charge_trajectory",
    "resources.quantum_discord",
    "resources.concurrence",
    "resources.l1_coherence",
    "battery.orbit_peaks",
    "battery.charging_orbit_arrays",
    "battery.capacity",
    "battery.work_and_power",
    "thermal.gibbs_numeric",
    "model.build_hamiltonian",
    "model.charging_unitary",
    "linalg.hermitian_eigen",
)
# counters beyond calls/self_s/total_s: name -> (counter, f(args, result))
EXTRA_COUNTERS = {
    "resources.quantum_discord": ("evals", lambda args, out: out.optimizer_evals),
    "cli.write_csv": ("bytes", lambda args, out: os.path.getsize(args[0])),
}
PACKAGE = "dipolarqb"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, invocation]
        self.counters = {}  # (name, counter) -> total
        self.invocation = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if extra is not None:
                key = (name, extra[0])
                self.counters[key] = self.counters.get(key, 0) + extra[1](args, out)
            return out

        return traced

    def _bind(self, namespace, key, value):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = value

    @contextmanager
    def installed(self):
        """Wrap every binding of each TRACED function for the duration."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for name in TRACED:
                mod_name, fn_name = name.split(".")
                orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    namespace = vars(mod)
                    for key, value in list(namespace.items()):
                        if value is orig:
                            self._bind(namespace, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is orig:
                                    self._bind(value, k, wrapper)
            yield self
        finally:
            while self._restore:
                namespace, key, value = self._restore.pop()
                namespace[key] = value

    def layers(self):
        """{name: {"calls", "self_s", "total_s", extra counters}} for TRACED."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in TRACED}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - covered
        for name, (counter, _) in EXTRA_COUNTERS.items():
            out[name][counter] = self.counters.get((name, counter), 0)
        return out

    def write(self, path):
        """Dump the spans as JSON: a name table plus one row per span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[n], start, end, parent, inv] for n, start, end, parent, inv in self.spans]
        with open(path, "w", encoding="ascii") as f:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "invocation"],
                       "spans": rows}, f)
