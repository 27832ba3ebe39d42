"""Spans around calls into the package's modules, recorded from outside.

`Tracer.install` replaces each listed public function, in every package
module that refers to it, with a wrapper that records a span: name,
start, end, parent span and the id of the CLI call it belongs to.  Spans
are kept in memory in flat arrays and written out by `write`.  Methods
(`Dist.sample`, `ctx.choose`, `Guide.propose`) are not wrapped, so their
time counts toward the innermost wrapped caller: `runtime.run_trace`
includes the model and guide code it runs.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

LAYERS = ("dists", "runtime", "estimators", "enumeration", "guideopt", "models", "cli")

# Entry points of each layer that the CLI reaches.  Functions called once
# per choice site (site keys, Dist methods) are left out: a span there
# would cost about as much as the call it measures.
SPANNED = {
    "dists": ("dist_from_weights", "uniform_range", "point_mass"),
    "runtime": ("run_trace", "derive_seeds"),
    "estimators": ("batch_stats", "estimate_from_batch", "lower_confidence_bound",
                   "hypothesis_estimate_from_stats", "merge_batch_stats"),
    "enumeration": ("enumerate_paths", "exact_evidence", "exact_conditional_expectation",
                    "exact_free_energy", "exact_guided_profile"),
    "guideopt": ("optimize_guide",),
    "models": ("make_monkey_model", "make_expr_model", "monkey_evidence_dp"),
    "cli": ("main", "dumps", "build_model", "build_guide"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = 0  # set by the caller before each CLI call
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, call, stack = (
            self.name_id, self.start, self.end, self.parent, self.call, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"guidedppl.{m}") for m in LAYERS]
        for layer, functions in SPANNED.items():
            home = importlib.import_module(f"guidedppl.{layer}")
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                if name not in self._wrappers:
                    self._wrappers[name] = self._wrap(name, original)
                wrapper = self._wrappers[name]
                for m in modules:
                    if getattr(m, fname, None) is original:
                        self._patched.append((m, fname, original))
                        setattr(m, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self) -> int:
        return len(self.start)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer = self.names[self.name_id[i]].split(".", 1)[0]
            totals[layer] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tcall_id\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.call[i]}\n")
