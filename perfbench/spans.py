"""In-memory span tracing of the carentropy modules, from outside the package.

Public functions are wrapped where each caller looks them up: every
``carentropy`` module attribute bound to the original function is rebound to
the wrapper, and methods (``State.intrinsic``, ``AlgebraContext.basis``) are
rebound on their class.  The package source is never edited.

Each span records ``(name, start, end, parent, op)``; spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.  A span's self
time is its duration minus the durations of its direct children, which nest
strictly inside it because the run is single-threaded.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
import weakref

# (module, attribute, span name); the attribute is looked up on the module
# to find the original function, then rebound everywhere it is bound.
FUNCTIONS = (
    ("carentropy.states", "restrict", "states.restrict"),
    ("carentropy.states", "entropy", "states.entropy"),
    ("carentropy.states", "random_state", "states.random_state"),
    ("carentropy.states", "state_from_intrinsic", "states.state_build"),
    ("carentropy.states", "state_from_tau_form", "states.state_build"),
    ("carentropy.states", "is_even", "states.is_even"),
    ("carentropy.inequalities", "inequality_report", "inequalities.report"),
    ("carentropy.counterexamples", "build_recipe", "counterexamples.build_recipe"),
    ("carentropy.counterexamples", "joint_extension", "counterexamples.joint_extension"),
    ("carentropy.counterexamples", "violation_demo", "counterexamples.violation_demo"),
    ("carentropy.purification", "symmetric_purification",
     "purification.symmetric_purification"),
    ("carentropy.cli", "main", "cli.main"),
)
MODULES = (
    "carentropy",
    "carentropy.car_algebra",
    "carentropy.states",
    "carentropy.inequalities",
    "carentropy.counterexamples",
    "carentropy.purification",
    "carentropy.cli",
)


class Tracer:
    """Records nested spans and basis-cache counts for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self.active = True
        self._stack: list[int] = []
        self.basis_calls = 0
        self.basis_builds = 0
        self.build_s = 0.0
        self.bases = weakref.WeakSet()  # bases built in this run and still cached

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        import carentropy  # noqa: F401  (loads every submodule)

        modules = [sys.modules[m] for m in MODULES]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        state = sys.modules["carentropy.states"].State
        state.intrinsic = self.span("states.intrinsic", state.intrinsic)
        context = sys.modules["carentropy.car_algebra"].AlgebraContext
        context.basis = self._basis_wrapper(context.basis)

    def _basis_wrapper(self, original):
        traced = self.span("car_algebra.basis", original)

        @functools.wraps(original)
        def basis(ctx, order):
            if not self.active:  # a basis built here is a cache hit for later ops
                out = original(ctx, order)
                self.bases.add(out)
                return out
            self.basis_calls += 1
            start = time.perf_counter()
            out = traced(ctx, order)
            if out not in self.bases:
                self.bases.add(out)
                self.basis_builds += 1
                self.build_s += time.perf_counter() - start
            return out

        return basis

    def basis_bytes(self) -> int:
        gc.collect()  # contexts and their bases form cycles; count only live ones
        total = 0
        for b in self.bases:
            total += b.mats.nbytes
            if b.local_mats is not b.mats:
                total += b.local_mats.nbytes
        return total

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and summed self time in seconds."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.ends[i] - self.starts[i] - child_time[i]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                }, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    builds = tracer.basis_builds
    out = {
        "car_algebra.basis.builds": (builds, "count"),
        "car_algebra.basis.build_s": (tracer.build_s, "s"),
        "car_algebra.basis.hit_ratio": (
            (tracer.basis_calls - builds) / tracer.basis_calls if tracer.basis_calls else 0.0,
            "ratio",
        ),
        "car_algebra.basis.bytes": (tracer.basis_bytes(), "bytes"),
    }
    for name in ("states.restrict", "states.intrinsic", "states.state_build",
                 "inequalities.report", "counterexamples.build_recipe",
                 "purification.symmetric_purification"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("states.restrict", "states.intrinsic", "states.entropy",
                 "states.random_state", "states.state_build", "states.is_even",
                 "inequalities.report", "counterexamples.build_recipe",
                 "counterexamples.joint_extension", "counterexamples.violation_demo",
                 "purification.symmetric_purification", "cli.main"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    return out
