"""Span tracing around the public entry points of each ``repro`` layer.

The traced run installs :func:`install`.  Every wrapped call records a span
(name, start, end, parent) in memory; spans are written out as JSON
when the run ends, and the per-layer metrics are computed from them:
a layer's time is the self time of its spans (span minus the part its
child spans cover).  Counts are taken at the same boundaries.

Nothing under ``src/`` is edited: entry points are rebound in every
loaded ``repro`` module that imported them.  An entry point that no
longer exists leaves its layer's metrics absent, never zero.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import threading
import time
from collections import Counter

#: Layer -> (entry points it needs wrapped, the metrics it yields).
#: A layer whose entry points are not all found is left out.
LAYERS = {
    "functional": (("functional", "extinst.validate"), (
        "functional.trace.runs", "functional.trace.s",
        "functional.validate.runs", "functional.validate.s",
        "functional.minst_per_s",
    )),
    "extinst.evaluate": (("extinst.evaluate",), ("extinst.evaluate.calls",)),
    "extinst.select": (("extinst.select",), ("extinst.select.s",)),
    "extinst.rewrite": (("extinst.rewrite",), ("extinst.rewrite.s",)),
    "profiling": (("profiling",), ("profiling.s",)),
    "hwcost": (("hwcost.cost", "hwcost.area", "hwcost.dist"), ("hwcost.s",)),
    "ooo": (("ooo",), (
        "ooo.simulate.calls", "ooo.first.s", "ooo.repeat.s",
        "ooo.minst_per_s",
    )),
    "cache": (("cache", "ooo"), (
        "cache.prepass.builds", "cache.prepass.distinct")),
    "engine": (("engine",), ("engine.jobs", "engine.overhead.s")),
    "store": (("store.get", "store.put"), (
        "store.get.calls", "store.get.s", "store.put.calls", "store.put.s",
        "store.hit_ratio", "store.bytes",
    )),
    "explore": (
        ("explore.sweep", "explore.expand", "explore.warm", "explore.prune"),
        ("explore.points", "explore.pruned_frac", "explore.warm_frac",
         "explore.plan.s"),
    ),
}

#: Entry point -> (module, class or None, attribute).
ENTRY_POINTS = {
    "functional": ("repro.sim.functional", "FunctionalSimulator", "run"),
    "extinst.validate": (
        "repro.extinst.validate", None, "validate_equivalence"),
    "extinst.evaluate": ("repro.extinst.extdef", "ExtInstDef", "evaluate"),
    "extinst.select": ("repro.extinst.params", None, "run_selection"),
    "extinst.rewrite": ("repro.extinst.rewriter", None, "apply_selection"),
    "profiling": ("repro.profiling.profiler", None, "profile_program"),
    "hwcost.cost": ("repro.hwcost.lutmap", None, "estimate_cost"),
    "hwcost.area": ("repro.hwcost.area", None, "selection_area"),
    "hwcost.dist": ("repro.hwcost.area", None, "distribution_for_defs"),
    "ooo": ("repro.sim.ooo.pipeline", "OoOSimulator", "simulate"),
    "cache": ("repro.sim.cache.hierarchy", "MemoryHierarchy", "__init__"),
    "engine": ("repro.engine.pipeline", None, "run_stage"),
    "store.get": ("repro.engine.store", "ArtifactStore", "get"),
    "store.put": ("repro.engine.store", "ArtifactStore", "put"),
    "explore.sweep": ("repro.explore.driver", None, "run_sweep"),
    "explore.expand": ("repro.explore.spec", "SweepSpec", "expand"),
    "explore.warm": ("repro.explore.driver", None, "warm_point_ids"),
    "explore.prune": ("repro.explore.prune", None, "plan"),
}

#: Time metric -> the span name whose self time it sums.
_SELF_TIME = {
    "functional.trace.s": "functional.trace",
    "functional.validate.s": "functional.validate",
    "extinst.select.s": "extinst.select",
    "extinst.rewrite.s": "extinst.rewrite",
    "profiling.s": "profiling",
    "hwcost.s": "hwcost",
    "ooo.first.s": "ooo.first",
    "ooo.repeat.s": "ooo.repeat",
    "engine.overhead.s": "engine.job",
    "store.get.s": "store.get",
    "store.put.s": "store.put",
    "explore.plan.s": "explore.plan",
}


class Tracer:
    """In-memory span recorder; per-thread parent stacks."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self.missing: set[str] = set()
        #: wrappers record only while enabled (the timed window)
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span timed by the caller (overlapping requests)."""
        with self._lock:
            self.names.append(name)
            self.parents.append(-1)
            self.starts.append(start)
            self.ends.append(end)

    def in_span(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack())

    # ------------------------------------------------------------------

    def self_times(self) -> Counter:
        """Span name -> summed self time (seconds)."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals: Counter = Counter()
        for index, name in enumerate(self.names):
            totals[name] += (
                self.ends[index] - self.starts[index] - child[index]
            )
        return totals

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        intervals = sorted(
            (max(self.starts[i], start), min(self.ends[i], end))
            for i, parent in enumerate(self.parents) if parent < 0
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered / (end - start) if end > start else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [
                    [self.names[i], self.starts[i], self.ends[i],
                     self.parents[i]]
                    for i in range(len(self.names))
                ],
                "counts": dict(self.counts),
            }, fh)


# ----------------------------------------------------------------------
# rebinding entry points


def _rebind(owner, attr: str, make) -> bool:
    """Replace ``owner.attr`` by ``make(original)``; for a module-level
    function also every alias of it in the loaded ``repro`` modules."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    return True


def _timed(tracer: Tracer, name, fn, after=None):
    """Span wrapper; ``name`` may be a callable of the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = name(*args, **kwargs) if callable(name) else name
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(span, result, *args, **kwargs)
        return result

    return wrapper


def _trace_key(trace) -> str:
    """Content digest of a trace, cached on the instance (underscore
    attributes are dropped when a trace is pickled)."""
    digest = getattr(trace, "_perfbench_digest", None)
    if digest is None:
        digest = hashlib.blake2b(
            memoryview(trace.indices).cast("B"), digest_size=16
        ).hexdigest()
        trace._perfbench_digest = digest
    return digest


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points (call after importing
    the modules the workload uses)."""
    owners = {}
    for key, (module_name, class_name, attr) in ENTRY_POINTS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner = getattr(module, class_name, None) if class_name else module
        if owner is not None and getattr(owner, attr, None) is not None:
            owners[key] = (owner, attr)

    counts = tracer.counts
    prepass_pairs: set = set()
    seen_pairs: set = set()
    local = threading.local()

    def wrap(key, make) -> None:
        if key not in owners:
            tracer.missing.add(key)
            return
        if _rebind(*owners[key], make):
            tracer.wrapped.add(key)

    # functional: split by whether the run is part of a validation
    def functional_name(sim, *args, **kwargs):
        return ("functional.validate"
                if tracer.in_span("extinst.validate")
                else "functional.trace")

    def functional_after(span, result, *args, **kwargs):
        counts[span + ".runs"] += 1
        counts["functional.steps"] += result.steps

    wrap("functional", lambda fn: _timed(
        tracer, functional_name, fn, functional_after))
    wrap("extinst.validate",
         lambda fn: _timed(tracer, "extinst.validate", fn))

    def count_evaluate(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.enabled:
                counts["extinst.evaluate.calls"] += 1
            return fn(*args)
        return wrapper

    wrap("extinst.evaluate", count_evaluate)
    wrap("extinst.select", lambda fn: _timed(tracer, "extinst.select", fn))
    wrap("extinst.rewrite", lambda fn: _timed(tracer, "extinst.rewrite", fn))
    wrap("profiling", lambda fn: _timed(tracer, "profiling", fn))
    for key in ("hwcost.cost", "hwcost.area", "hwcost.dist"):
        wrap(key, lambda fn: _timed(tracer, "hwcost", fn))

    # timing: first replay per (trace content, hierarchy) vs repeats
    def ooo_name(sim, *args, **kwargs):
        trace = args[0] if args else kwargs["trace"]
        pair = (_trace_key(trace), sim.config.hierarchy)
        local.pair = pair
        if pair in seen_pairs:
            return "ooo.repeat"
        seen_pairs.add(pair)
        return "ooo.first"

    def ooo_after(span, stats, *args, **kwargs):
        counts["ooo.simulate.calls"] += 1
        counts["ooo.instructions"] += stats.instructions
        counts["model.sim_cycles"] += stats.cycles
        counts["model.sim_insts"] += stats.instructions

    wrap("ooo", lambda fn: _timed(tracer, ooo_name, fn, ooo_after))

    def count_hierarchy(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            pair = getattr(local, "pair", None)
            if tracer.enabled and (tracer.in_span("ooo.first")
                                   or tracer.in_span("ooo.repeat")):
                counts["cache.prepass.builds"] += 1
                prepass_pairs.add(pair)
                counts["cache.prepass.distinct"] = len(prepass_pairs)
        return wrapper

    wrap("cache", count_hierarchy)

    def job_after(span, result, *args, **kwargs):
        counts["engine.jobs"] += 1

    wrap("engine", lambda fn: _timed(tracer, "engine.job", fn, job_after))

    def store_get_after(span, value, store, key, *args, **kwargs):
        counts["store.get.calls"] += 1
        if value is not None:
            counts["store.hits"] += 1
            counts["store.bytes"] += _size(store, key)

    def store_put_after(span, result, store, key, *args, **kwargs):
        counts["store.put.calls"] += 1
        counts["store.bytes"] += _size(store, key)

    wrap("store.get", lambda fn: _timed(
        tracer, "store.get", fn, store_get_after))
    wrap("store.put", lambda fn: _timed(
        tracer, "store.put", fn, store_put_after))

    def sweep_after(span, outcome, *args, **kwargs):
        counts["explore.points"] += outcome.n_points
        counts["explore.pruned"] += outcome.n_pruned
        counts["explore.warm"] += outcome.n_warm

    wrap("explore.sweep", lambda fn: _timed(
        tracer, "explore.sweep", fn, sweep_after))
    for key in ("explore.expand", "explore.warm", "explore.prune"):
        wrap(key, lambda fn: _timed(tracer, "explore.plan", fn))
    return tracer


def _size(store, key) -> int:
    try:
        return store.path_for(key).stat().st_size
    except OSError:
        return 0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values for every layer whose entry points were wrapped."""
    self_time = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric, span in _SELF_TIME.items():
        values[metric] = self_time[span]
    functional_s = values["functional.trace.s"] + values["functional.validate.s"]
    ooo_s = values["ooo.first.s"] + values["ooo.repeat.s"]
    store_gets = counts["store.get.calls"]
    points = counts["explore.points"]
    values.update({
        "functional.trace.runs": counts["functional.trace.runs"],
        "functional.validate.runs": counts["functional.validate.runs"],
        "functional.minst_per_s": _rate(counts["functional.steps"],
                                        functional_s),
        "extinst.evaluate.calls": counts["extinst.evaluate.calls"],
        "ooo.simulate.calls": counts["ooo.simulate.calls"],
        "ooo.minst_per_s": _rate(counts["ooo.instructions"], ooo_s),
        "cache.prepass.builds": counts["cache.prepass.builds"],
        "cache.prepass.distinct": counts["cache.prepass.distinct"],
        "engine.jobs": counts["engine.jobs"],
        "store.get.calls": store_gets,
        "store.put.calls": counts["store.put.calls"],
        "store.hit_ratio": (counts["store.hits"] / store_gets
                            if store_gets else 0.0),
        "store.bytes": counts["store.bytes"],
        "explore.points": points,
        "explore.pruned_frac": counts["explore.pruned"] / points if points else 0.0,
        "explore.warm_frac": counts["explore.warm"] / points if points else 0.0,
    })
    return {
        metric: values[metric]
        for entry_points, metrics in LAYERS.values()
        if tracer.wrapped.issuperset(entry_points)
        for metric in metrics
    }


def _rate(instructions: int, seconds: float) -> float:
    return instructions / seconds / 1e6 if seconds > 0 else 0.0


def install_op_counter(workload) -> None:
    """Untraced runs: count every simulator invocation (functional run
    or timing replay) in ``workload.ops``; no spans, no timing."""
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.ooo.pipeline import OoOSimulator

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            workload.ops += 1
            return fn(*args, **kwargs)
        return wrapper

    _rebind(FunctionalSimulator, "run", counted)
    _rebind(OoOSimulator, "simulate", counted)
