"""Outside-in per-layer tracer for the benchmark's traced pass.

Each layer is named after a ``src/repro/`` package and listed here as
the public functions and methods that enter it.  :class:`LayerTracer`
wraps them in place (class attribute or module attribute, plus every
re-export of a module function across loaded ``repro`` modules) and
restores the originals afterwards; nothing in ``src/`` is edited.  A
name that no longer exists is skipped and its layer reports 0 calls,
so renaming or deleting a hook never breaks the benchmark.

Hot calls keep aggregates only: count, total and self nanoseconds (a
call's duration minus the wrapped calls nested in it) and, for arbiter
``select``, a fixed histogram.  The few coarse calls (``run_points``,
``run_point``, ``run_simulation``, ``CMPSystem.run``) also keep spans
in memory, tagged with a point id shared by everything one
``run_point`` call causes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Dict, List, Optional, Tuple

#: Layer -> [(module, attribute)].  ``Class.*`` wraps every public plain
#: method defined on the class; a bare name is a module-level function.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "system": [
        ("repro.system.cmp", "CMPSystem.run"),
        ("repro.system.simulator", "run_simulation"),
    ],
    "cpu": [
        ("repro.cpu.core_model", "CoreModel.tick"),
        ("repro.cpu.core_model", "CoreModel.on_response"),
        ("repro.cpu.core_model", "CoreModel.fast_forward"),
    ],
    "cache": [
        ("repro.cache.l2", "SharedL2.accept"),
        ("repro.cache.bank", "CacheBank.tick"),
        ("repro.cache.bank", "CacheBank.next_event"),
        ("repro.system.batch_kernel", "_tick_bank"),
    ],
    "core": [
        ("repro.core.arbiter", "FCFSArbiter.select"),
        ("repro.core.arbiter", "FCFSArbiter.enqueue"),
        ("repro.core.arbiter", "RoWFCFSArbiter.select"),
        ("repro.core.arbiter", "RoWFCFSArbiter.enqueue"),
        ("repro.core.vpc_arbiter", "VPCArbiter.select"),
        ("repro.core.vpc_arbiter", "VPCArbiter.enqueue"),
        ("repro.core.capacity", "VPCCapacityManager.*"),
    ],
    "memory": [
        ("repro.memory.controller", "MemoryController.tick"),
        ("repro.memory.dram", "DRAMChannel.tick"),
        ("repro.memory.fq_scheduler", "SharedDRAMChannel.tick"),
    ],
    "interconnect": [
        ("repro.interconnect.crossbar", "Crossbar.send_request"),
        ("repro.interconnect.crossbar", "Crossbar.send_response"),
        ("repro.interconnect.crossbar", "Crossbar.deliver_requests"),
        ("repro.interconnect.crossbar", "Crossbar.deliver_responses"),
    ],
    # Trace generators: the returned iterator is wrapped too, so each
    # item pulled counts as one call of this layer.
    "workloads": [
        ("repro.workloads.synthetic", "synthetic_trace"),
        ("repro.workloads.microbench", "loads_trace"),
        ("repro.workloads.microbench", "stores_trace"),
        ("repro.workloads.phased", "phased_trace"),
    ],
    "telemetry": [
        ("repro.telemetry.bus", "TelemetryBus.*"),
        ("repro.telemetry.metrics", "MetricsCollector.*"),
        ("repro.telemetry.attribution", "InterferenceAttributor.*"),
        ("repro.telemetry.cycles", "CycleAccounting.*"),
        ("repro.telemetry.requests", "RequestTracer.*"),
    ],
    "experiments": [
        ("repro.experiments.parallel", "run_points"),
        ("repro.experiments.parallel", "run_point"),
        ("repro.experiments.parallel", "_cache_load"),
        ("repro.experiments.parallel", "_cache_store"),
    ],
}

#: Calls that also record spans (the blocking chain of one point).
SPANNED = {"run_points", "run_point", "run_simulation", "CMPSystem.run"}
#: Calls whose result is an iterator to time item by item.
GENERATORS = {"workloads"}

#: ``select`` self-time histogram: 25 ns buckets up to 20 us, plus
#: overflow (self time, so hooks a view hangs on a grant do not count).
HIST_NS = 25
HIST_BUCKETS = 800


class Stat:
    """Aggregates of one wrapped callable."""

    __slots__ = ("layer", "name", "calls", "total_ns", "self_ns",
                 "empty", "hist")

    def __init__(self, layer: str, name: str, hist: bool = False) -> None:
        self.layer = layer
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.empty = 0  # calls that returned None (arbiter select)
        self.hist = [0] * (HIST_BUCKETS + 1) if hist else None

    def quantile_ns(self, fraction: float) -> float:
        """Upper edge of the histogram bucket holding ``fraction``."""
        total = sum(self.hist)
        if not total:
            return 0.0
        rank = fraction * total
        seen = 0
        for index, count in enumerate(self.hist):
            seen += count
            if seen >= rank:
                return float((index + 1) * HIST_NS)
        return float((HIST_BUCKETS + 1) * HIST_NS)


class LayerTracer:
    """Wraps every function in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.stats: List[Stat] = []
        self.spans: List[Dict] = []
        #: Kernel skip counters summed over traced ``CMPSystem.run`` calls.
        self.kernel = {"cycles": 0, "skipped": 0, "attempts": 0, "taken": 0}
        self._restore: List[Tuple[object, str, object, bool]] = []
        # _stack[-1] accumulates the durations of wrapped calls nested in
        # the innermost open wrapped call; _stack[0] is the root.
        self._stack: List[int] = [0]
        self._open_spans: List[int] = []
        self._point: Optional[int] = None
        self._points = 0

    # -------------------------------------------------------------- #
    # Installation.
    # -------------------------------------------------------------- #

    def install(self) -> "LayerTracer":
        for layer, entries in LAYERS.items():
            for module_name, attr in entries:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                owner_name, _, method = attr.rpartition(".")
                if not owner_name:
                    self._wrap_function(layer, module, attr)
                    continue
                owner = getattr(module, owner_name, None)
                if not inspect.isclass(owner):
                    continue
                if method == "*":
                    names = [name for name, value in vars(owner).items()
                             if not name.startswith("_")
                             and inspect.isfunction(value)]
                else:
                    names = [method]
                for name in names:
                    self._wrap_method(layer, owner, name)
        return self

    def uninstall(self) -> None:
        for owner, name, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_method(self, layer: str, owner, name: str) -> None:
        static = inspect.getattr_static(owner, name, None)
        if not inspect.isfunction(static):
            return  # missing, property, staticmethod or classmethod
        qualname = f"{owner.__name__}.{name}"
        stat = self._stat(layer, qualname, hist=(layer == "core"
                                                 and name == "select"))
        self._restore.append((owner, name, static, name in vars(owner)))
        setattr(owner, name, self._wrapper(static, stat, qualname))

    def _wrap_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name, None)
        if not inspect.isfunction(original):
            return
        stat = self._stat(layer, name)
        wrapped = self._wrapper(original, stat, name)
        # Patch every loaded repro module that imported the function by
        # name, so callers resolving it through their own globals see
        # the wrapper too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, alias, original, True))
                    setattr(mod, alias, wrapped)

    def _stat(self, layer: str, name: str, hist: bool = False) -> Stat:
        stat = Stat(layer, name, hist)
        self.stats.append(stat)
        return stat

    # -------------------------------------------------------------- #
    # Wrappers.
    # -------------------------------------------------------------- #

    def _wrapper(self, fn, stat: Stat, name: str):
        if name in SPANNED:
            return self._span_wrapper(fn, stat, name)
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns
        if stat.layer in GENERATORS:
            def generator_wrapper(*args, **kwargs):
                return _TimedIterator(fn(*args, **kwargs), stat, stack)
            return generator_wrapper
        if stat.hist is not None:
            hist = stat.hist
            last = HIST_BUCKETS

            def select_wrapper(*args, **kwargs):
                push(0)
                start = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    elapsed = clock() - start
                    child = pop()
                    stat.calls += 1
                    stat.total_ns += elapsed
                    stat.self_ns += elapsed - child
                    stack[-1] += elapsed
                    if result is None:
                        stat.empty += 1
                    bucket = (elapsed - child) // HIST_NS
                    hist[bucket if bucket < last else last] += 1
            return select_wrapper

        def wrapper(*args, **kwargs):
            push(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - child
                stack[-1] += elapsed
        return wrapper

    def _span_wrapper(self, fn, stat: Stat, name: str):
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        kernel = self.kernel
        clock = time.perf_counter_ns
        is_run = name == "CMPSystem.run"

        def span_wrapper(*args, **kwargs):
            if name == "run_point":
                self._point = self._points
                self._points += 1
            span = {"id": len(spans), "name": name,
                    "parent": open_spans[-1] if open_spans else None,
                    "point": self._point}
            spans.append(span)
            open_spans.append(span["id"])
            if is_run:
                system = args[0]
                before = _skip_counters(system)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - child
                stack[-1] += elapsed
                span["start_ns"] = start
                span["end_ns"] = end
                open_spans.pop()
                if is_run:
                    after = _skip_counters(system)
                    span["cycles"] = (args[1] if len(args) > 1
                                      else kwargs.get("cycles", 0))
                    span["skipped"] = after[0] - before[0]
                    kernel["cycles"] += span["cycles"]
                    for key, old, new in zip(("skipped", "attempts", "taken"),
                                             before, after):
                        kernel[key] += new - old
                if name == "run_point":
                    self._point = None
        return span_wrapper

    # -------------------------------------------------------------- #
    # Results.
    # -------------------------------------------------------------- #

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Layer -> summed calls/total_ns/self_ns over its wrapped names."""
        totals = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0}
                  for layer in LAYERS}
        for stat in self.stats:
            row = totals[stat.layer]
            row["calls"] += stat.calls
            row["total_ns"] += stat.total_ns
            row["self_ns"] += stat.self_ns
        return totals

    def by_name(self, *names: str) -> Tuple[int, int]:
        """(calls, self_ns) summed over the wrapped callables ``names``."""
        calls = self_ns = 0
        for stat in self.stats:
            if stat.name in names:
                calls += stat.calls
                self_ns += stat.self_ns
        return calls, self_ns

    def select_stats(self) -> Stat:
        """One histogram merged over every arbiter class's ``select``."""
        merged = Stat("core", "select", hist=True)
        for stat in self.stats:
            if stat.hist is not None:
                merged.calls += stat.calls
                merged.empty += stat.empty
                merged.hist = [a + b for a, b in zip(merged.hist, stat.hist)]
        return merged


def _skip_counters(system) -> Tuple[int, int, int]:
    return (getattr(system, "skipped_cycles", 0),
            getattr(system, "skip_attempts", 0),
            getattr(system, "skips_taken", 0))


class _TimedIterator:
    """A trace iterator whose every item is timed as one layer call."""

    __slots__ = ("_next", "_stat", "_stack")

    def __init__(self, iterator, stat: Stat, stack: List[int]) -> None:
        self._next = iter(iterator).__next__
        self._stat = stat
        self._stack = stack

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._stack
        stack.append(0)
        start = time.perf_counter_ns()
        try:
            return self._next()
        finally:
            elapsed = time.perf_counter_ns() - start
            child = stack.pop()
            stat = self._stat
            stat.calls += 1
            stat.total_ns += elapsed
            stat.self_ns += elapsed - child
            stack[-1] += elapsed
