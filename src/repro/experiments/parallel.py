"""Parallel experiment execution and the on-disk target-IPC cache.

Every figure/sweep is a collection of *independent* simulation points
(separate :class:`~repro.system.cmp.CMPSystem` instances, no shared
state), so they parallelize trivially across processes.  A point is
described by a :class:`SimPoint` — a frozen, picklable value object —
and realized by the module-level :func:`run_point` so worker processes
can unpickle and execute it.

Two mechanisms, both off by default and switched from the CLI
(``--jobs N`` / ``--no-cache`` on ``python -m repro.experiments``):

* **fan-out** — :func:`run_points` dispatches points to a
  ``ProcessPoolExecutor`` when more than one job is configured;
* **target cache** — points flagged ``cacheable`` (the
  ``private_equivalent`` target-IPC runs that fig8/fig9/fig10 and the
  ablations re-run with identical parameters every invocation) are
  memoized on disk, keyed by a content hash of the full point
  description.  The cache lives at ``$REPRO_CACHE_DIR`` (or
  ``~/.cache/repro-vpc``); bump :data:`CACHE_VERSION` in any PR that
  changes simulated behavior.

Determinism makes both safe: traces are seeded PRNG streams, so a point
simulates bit-identically in any process on any host, and a cached
result is exactly what a fresh run would produce.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.system.cmp import CMPSystem
from repro.system.kernel import DEFAULT_KERNEL, KERNELS
from repro.system.simulator import SimulationResult, run_simulation
from repro.telemetry.events import CAT_RUN, PH_COMPLETE, PH_INSTANT, TraceEvent

# Bump whenever a change alters simulation results; stale entries are
# then simply never looked up again.
CACHE_VERSION = 1

# Module-level execution policy, set once from the CLI via configure().
_jobs = 1
_cache_enabled = True
# Optional observers (repro.telemetry): a ProgressReporter that gets a
# callback per completed point, and a TelemetryBus that receives
# wall-clock orchestration events.  Unlike jobs/cache these are RESET by
# every configure() call, so test fixtures and benchmark setup that pin
# the execution policy also restore "no observers".
_progress = None
_telemetry = None
# Metrics collection window in cycles (None = off).  When set, every
# point runs with a MetricsCollector + InterferenceAttributor attached
# (built inside the worker process — the window travels to workers as an
# explicit run_point argument, never as process-global state) and the
# snapshot rides back on SimulationResult.metrics.
_metrics_window: Optional[int] = None
# Live observability feed (repro.telemetry.server.LiveRun) for --serve:
# workers stream per-window snapshots/heartbeats/QoS violations to it
# mid-point.  Requires metrics collection; reset by every configure().
_live = None
# Cycle accounting (repro.telemetry.cycles): when True every point runs
# with a CycleAccounting attached and the CPI-stack snapshot rides back
# on SimulationResult.cpi_stacks (and, when metrics are also on, inside
# the metrics snapshot as "cpi_stacks" so aggregates carry it).  Reset
# by every configure() like the observers.
_cpi_stacks = False
# Resilience policy (repro.resilience.fleet.ResilienceConfig): when set,
# run_points() routes through the fault-tolerant fleet — journaled run
# directory, per-point checkpoints, timeouts/retries.  Reset by every
# configure() like the observers; None keeps the fast pool path with
# zero resilience overhead.
_resilience = None
# Simulation kernel every point runs under ("cycle" | "batch").  Sticky
# like jobs/cache: an execution policy, not an observer.  The kernels
# are bit-identical (tests/test_kernel_equivalence.py), so the choice
# affects wall time only — which is also why kernel is deliberately NOT
# part of SimPoint/cache_key: a cached result is valid under any kernel.
_kernel = DEFAULT_KERNEL
# Host-time orchestration span tracer (repro.telemetry.spans.SpanTracer)
# for --spans: run_points opens batch/point spans on it and propagates a
# SpanContext to workers when a live feed exists so their spans travel
# home over the same wire.  Reset by every configure() like the
# observers; None keeps every producer at a single is-not-None test.
_spans = None
# Request-scope tracing (repro.telemetry.requests): when True every
# single-threaded-per-core point runs with a RequestTracer attached and
# the per-thread tail-latency document rides back on
# SimulationResult.requests (and, when metrics are also on, inside the
# metrics snapshot as "requests" so aggregates and report cards carry
# it).  _slo is the tuple of SLORule declarations evaluated into each
# document.  Reset by every configure() like the observers.
_requests = False
_slo: Tuple = ()
# Policy-family override (--policy on the experiments runner): remaps
# every multi-thread point's arbiter/capacity/controller before it runs
# ("fcfs" | "vpc" | "lfoc"; None = leave points as authored).  Solo
# (1-thread) points — the private-equivalent targets — are never
# remapped.  Reset by every configure() like the observers.
_policy: Optional[str] = None
# QoS controller override (--controller): attach this repro.qos
# controller to every multi-thread point, with _epoch as its epoch
# length (None = the points' own epoch_cycles).  Reset like _policy.
_controller: Optional[str] = None
_epoch: Optional[int] = None

#: Policy-family presets shared with the CLIs: arbiter, capacity
#: policy, and controller implied by each ``--policy`` name.
POLICIES = ("fcfs", "vpc", "lfoc")

#: hits/misses observability (tests assert on this; reset via configure).
cache_stats: Dict[str, int] = {"hits": 0, "misses": 0}

#: Metrics snapshots of completed points, in point order, accumulated
#: across run_points() batches; the experiment runner drains this per
#: experiment via drain_metrics().  Empty unless metrics are configured.
metrics_log: List[Dict] = []


def configure(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    progress=None,
    telemetry=None,
    metrics: Optional[int] = None,
    live=None,
    resilience=None,
    kernel: Optional[str] = None,
    cpi_stacks: bool = False,
    spans=None,
    requests: bool = False,
    slo: Sequence = (),
    policy: Optional[str] = None,
    controller: Optional[str] = None,
    epoch: Optional[int] = None,
) -> None:
    """Set the process-wide execution policy (``jobs=0`` → all CPUs).

    ``metrics`` is a cycle-window size enabling per-point metrics
    collection; like the observers it is reset by every call.  ``live``
    is a :class:`repro.telemetry.server.LiveRun` feed for the ``--serve``
    observability plane — it needs window snapshots to stream, so it
    requires ``metrics``.  ``resilience`` is a
    :class:`repro.resilience.fleet.ResilienceConfig` routing execution
    through the journaled, checkpointing, fault-tolerant fleet.

    ``cpi_stacks`` enables per-thread cycle accounting
    (:mod:`repro.telemetry.cycles`) on every point; like the observers
    it is reset by every call.

    ``spans`` is a :class:`repro.telemetry.spans.SpanTracer` for host-
    time orchestration tracing (``--spans``): batches and points get
    wall-clock spans, cache hits/misses get instants, and — when a live
    feed is also configured — workers are handed a
    :class:`~repro.telemetry.spans.SpanContext` so their spans stream
    home over the feed channel.  Reset by every call like the observers.

    ``requests`` enables per-request latency tracing
    (:mod:`repro.telemetry.requests`) on every point whose cores run one
    hardware thread each; ``slo`` is a sequence of
    :class:`~repro.telemetry.requests.SLORule` evaluated into each
    point's document.  Like the observers both are reset by every call.

    ``kernel`` selects the simulation kernel every point runs under
    (``cycle``/``batch`` — bit-identical, wall time only).

    ``policy`` ("fcfs"/"vpc"/"lfoc") remaps every multi-thread point's
    arbiter, capacity policy, and QoS controller to one policy family
    before it runs; ``controller`` ("lfoc"/"fairness") attaches a
    :mod:`repro.qos` controller to every multi-thread point, and
    ``epoch`` overrides the controller epoch length.  Solo points (the
    private-equivalent targets) are never remapped.  All three reset on
    every call like the observers.
    """
    global _jobs, _cache_enabled, _progress, _telemetry, _metrics_window
    global _live, _resilience, _kernel, _cpi_stacks, _spans
    global _requests, _slo, _policy, _controller, _epoch
    if jobs is not None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        _jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
    if cache is not None:
        _cache_enabled = cache
    if kernel is not None:
        if kernel not in KERNELS:
            raise ValueError(f"unknown simulation kernel {kernel!r}; "
                             f"choose from {sorted(KERNELS)}")
        _kernel = kernel
    if metrics is not None and metrics < 1:
        raise ValueError(f"metrics window must be >= 1 cycle, got {metrics}")
    if live is not None and metrics is None:
        raise ValueError("live streaming requires a metrics window")
    if slo and not requests:
        raise ValueError("SLO rules require request tracing")
    if requests and resilience is not None:
        raise ValueError("the resilient fleet does not carry request "
                         "traces across checkpoints; drop --requests or "
                         "the run dir")
    if policy is not None and policy not in POLICIES:
        raise ValueError(f"unknown policy family {policy!r}; "
                         f"choose from {POLICIES}")
    if controller is not None:
        from repro.qos import CONTROLLERS
        if controller not in CONTROLLERS:
            raise ValueError(f"unknown QoS controller {controller!r}; "
                             f"choose from {CONTROLLERS}")
        if policy == "fcfs":
            raise ValueError("a QoS controller needs VPC share registers; "
                             "it cannot ride the fcfs policy family")
    if epoch is not None and epoch < 1:
        raise ValueError(f"controller epoch must be >= 1 cycle, got {epoch}")
    _progress = progress
    _telemetry = telemetry
    _metrics_window = metrics
    _live = live
    _resilience = resilience
    _cpi_stacks = cpi_stacks
    _spans = spans
    _requests = requests
    _slo = tuple(slo)
    _policy = policy
    _controller = controller
    _epoch = epoch
    cache_stats["hits"] = 0
    cache_stats["misses"] = 0
    metrics_log.clear()


def configured_live():
    """The LiveRun feed configured for this process, if any."""
    return _live


def configured_resilience():
    """The ResilienceConfig configured for this process, if any."""
    return _resilience


def configured_spans():
    """The host-time SpanTracer configured for this process, if any."""
    return _spans


def drain_metrics() -> List[Dict]:
    """Hand over (and clear) the accumulated per-point snapshots."""
    drained = list(metrics_log)
    metrics_log.clear()
    return drained


def cache_summary() -> Optional[str]:
    """One-line hit/miss summary of the run so far (None if untouched)."""
    if not (cache_stats["hits"] or cache_stats["misses"]):
        return None
    return (f"target cache: {cache_stats['hits']} hits, "
            f"{cache_stats['misses']} misses ({cache_dir()})")


def configured_jobs() -> int:
    return _jobs


def configured_kernel() -> str:
    """The simulation kernel points run under ("cycle"/"batch")."""
    return _kernel


def configured_cpi_stacks() -> bool:
    """Whether per-point cycle accounting is enabled for this process."""
    return _cpi_stacks


def configured_requests() -> bool:
    """Whether per-point request tracing is enabled for this process."""
    return _requests


def configured_policy() -> Optional[str]:
    """The policy-family override for this process, if any."""
    return _policy


def configured_controller() -> Optional[str]:
    """The QoS-controller override for this process, if any."""
    return _controller


def apply_policy(point: "SimPoint") -> "SimPoint":
    """Remap one point to the configured policy family / controller.

    Solo (1-thread) points pass through untouched: they are the
    private-equivalent targets every policy normalizes against, and
    remapping them would also orphan their cache entries.  Multi-thread
    points get their arbiter, capacity policy, and controller rewritten
    — the rewritten point is what runs, caches, and pickles, so worker
    processes need no knowledge of the override.
    """
    if (_policy is None and _controller is None) \
            or point.config.n_threads == 1:
        return point
    updates: Dict = {}
    if _policy == "fcfs":
        updates["config"] = replace(point.config, arbiter="fcfs")
        updates["capacity_policy"] = "lru"
        updates["controller"] = None
    elif _policy == "vpc":
        updates["config"] = replace(point.config, arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = None
    elif _policy == "lfoc":
        updates["config"] = replace(point.config, arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = "lfoc"
    if _controller is not None:
        updates["config"] = replace(
            updates.get("config", point.config), arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = _controller
    if _epoch is not None and (
            updates.get("controller") or point.controller):
        updates["epoch_cycles"] = _epoch
    return replace(point, **updates) if updates else point


@dataclass(frozen=True)
class SimPoint:
    """One simulation: a system configuration plus seeded trace specs.

    ``traces`` holds one spec per hardware thread:

    * ``("loads",)`` / ``("stores",)`` — the microbenchmarks;
    * ``("micro", name)`` — any entry of ``MICROBENCHMARKS``;
    * ``("spec", name)`` — a SPEC stand-in profile;
    * ``("synthetic", profile)`` — an explicit ``WorkloadProfile``;
    * ``("phased", name)`` — a named phase-changing schedule;
    * ``("phased-inline", text)`` — an inline phased schedule.

    Thread ids are positional.  Everything here is a frozen dataclass or
    a primitive, so a point pickles to workers and ``repr`` is a stable
    content key.
    """

    config: SystemConfig
    traces: Tuple[Tuple, ...]
    warmup: int
    measure: int
    capacity_policy: str = "vpc"
    intra_thread_row: bool = True
    vpc_selection: str = "finish"
    smt_degree: int = 1
    # Only target-IPC points (re-run with identical parameters on every
    # experiment invocation) should set this; workload points are cheap
    # relative to their disk-churn and cache-invalidation risk.
    cacheable: bool = False
    # Dynamic QoS control plane (repro.qos): a controller name
    # ("lfoc"/"fairness") attached to the point's system, its epoch
    # length, and optional solo-baseline IPCs handed to the controller
    # as slowdown targets.  Part of the frozen value object, so it is
    # in the cache key and travels to workers with the point.
    controller: Optional[str] = None
    epoch_cycles: int = 5_000
    controller_targets: Optional[Tuple[float, ...]] = None


def _build_trace(spec: Tuple, thread_id: int):
    kind = spec[0]
    if kind == "loads":
        from repro.workloads.microbench import loads_trace
        return loads_trace(thread_id)
    if kind == "stores":
        from repro.workloads.microbench import stores_trace
        return stores_trace(thread_id)
    if kind == "micro":
        from repro.workloads.microbench import MICROBENCHMARKS
        return MICROBENCHMARKS[spec[1]](thread_id)
    if kind == "spec":
        from repro.workloads.profiles import spec_trace
        return spec_trace(spec[1], thread_id)
    if kind == "synthetic":
        from repro.workloads.synthetic import synthetic_trace
        return synthetic_trace(spec[1], thread_id)
    if kind == "phased":
        from repro.workloads.profiles import phased_profile_trace
        return phased_profile_trace(spec[1], thread_id)
    if kind == "phased-inline":
        from repro.workloads.phased import parse_phased, phased_trace
        return phased_trace(parse_phased(spec[1]), thread_id)
    raise ValueError(f"unknown trace spec {spec!r}")


def _point_controller(system, point: SimPoint) -> None:
    """Attach the point's QoS controller, if any (after the observers,
    so the controller's private collector lands on the final bus)."""
    if point.controller is None:
        return
    from repro.qos import make_controller
    system.attach_qos_controller(make_controller(
        point.controller,
        point.config.n_threads,
        epoch_cycles=point.epoch_cycles,
        baseline_ipcs=point.controller_targets,
    ))


def _point_observers(system, point: SimPoint, metrics_window: Optional[int]):
    """Attach the standard per-point observers (collector + attributor)
    on a private bus; returns ``(metrics, attributor)`` (both None when
    metrics are off)."""
    if metrics_window is None:
        return None, None
    from repro.telemetry import (
        InterferenceAttributor,
        MetricsCollector,
        TelemetryBus,
    )
    bus = system.attach_telemetry(TelemetryBus())
    metrics = bus.attach(MetricsCollector(
        point.config.n_threads, window=metrics_window))
    attributor = bus.attach(InterferenceAttributor(
        point.config.n_threads))
    return metrics, attributor


def run_point(
    point: SimPoint,
    metrics_window: Optional[int] = None,
    feed=None,
    index: Optional[int] = None,
    checkpoint=None,
    resumable: bool = False,
    kernel: Optional[str] = None,
    cpi_stacks: bool = False,
    span_ctx=None,
    requests: bool = False,
    slo_rules: Sequence = (),
) -> SimulationResult:
    """Simulate one point from scratch (no cache involvement).

    With ``metrics_window`` set the point runs fully observed — metrics
    collector plus interference attributor on a private bus — and the
    combined snapshot returns on ``SimulationResult.metrics`` (a plain
    dict, so it pickles home from worker processes).

    ``feed`` is a queue-like live-observability sink (``put(tuple)``):
    when given (requires ``metrics_window``), the point streams one
    snapshot per measurement window plus QoS-violation instants while
    it simulates, tagged with ``index`` (the point's global number in
    its run) and this worker's pid.  Observation only — the simulated
    result is bit-identical with or without a feed.

    ``kernel`` picks the simulation kernel ("cycle"/"batch"; ``None``
    keeps the default).  Kernels are bit-identical, so
    it travels to worker processes as an explicit argument but never
    into the point's cache key.

    ``cpi_stacks`` attaches per-thread cycle accounting (skipped for SMT
    points, like ``requests``); the stack document returns on
    ``SimulationResult.cpi_stacks`` and — when metrics are also
    collected — is mirrored into the metrics snapshot as
    ``"cpi_stacks"`` so experiment aggregates carry it per point.

    ``span_ctx`` is a :class:`repro.telemetry.spans.SpanContext`
    (requires ``feed``): the point's simulation is wrapped in a worker-
    side host-time span that streams home as a ``("span", ...)`` tuple,
    parented under the parent-side span that scheduled this point.

    ``requests`` attaches per-request latency tracing (skipped for SMT
    points — journeys assume one thread per core); the tail-latency
    document returns on ``SimulationResult.requests`` and — when
    metrics are also collected — is mirrored into the metrics snapshot
    as ``"requests"``.  ``slo_rules`` are evaluated into the document.
    """
    if feed is not None and metrics_window is None:
        raise ValueError("a live feed requires a metrics window")
    if resumable:
        # Checkpointable runs wrap each trace in a picklable cursor
        # (spec + items consumed); plain runs keep the raw generators —
        # the zero-overhead path when resilience is off.
        from repro.resilience.snapshot import ResumableTrace
        traces = [
            ResumableTrace(spec, tid)
            for tid, spec in enumerate(point.traces)
        ]
    else:
        traces = [
            _build_trace(spec, tid) for tid, spec in enumerate(point.traces)
        ]
    system = CMPSystem(
        point.config,
        traces,
        capacity_policy=point.capacity_policy,
        intra_thread_row=point.intra_thread_row,
        vpc_selection=point.vpc_selection,
        smt_degree=point.smt_degree,
        kernel=kernel or DEFAULT_KERNEL,
    )
    if point.smt_degree == 1:
        # Both views assume one hardware thread per core; SMT points
        # run without them.
        if cpi_stacks:
            system.attach_cycle_accounting()
        if requests:
            system.attach_request_tracing(slo_rules=slo_rules)
    metrics, attributor = _point_observers(system, point, metrics_window)
    _point_controller(system, point)
    on_window = None
    monitor = None
    if feed is not None:
        worker = os.getpid()
        feed.put(("start", index, worker))
        if point.config.arbiter == "vpc":
            from repro.core.monitor import QoSMonitor
            monitor = QoSMonitor(system, window=metrics_window)
        violations_sent = 0

        def on_window(cycle: int) -> None:
            nonlocal violations_sent
            snapshot = metrics.snapshot()
            snapshot["attribution"] = attributor.snapshot()
            snapshot["arbiter"] = point.config.arbiter
            if system.cycle_accounting is not None:
                snapshot["cpi_stacks"] = system.cycle_accounting.snapshot(
                    cycle)
            if system.request_tracer is not None:
                snapshot["requests"] = system.request_tracer.document(cycle)
            feed.put(("window", index, worker, cycle, snapshot))
            if monitor is not None:
                # Window boundaries close lazily on events; force the
                # elapsed ones shut so fresh violations surface now.
                monitor.finish(cycle)
                for violation in monitor.violations[violations_sent:]:
                    feed.put(("violation", index, worker,
                              asdict(violation)))
                violations_sent = len(monitor.violations)

    worker_span = worker_tracer = None
    if span_ctx is not None and feed is not None:
        from repro.telemetry.spans import TRACK_WORKER, SpanTracer
        worker_tracer = SpanTracer(feed=feed, index=index, context=span_ctx)
        worker_span = worker_tracer.begin(
            f"simulate.point{index}", TRACK_WORKER,
            warmup=point.warmup, measure=point.measure,
        )
    try:
        result = run_simulation(
            system, warmup=point.warmup, measure=point.measure,
            metrics=metrics, on_window=on_window, checkpoint=checkpoint,
        )
    except BaseException as exc:
        if worker_tracer is not None:
            worker_tracer.end(worker_span, error=type(exc).__name__)
        raise
    if worker_tracer is not None:
        worker_tracer.end(worker_span, cycles=system.cycle)
    if attributor is not None:
        attributor.finish(system.cycle)
        result.metrics["attribution"] = attributor.snapshot()
        result.metrics["arbiter"] = point.config.arbiter
        if result.cpi_stacks is not None:
            result.metrics["cpi_stacks"] = result.cpi_stacks
        if result.requests is not None:
            result.metrics["requests"] = result.requests
    if monitor is not None:
        monitor.finish(system.cycle)
        for violation in monitor.violations[violations_sent:]:
            feed.put(("violation", index, os.getpid(), asdict(violation)))
    return result


# ---------------------------------------------------------------------- #
# Content-addressed result cache.
# ---------------------------------------------------------------------- #

def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-vpc"


def cache_key(point: SimPoint) -> str:
    """Content hash of the full point description.

    Frozen-dataclass reprs include every field recursively, so any
    config/trace/interval difference changes the key.
    """
    text = f"v{CACHE_VERSION}:{point!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def _cache_load(point: SimPoint) -> Optional[SimulationResult]:
    path = cache_dir() / f"{cache_key(point)}.json"
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError, EOFError, pickle.UnpicklingError):
        # Truncated or otherwise corrupt entry (a crashed writer, a torn
        # disk): treat as a miss and evict it so it cannot shadow the
        # fresh result we are about to store.
        _cache_evict(path)
        return None
    try:
        return SimulationResult(**payload)
    except TypeError:
        _cache_evict(path)
        return None  # field set drifted without a CACHE_VERSION bump


def _cache_evict(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # cache hygiene is best-effort; never fail the run for it


def _cache_store(point: SimPoint, result: SimulationResult) -> None:
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{cache_key(point)}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(asdict(result)))
        tmp.replace(path)  # atomic: concurrent writers race benignly
    except OSError:
        pass  # cache is an optimization; never fail the run for it


# ---------------------------------------------------------------------- #
# Fan-out.
# ---------------------------------------------------------------------- #

def run_points(points: Sequence[SimPoint]) -> List[SimulationResult]:
    """Run every point, in order, honoring the configured jobs/cache.

    Cached results are returned without simulating; the remainder run on
    a process pool when more than one job is configured (and there is
    more than one point to run), inline otherwise.  Completions are
    consumed as they land (not in submission order) so the configured
    progress reporter ticks live; result order is positional and
    unaffected.  Orchestration telemetry (``CAT_RUN``) is wall-clock
    microseconds from batch start — a different time base from the
    simulation's cycle-stamped events, kept apart by track name.

    With a resilience policy configured the batch instead routes through
    the journaled fleet (``repro.resilience.fleet``): completed points
    replayed from the run directory, survivors checkpointed, failures
    retried with backoff.
    """
    if _policy is not None or _controller is not None:
        points = [apply_policy(point) for point in points]
    if _resilience is not None:
        from repro.resilience import fleet
        results_r = fleet.run_points_resilient(
            points, _resilience, jobs=_jobs,
            metrics_window=_metrics_window, progress=_progress, live=_live,
            kernel=_kernel, cpi_stacks=_cpi_stacks, spans=_spans,
        )
        if _metrics_window is not None:
            metrics_log.extend(
                result.metrics for result in results_r
                if result is not None and result.metrics is not None
            )
        return results_r
    results: List[Optional[SimulationResult]] = [None] * len(points)
    todo: List[int] = []
    progress = _progress
    telemetry = _telemetry
    metrics_window = _metrics_window
    live = _live
    base = live.begin_batch(len(points)) if live is not None else 0
    cpi_stacks = _cpi_stacks
    requests = _requests
    slo = _slo
    spans = _spans
    batch_span = None
    open_points: Dict[int, object] = {}
    if spans is not None:
        from repro.telemetry.spans import TRACK_SCHED
        batch_span = spans.begin("batch", points=len(points))
    # Metrics runs bypass the cache entirely: cached results carry no
    # snapshots, and polluting the cache with observed runs would make
    # hit results depend on observability settings.  Cycle-accounted
    # and request-traced runs bypass it for the same reason (stacks and
    # tail-latency documents are observability).
    use_cache = (_cache_enabled and metrics_window is None
                 and not cpi_stacks and not requests)
    batch_t0 = time.monotonic()

    def wall_us() -> int:
        return int((time.monotonic() - batch_t0) * 1e6)

    if progress is not None:
        progress.begin(len(points))
    for index, point in enumerate(points):
        if use_cache and point.cacheable:
            cached = _cache_load(point)
            if cached is not None:
                cache_stats["hits"] += 1
                results[index] = cached
                if spans is not None:
                    spans.instant("cache-hit", TRACK_SCHED,
                                  parent=batch_span, point=index)
                if telemetry is not None:
                    telemetry.emit(TraceEvent(
                        ts=wall_us(), phase=PH_INSTANT, category=CAT_RUN,
                        name="cache-hit", track="run.points",
                        args={"point": index},
                    ))
                if progress is not None:
                    progress.point_done(cached=True)
                continue
            cache_stats["misses"] += 1
            if spans is not None:
                spans.instant("cache-miss", TRACK_SCHED,
                              parent=batch_span, point=index)
        todo.append(index)

    def finish(index: int, result: SimulationResult, started_us: int) -> None:
        results[index] = result
        if use_cache and points[index].cacheable:
            _cache_store(points[index], result)
        if telemetry is not None:
            telemetry.emit(TraceEvent(
                ts=started_us, phase=PH_COMPLETE, category=CAT_RUN,
                name=f"point{index}", track="run.points",
                dur=max(1, wall_us() - started_us),
                args={"point": index},
            ))
        if live is not None:
            live.point_done(base + index, result.metrics)
        if spans is not None:
            sched_span = open_points.pop(index, None)
            if sched_span is not None:
                spans.end(sched_span, cycles=result.cycles)
        if progress is not None:
            progress.point_done(cached=False)

    if len(todo) > 1 and _jobs > 1:
        feed = drainer = stop_draining = manager = None
        if live is not None:
            # Workers stream through a managed queue (picklable proxy);
            # this drainer translates the wire tuples into LiveRun calls
            # with the parent's clock and polls for stale heartbeats.
            import multiprocessing
            manager = multiprocessing.Manager()
            feed = manager.Queue()
            stop_draining = threading.Event()

            def drain() -> None:
                import queue as _queue
                while True:
                    try:
                        live.put(feed.get(timeout=0.2))
                    except _queue.Empty:
                        if stop_draining.is_set():
                            return
                        live.check_stale()

            drainer = threading.Thread(target=drain, name="repro-live-drain",
                                       daemon=True)
            drainer.start()
        try:
            pool = ProcessPoolExecutor(max_workers=min(_jobs, len(todo)))
            try:
                pending = {}
                for index in todo:
                    span_ctx = None
                    if spans is not None:
                        open_points[index] = spans.begin(
                            f"point{index}", TRACK_SCHED,
                            parent=batch_span, point=index)
                        if feed is not None:
                            span_ctx = spans.child_context(
                                open_points[index])
                    pending[pool.submit(run_point, points[index],
                                        metrics_window, feed,
                                        base + index,
                                        kernel=_kernel,
                                        cpi_stacks=cpi_stacks,
                                        span_ctx=span_ctx,
                                        requests=requests,
                                        slo_rules=slo)] = (
                        index, wall_us()
                    )
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index, started_us = pending.pop(future)
                        finish(index, future.result(), started_us)
                pool.shutdown()
            except KeyboardInterrupt:
                # Ctrl-C: don't wait for in-flight points (they can be
                # minutes long) — drop the queue and kill the workers so
                # the CLI can report and exit promptly.
                for future in pending:
                    future.cancel()
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        finally:
            if drainer is not None:
                stop_draining.set()
                drainer.join(timeout=10.0)
                manager.shutdown()
    else:
        for index in todo:
            span_ctx = None
            if spans is not None:
                open_points[index] = spans.begin(
                    f"point{index}", TRACK_SCHED, parent=batch_span,
                    point=index)
                if live is not None:
                    span_ctx = spans.child_context(open_points[index])
            finish(index, run_point(points[index], metrics_window, live,
                                    base + index, kernel=_kernel,
                                    cpi_stacks=cpi_stacks,
                                    span_ctx=span_ctx,
                                    requests=requests, slo_rules=slo),
                   wall_us())
    if spans is not None:
        spans.end(batch_span)
    if metrics_window is not None:
        metrics_log.extend(
            result.metrics for result in results
            if result is not None and result.metrics is not None
        )
    return results  # type: ignore[return-value]
