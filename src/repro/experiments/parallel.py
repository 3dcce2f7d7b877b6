"""Parallel experiment execution and the on-disk target-IPC cache.

Every figure/sweep is a collection of *independent* simulation points
(separate :class:`~repro.system.cmp.CMPSystem` instances, no shared
state), so they parallelize trivially across processes.  A point is
described by a :class:`SimPoint` — a frozen, picklable value object —
and realized by the module-level :func:`run_point` so worker processes
can unpickle and execute it.  How a batch runs (jobs, cache, kernel,
views, policy remap, resilience, observers) is one frozen
:class:`RunSpec`, set with :func:`configure` and handed whole to
``run_point`` and the fleet; ``python -m repro`` runs its single point
through the same :class:`PointRun` path.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.system.cmp import CMPSystem
from repro.system.kernel import DEFAULT_KERNEL, KERNELS
from repro.system.simulator import SimulationResult, run_simulation
from repro.telemetry.events import CAT_RUN, PH_COMPLETE, PH_INSTANT, TraceEvent
from repro.workloads import build_trace

# Bump whenever a change alters simulation results; stale entries are
# then simply never looked up again.
CACHE_VERSION = 1

#: Policy-family presets shared with the CLIs: arbiter, capacity
#: policy, and controller implied by each ``--policy`` name.
POLICIES = ("fcfs", "vpc", "lfoc")


@dataclass(frozen=True)
class RunSpec:
    """How a batch of points runs: one validated, immutable value.

    The fields are :func:`configure`'s keywords:

    * ``jobs`` — worker processes (``0`` → all CPUs) and ``cache`` —
      the on-disk target-IPC cache;
    * ``kernel`` — the simulation kernel every point runs under
      (``cycle``/``batch``; bit-identical, wall time only, so it is
      never part of a point's cache key);
    * ``metrics`` — a cycle window enabling per-point metrics
      collection (collector + interference attributor); the snapshot
      rides back on ``SimulationResult.metrics``;
    * ``cpi_stacks`` / ``requests`` — per-thread cycle accounting and
      per-request latency tracing on every point whose cores run one
      hardware thread each, with ``slo`` the
      :class:`~repro.telemetry.requests.SLORule` tuple evaluated into
      each request document;
    * ``policy`` (``fcfs``/``vpc``/``lfoc``), ``controller``
      (``lfoc``/``fairness``) and ``epoch`` — remap every multi-thread
      point onto one policy family / QoS controller (see
      :func:`apply_policy`);
    * ``resilience`` — a :class:`repro.resilience.fleet
      .ResilienceConfig` routing batches through the journaled,
      checkpointing fleet;
    * ``progress``, ``telemetry``, ``live``, ``spans`` — parent-side
      observers: a progress reporter, the trace sink orchestration
      events land in (the runner's ``--trace``
      :class:`~repro.telemetry.bus.RingBufferSink`), the ``--serve``
      :class:`~repro.telemetry.server.LiveRun` feed (which needs
      ``metrics``), and a host-time
      :class:`~repro.telemetry.spans.SpanTracer`.  They hold threads,
      sockets and files, so they never cross into a worker process: a
      pickled spec carries its settings only.
    """

    jobs: int = 1
    cache: bool = True
    progress: object = field(default=None, repr=False, compare=False)
    telemetry: object = field(default=None, repr=False, compare=False)
    metrics: Optional[int] = None
    live: object = field(default=None, repr=False, compare=False)
    resilience: object = None
    kernel: str = DEFAULT_KERNEL
    cpi_stacks: bool = False
    spans: object = field(default=None, repr=False, compare=False)
    requests: bool = False
    slo: Tuple = ()
    policy: Optional[str] = None
    controller: Optional[str] = None
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.jobs == 0:
            object.__setattr__(self, "jobs", os.cpu_count() or 1)
        object.__setattr__(self, "slo", tuple(self.slo))
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown simulation kernel {self.kernel!r}; "
                             f"choose from {sorted(KERNELS)}")
        if self.metrics is not None and self.metrics < 1:
            raise ValueError(
                f"metrics window must be >= 1 cycle, got {self.metrics}")
        if self.live is not None and self.metrics is None:
            raise ValueError("live streaming requires a metrics window")
        if self.slo and not self.requests:
            raise ValueError("SLO rules require request tracing")
        if self.policy is not None and self.policy not in POLICIES:
            raise ValueError(f"unknown policy family {self.policy!r}; "
                             f"choose from {POLICIES}")
        if self.controller is not None:
            from repro.qos import CONTROLLERS
            if self.controller not in CONTROLLERS:
                raise ValueError(f"unknown QoS controller "
                                 f"{self.controller!r}; "
                                 f"choose from {CONTROLLERS}")
            if self.policy == "fcfs":
                raise ValueError("a QoS controller needs VPC share "
                                 "registers; it cannot ride the fcfs "
                                 "policy family")
        if self.epoch is not None and self.epoch < 1:
            raise ValueError(
                f"controller epoch must be >= 1 cycle, got {self.epoch}")

    def __getstate__(self) -> Dict:
        """Pickle the settings only; the observers stay behind."""
        state = dict(self.__dict__)
        state.update(progress=None, telemetry=None, live=None, spans=None)
        return state


#: The process-wide run description, replaced by :func:`configure`.
_spec = RunSpec()

#: hits/misses observability (tests assert on this; reset via configure).
cache_stats: Dict[str, int] = {"hits": 0, "misses": 0}

#: Metrics snapshots of completed points, in point order, accumulated
#: across run_points() batches; the experiment runner drains this per
#: experiment via drain_metrics().  Empty unless metrics are configured.
metrics_log: List[Dict] = []

#: Execution-policy fields that keep their value when a configure()
#: call omits them; every other field resets to its default.
_STICKY = ("jobs", "cache", "kernel")


def build_spec(**settings) -> RunSpec:
    """The :class:`RunSpec` :func:`configure` would set from
    ``settings``, without setting it — so a CLI can check its settings
    before it opens any observer.  Invalid combinations raise
    ``ValueError``."""
    for name in _STICKY:
        if settings.get(name) is None:
            settings[name] = getattr(_spec, name)
    return RunSpec(**settings)


def configure(**settings) -> None:
    """Set the process-wide :class:`RunSpec` from its field names.

    ``jobs``, ``cache`` and ``kernel`` are sticky (omitted or ``None``
    keeps the current value); every other field, observers included,
    resets to its default on each call, so test fixtures and benchmark
    set-up that pin the execution policy also restore "no observers".
    Invalid combinations raise ``ValueError``.
    """
    global _spec
    _spec = build_spec(**settings)
    cache_stats["hits"] = 0
    cache_stats["misses"] = 0
    metrics_log.clear()


def current_spec() -> RunSpec:
    """The :class:`RunSpec` the last :func:`configure` call set."""
    return _spec


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


def apply_policy(point: "SimPoint", spec: RunSpec) -> "SimPoint":
    """Remap one point to the spec's policy family / controller.

    Solo (1-thread) points pass through untouched: they are the
    private-equivalent targets every policy normalizes against, and
    remapping them would also orphan their cache entries.  Multi-thread
    points get their arbiter, capacity policy, and controller rewritten
    — the rewritten point is what runs, caches, and pickles, so worker
    processes need no knowledge of the override.
    """
    if (spec.policy is None and spec.controller is None) \
            or point.config.n_threads == 1:
        return point
    updates: Dict = {}
    if spec.policy == "fcfs":
        updates["config"] = replace(point.config, arbiter="fcfs")
        updates["capacity_policy"] = "lru"
        updates["controller"] = None
    elif spec.policy == "vpc":
        updates["config"] = replace(point.config, arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = None
    elif spec.policy == "lfoc":
        updates["config"] = replace(point.config, arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = "lfoc"
    if spec.controller is not None:
        updates["config"] = replace(
            updates.get("config", point.config), arbiter="vpc")
        updates["capacity_policy"] = "vpc"
        updates["controller"] = spec.controller
    if spec.epoch is not None and (
            updates.get("controller") or point.controller):
        updates["epoch_cycles"] = spec.epoch
    return replace(point, **updates) if updates else point


@dataclass(frozen=True)
class SimPoint:
    """One simulation: a system configuration plus seeded trace specs.

    ``traces`` holds one :func:`repro.workloads.build_trace` spec per
    hardware thread (``("spec", "art")``, ``("loads",)``, ...; see there
    for the vocabulary).

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


class PointRun:
    """One point's system with its views attached, ready to finish.

    The one path from a :class:`SimPoint` plus a :class:`RunSpec` to a
    finished :class:`SimulationResult`: :func:`run_point` is
    ``PointRun.build(point, spec).run()``.  The single-run CLI builds
    its own (adding its trace sink, the solo baselines its metrics
    collector tracks, and a QoS monitor for the report card) so it can
    read ``system`` and ``monitor`` afterwards; both checkpoint-resume
    paths (the fleet's and ``--resume-checkpoint``) finish through
    :meth:`revive`.
    """

    def __init__(self, system: CMPSystem, metrics=None, attributor=None,
                 monitor=None, warmup: int = 0, measure: int = 0,
                 resumed=None) -> None:
        self.system = system
        self.metrics = metrics
        self.attributor = attributor
        self.monitor = monitor
        self.warmup = warmup
        self.measure = measure
        self.resumed = resumed
        self._feed = None
        self._index = None
        self._worker = None
        self._sent = 0

    @classmethod
    def build(cls, point: SimPoint, spec: RunSpec, resumable: bool = False,
              sink=None, baseline_ipcs=None,
              monitor: bool = False) -> "PointRun":
        """Build the point's system and attach what ``spec`` asks for.

        ``resumable`` wraps each trace in a picklable cursor so the run
        can checkpoint (plain runs keep the raw generators — the
        zero-overhead path).  ``sink`` is the CLI's ``--trace`` sink,
        attached to the system's lifecycle probe.  ``baseline_ipcs``
        are solo IPCs the metrics collector tracks slowdown against;
        ``monitor`` adds a :class:`~repro.core.monitor.QoSMonitor` on
        VPC points with metrics on.
        """
        if resumable:
            from repro.resilience.snapshot import ResumableTrace
            traces = [ResumableTrace(trace, tid)
                      for tid, trace in enumerate(point.traces)]
        else:
            traces = [build_trace(trace, tid)
                      for tid, trace in enumerate(point.traces)]
        system = CMPSystem(
            point.config,
            traces,
            capacity_policy=point.capacity_policy,
            intra_thread_row=point.intra_thread_row,
            vpc_selection=point.vpc_selection,
            smt_degree=point.smt_degree,
            kernel=spec.kernel,
            telemetry=sink,
        )
        if point.smt_degree == 1:
            # Both views assume one hardware thread per core; SMT points
            # run without them.
            if spec.cpi_stacks:
                system.attach_cycle_accounting()
            if spec.requests:
                system.attach_request_tracing(slo_rules=spec.slo)
        n_threads = point.config.n_threads
        metrics = attributor = qos_monitor = None
        if spec.metrics is not None:
            from repro.telemetry.metrics import MetricsCollector
            metrics = system.attach_metrics(MetricsCollector(
                n_threads, window=spec.metrics, baseline_ipcs=baseline_ipcs))
            attributor = system.attach_attribution()
        if point.controller is not None:
            from repro.qos import make_controller
            system.attach_qos_controller(make_controller(
                point.controller,
                n_threads,
                epoch_cycles=point.epoch_cycles,
                baseline_ipcs=point.controller_targets,
            ))
        if monitor and metrics is not None and point.config.arbiter == "vpc":
            from repro.core.monitor import QoSMonitor
            qos_monitor = QoSMonitor(system, window=spec.metrics)
        return cls(system, metrics, attributor, qos_monitor,
                   warmup=point.warmup, measure=point.measure)

    @classmethod
    def revive(cls, resumed) -> "PointRun":
        """Wrap a loaded checkpoint (:class:`repro.resilience.snapshot
        .ResumedRun`); its views and controller rode the pickle."""
        return cls(resumed.system, resumed.metrics, resumed.attributor,
                   resumed=resumed)

    def run(self, feed=None, index: Optional[int] = None, checkpoint=None,
            span_ctx=None) -> SimulationResult:
        """Simulate to the end of the measurement and finish the result.

        ``feed`` is a queue-like live-observability sink (``put(tuple)``;
        requires metrics): the point streams one snapshot per
        measurement window plus QoS-violation instants while it
        simulates, tagged with ``index`` and this process's pid.
        ``span_ctx`` (requires ``feed``) wraps the simulation in a
        worker-side host-time span that streams home over the feed.
        ``checkpoint`` is a :class:`~repro.resilience.snapshot
        .Checkpointer`.  Observation never perturbs the result.
        """
        on_window = None
        if feed is not None:
            if self.metrics is None:
                raise ValueError("a live feed requires a metrics window")
            self._feed, self._index, self._worker = feed, index, os.getpid()
            feed.put(("start", index, self._worker))
            on_window = self._window
        worker_span = worker_tracer = None
        if span_ctx is not None and feed is not None:
            from repro.telemetry.spans import TRACK_WORKER, SpanTracer
            worker_tracer = SpanTracer(feed=feed, index=index,
                                       context=span_ctx)
            worker_span = worker_tracer.begin(
                f"simulate.point{index}", TRACK_WORKER,
                warmup=self.warmup, measure=self.measure,
            )
        try:
            if self.resumed is not None:
                result = self.resumed.run(checkpointer=checkpoint,
                                          on_window=on_window)
            else:
                result = run_simulation(
                    self.system, warmup=self.warmup, measure=self.measure,
                    metrics=self.metrics, on_window=on_window,
                    checkpoint=checkpoint,
                )
        except BaseException as exc:
            if worker_tracer is not None:
                worker_tracer.end(worker_span, error=type(exc).__name__)
            raise
        if worker_tracer is not None:
            worker_tracer.end(worker_span, cycles=self.system.cycle)
        if self.attributor is not None:
            self.attributor.finish(self.system.cycle)
            result.metrics["attribution"] = self.attributor.snapshot()
            result.metrics["arbiter"] = self.system.config.arbiter
        if result.metrics is not None:
            # The view documents ride the metrics snapshot as well, so
            # experiment aggregates and report cards carry them per
            # point.
            if result.cpi_stacks is not None:
                result.metrics["cpi_stacks"] = result.cpi_stacks
            if result.requests is not None:
                result.metrics["requests"] = result.requests
        self._audit(self.system.cycle)
        return result

    def _window(self, cycle: int) -> None:
        snapshot = self.metrics.snapshot()
        snapshot["attribution"] = self.attributor.snapshot()
        snapshot["arbiter"] = self.system.config.arbiter
        if self.system.cycle_accounting is not None:
            snapshot["cpi_stacks"] = self.system.cycle_accounting.snapshot(
                cycle)
        if self.system.request_tracer is not None:
            snapshot["requests"] = self.system.request_tracer.document(cycle)
        self._feed.put(("window", self._index, self._worker, cycle,
                        snapshot))
        self._audit(cycle)

    def _audit(self, cycle: int) -> None:
        """Close the monitor's elapsed windows (they close lazily on
        events) and stream fresh violations to the feed, if any."""
        if self.monitor is None:
            return
        self.monitor.finish(cycle)
        if self._feed is None:
            return
        for violation in self.monitor.violations[self._sent:]:
            self._feed.put(("violation", self._index, self._worker,
                            asdict(violation)))
        self._sent = len(self.monitor.violations)


def run_point(
    point: SimPoint,
    spec: RunSpec = RunSpec(),
    feed=None,
    index: Optional[int] = None,
    checkpoint=None,
    resumable: bool = False,
    span_ctx=None,
) -> SimulationResult:
    """Simulate one point from scratch under ``spec`` (no cache
    involvement); see :class:`PointRun` for the views, the live
    ``feed`` (tagged with ``index``), ``checkpoint``, ``resumable``
    traces and the worker-side ``span_ctx``.

    With ``spec.metrics`` set the point runs fully observed — metrics
    collector plus interference attributor on the lifecycle probe — and
    the combined snapshot (with the CPI-stack and request documents
    mirrored in as ``"cpi_stacks"``/``"requests"``) returns on
    ``SimulationResult.metrics``, a plain dict that pickles home from
    worker processes.
    """
    return PointRun.build(point, spec, resumable=resumable,
                          monitor=feed is not None).run(
        feed, index, checkpoint, span_ctx)


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
# Fan-out: one booking, three executors.
# ---------------------------------------------------------------------- #

class Batch:
    """The books of one :func:`run_points` call, the same whichever
    executor (inline, process pool, journaled fleet) calls :meth:`start`
    as it dispatches a point and :meth:`finish` with its result; workers
    stream on ``feed`` as point ``base + i``.  ``CAT_RUN`` events are
    wall-clock microseconds from batch start, not simulated cycles."""

    def __init__(self, points: Sequence[SimPoint], spec: RunSpec) -> None:
        self.points, self.spec, self.feed = points, spec, spec.live
        self.results: List[Optional[SimulationResult]] = [None] * len(points)
        # Observed runs (metrics, CPI stacks, request tracing) bypass the
        # cache: cached results carry none of those documents, and hits
        # must not depend on observability settings.
        self.use_cache = (spec.cache and spec.metrics is None
                          and not spec.cpi_stacks and not spec.requests)
        self.base = (spec.live.begin_batch(len(points))
                     if spec.live is not None else 0)
        self.span = (spec.spans.begin("batch", points=len(points))
                     if spec.spans is not None else None)
        self._t0 = time.monotonic()
        self._started: Dict[int, Tuple[int, object]] = {}
        if spec.progress is not None:
            spec.progress.begin(len(points))

    def _wall_us(self) -> int:
        return int((time.monotonic() - self._t0) * 1e6)

    def cached(self, index: int) -> bool:
        """Book a cache hit for point ``index``, if it is one."""
        point, spans = self.points[index], self.spec.spans
        if not (self.use_cache and point.cacheable):
            return False
        hit = _cache_load(point)
        cache_stats["misses" if hit is None else "hits"] += 1
        if spans is not None:
            from repro.telemetry.spans import TRACK_SCHED
            spans.instant("cache-miss" if hit is None else "cache-hit",
                          TRACK_SCHED, parent=self.span, point=index)
        if hit is None:
            return False
        if self.spec.telemetry is not None:
            self.spec.telemetry.emit(TraceEvent(
                ts=self._wall_us(), phase=PH_INSTANT, category=CAT_RUN,
                name="cache-hit", track="run.points", args={"point": index},
            ))
        self.finish(index, hit, cached=True)
        return True

    def start(self, index: int):
        """Book a dispatch; returns the worker's span context, if any."""
        spans, span = self.spec.spans, None
        if spans is not None:
            from repro.telemetry.spans import TRACK_SCHED
            span = spans.begin(f"point{index}", TRACK_SCHED,
                               parent=self.span, point=index)
        self._started[index] = (self._wall_us(), span)
        if span is None or self.feed is None:
            return None
        return spans.child_context(span)

    def finish(self, index: int, result: SimulationResult,
               cached: bool = False) -> None:
        """Book a point's result; ``cached`` marks one that was not
        simulated here (a cache hit or a point replayed from a journal)."""
        spec, point = self.spec, self.points[index]
        self.results[index] = result
        if not cached and self.use_cache and point.cacheable:
            _cache_store(point, result)
        started_us, span = self._started.pop(index, (None, None))
        if spec.telemetry is not None and started_us is not None:
            spec.telemetry.emit(TraceEvent(
                ts=started_us, phase=PH_COMPLETE, category=CAT_RUN,
                name=f"point{index}", track="run.points",
                dur=max(1, self._wall_us() - started_us),
                args={"point": index},
            ))
        if spec.live is not None:
            spec.live.point_done(self.base + index, result.metrics)
        if span is not None:
            spec.spans.end(span, cycles=result.cycles)
        if spec.progress is not None:
            spec.progress.point_done(cached=cached)


@contextmanager
def _live_feed(live):
    """A managed queue (its proxy pickles) that workers stream on and a
    thread drains into ``live``, polling for stale heartbeats when idle."""
    if live is None:
        yield None
        return
    import multiprocessing
    import queue
    manager = multiprocessing.Manager()
    feed = manager.Queue()
    stop = threading.Event()

    def drain() -> None:
        while True:
            try:
                live.put(feed.get(timeout=0.2))
            except queue.Empty:
                if stop.is_set():
                    return
                live.check_stale()

    drainer = threading.Thread(target=drain, name="repro-live-drain",
                               daemon=True)
    drainer.start()
    try:
        yield feed
    finally:
        stop.set()
        drainer.join(timeout=10.0)
        manager.shutdown()


def _run_pool(batch: Batch, todo: List[int]) -> None:
    """The pool executor: completions are booked as they land."""
    spec = batch.spec
    pool = ProcessPoolExecutor(max_workers=min(spec.jobs, len(todo)))
    pending = {}
    try:
        for index in todo:
            span_ctx = batch.start(index)
            pending[pool.submit(run_point, batch.points[index], spec,
                                batch.feed, batch.base + index,
                                span_ctx=span_ctx)] = index
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                batch.finish(pending.pop(future), future.result())
        pool.shutdown()
    except KeyboardInterrupt:
        # Ctrl-C: don't wait for in-flight points (they can be minutes
        # long) — drop the queue and kill the workers so the CLI can
        # report and exit promptly.
        for future in pending:
            future.cancel()
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        raise


def run_points(points: Sequence[SimPoint]) -> List[SimulationResult]:
    """Run every point, in order, honoring the configured spec: cached
    results without simulating, the rest on the journaled fleet under a
    resilience policy, on a process pool when more than one job and more
    than one point are left, and inline otherwise.  One :class:`Batch`
    books them all; result order is positional."""
    spec = _spec
    if spec.policy is not None or spec.controller is not None:
        points = [apply_policy(point, spec) for point in points]
    batch = Batch(points, spec)
    todo = [index for index in range(len(points)) if not batch.cached(index)]
    excluded = ()
    try:
        if spec.resilience is None and (len(todo) < 2 or spec.jobs < 2):
            for index in todo:
                span_ctx = batch.start(index)
                batch.finish(index, run_point(points[index], spec, spec.live,
                                              batch.base + index,
                                              span_ctx=span_ctx))
        else:
            with _live_feed(spec.live) as feed:
                batch.feed = feed
                if spec.resilience is None:
                    _run_pool(batch, todo)
                else:
                    from repro.resilience.fleet import run_points_resilient
                    excluded = run_points_resilient(batch, todo)
    finally:
        # Every finished point is booked however the batch ends, so an
        # interrupted experiment can salvage its own points.
        if spec.metrics is not None:
            metrics_log.extend(
                result.metrics for result in batch.results
                if result is not None and result.metrics is not None
            )
    if spec.spans is not None:
        spec.spans.end(batch.span)
    if excluded:
        from repro.resilience.fleet import PointsExcludedError
        raise PointsExcludedError(excluded, batch.results,
                                  spec.resilience.run_dir)
    return batch.results  # type: ignore[return-value]
