"""Live observability plane: in-run telemetry state + HTTP service.

PRs 2-3 made every run *post-hoc* observable — traces, window metrics
and report cards land on disk after the run ends.  This module is the
online half: a :class:`LiveRun` holds the fleet's latest state while it
simulates (fed per window by the workers, see
:mod:`repro.experiments.parallel`), and a :class:`TelemetryServer`
exposes it over plain stdlib HTTP so a real Prometheus can scrape a
running experiment and ``repro top`` can watch it:

* ``GET /metrics`` — Prometheus text exposition
  (:func:`repro.telemetry.metrics.to_prometheus`) over the latest
  merged snapshot; changes scrape-to-scrape mid-run.
* ``GET /healthz`` — run liveness JSON: points done/total, per-worker
  heartbeat ages, last-window age, QoS violation count.  Responds
  ``503`` with ``status: "degraded"`` when any worker's heartbeat age
  exceeds the configured staleness threshold while the run is active.
* ``GET /snapshot`` — the schema-tagged merged metrics JSON
  (``repro.metrics-aggregate/1``); once the run finishes this is the
  byte-identical aggregate the experiment runner writes to disk.
* ``GET /events`` — Server-Sent Events: one ``window`` event per
  flushed measurement window, ``violation`` instants from the
  :class:`~repro.core.monitor.QoSMonitor`, and ``point`` completion
  records.

Cost discipline: the plane follows the telemetry layer's None-guard
contract — nothing here is constructed unless ``--serve`` is given, and
the producers' disabled path stays a single ``is not None`` test (see
``benchmarks/test_bench_engine.py::
test_disabled_overhead_under_two_percent[serve]``).

The feed protocol is deliberately dumb so it crosses the
``multiprocessing`` boundary as plain tuples (see
:meth:`LiveRun.put`)::

    ("start",     point_index, worker_id)
    ("window",    point_index, worker_id, cycle, metrics_snapshot)
    ("violation", point_index, worker_id, violation_dict)
    ("hb",        worker_id)
    ("span",      point_index, worker_pid, span_record)

Heartbeat ages are measured with the *parent's* clock at receive time,
so worker/parent clock skew cannot fake liveness.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from .metrics import merge_snapshots, to_prometheus

#: Events buffered per SSE subscriber before the oldest are dropped
#: (a stalled client must never block the run or grow memory unbounded).
SUBSCRIBER_BUFFER = 256


class LiveRun:
    """Thread-safe state of one running experiment fleet.

    Producers (the parallel runner's drainer thread, or the single-run
    CLI inline) call :meth:`put` / the typed methods; consumers (the
    HTTP handlers, ``repro top``) read :meth:`merged`, :meth:`health`
    and subscribe to the event stream.  All methods are safe from any
    thread.
    """

    def __init__(
        self,
        stale_after: float = 30.0,
        progress=None,
        clock=time.monotonic,
    ) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be > 0 seconds")
        self.stale_after = stale_after
        self.progress = progress  # ProgressReporter for stale warnings
        self._clock = clock
        self._lock = threading.Lock()
        self._subscribers: List[queue.Queue] = []
        #: Parent-side SpanTracer.ingest when host-span tracing is on:
        #: worker span records arriving over the feed are handed here.
        self.on_span = None
        #: AlertEngine evaluating every published event (``--alerts``).
        #: Guarded by its own lock — producers publish from more than
        #: one thread and the engine is not internally synchronized.
        self.alert_engine = None
        self._alert_lock = threading.Lock()
        self.run_label = ""
        self.run_kernel = ""      # simulation kernel ("cycle"/"batch")
        self.total = 0
        self.done = 0
        self.violations = 0
        self.retries = 0          # resilience fleet: attempts restarted
        self.excluded = 0         # resilience fleet: points given up on
        self.finished = False
        self._next_base = 0
        self._workers: Dict[int, float] = {}      # worker id -> last beat
        self._warned_stale: set = set()
        self._last_window_at: Optional[float] = None
        self._latest: Dict[int, Dict] = {}        # point -> window snapshot
        self._windows_seen: Dict[int, int] = {}   # point -> flush count
        self._final: Dict[int, Dict] = {}         # point -> final metrics
        self._aggregate: Optional[Dict] = None    # runner's exact merge
        self._gen = 0                             # merge-cache invalidation

    # ------------------------------------------------------------------ #
    # Feed (producer side).
    # ------------------------------------------------------------------ #

    def put(self, msg: Tuple) -> None:
        """Dispatch one feed tuple (the cross-process wire format)."""
        kind = msg[0]
        if kind == "window":
            _, index, worker, cycle, snapshot = msg
            self.window(index, worker, cycle, snapshot)
        elif kind == "violation":
            _, index, worker, record = msg
            self.violation(index, worker, record)
        elif kind == "start":
            _, index, worker = msg
            self.heartbeat(worker)
        elif kind == "hb":
            self.heartbeat(msg[1])
        elif kind == "span":
            _, index, worker, record = msg
            self.span(index, worker, record)

    def begin_run(self, label: str = "", kernel: str = "") -> None:
        """Start (or switch to) a named run: clears per-point state.

        ``kernel`` records which simulation kernel the run executes
        under; :meth:`merged` stamps it into every live aggregate so
        ``/snapshot`` reports it mid-run, not only at the end.
        """
        with self._lock:
            self.run_label = label
            self.run_kernel = kernel
            self.total = self.done = self.violations = 0
            self.retries = self.excluded = 0
            self.finished = False
            self._next_base = 0
            self._workers.clear()
            self._warned_stale.clear()
            self._last_window_at = None
            self._latest.clear()
            self._windows_seen.clear()
            self._final.clear()
            self._aggregate = None
        self._publish("run", {"run": label, "status": "started"})

    def begin_batch(self, n_points: int) -> int:
        """Register a batch of points; returns its global index base."""
        with self._lock:
            base = self._next_base
            self._next_base += n_points
            self.total += n_points
            self.finished = False
        return base

    def heartbeat(self, worker: int) -> None:
        with self._lock:
            self._workers[worker] = self._clock()
            self._warned_stale.discard(worker)

    def window(self, index: int, worker: int, cycle: int,
               snapshot: Dict) -> None:
        with self._lock:
            now = self._clock()
            self._workers[worker] = now
            self._warned_stale.discard(worker)
            self._last_window_at = now
            self._latest[index] = snapshot
            self._windows_seen[index] = self._windows_seen.get(index, 0) + 1
            self._aggregate = None
            self._gen += 1
        self._publish("window", {
            "point": index, "worker": worker, "cycle": cycle,
            "snapshot": snapshot,
        })

    def violation(self, index: int, worker: int, record: Dict) -> None:
        with self._lock:
            self.violations += 1
        self._publish("violation", {
            "point": index, "worker": worker, **record,
        })

    def span(self, index: Optional[int], worker: int, record: Dict) -> None:
        """A host-time span record arrived from a worker (or was closed
        parent-side): hand it to the parent tracer and put it on the
        event stream so ``/events`` carries orchestration spans too."""
        if self.on_span is not None:
            self.on_span(record)
        self._publish("span", {"point": index, "worker": worker,
                               "span": record})

    def alert(self, payload: Dict) -> None:
        """Publish a structured alert event (AlertEngine emission)."""
        self._publish("alert", payload)

    def point_retry(self, index: int, attempt: int, error: str) -> None:
        """A resilience-fleet worker died or timed out and is being
        retried (repro.resilience.fleet)."""
        with self._lock:
            self.retries += 1
        self._publish("retry", {"point": index, "attempt": attempt,
                                "error": error})

    def point_excluded(self, index: int, error: str) -> None:
        """The resilience fleet gave up on a point after its retry
        budget; the run continues without it."""
        with self._lock:
            self.excluded += 1
        self._publish("excluded", {"point": index, "error": error})

    def point_done(self, index: int, metrics: Optional[Dict]) -> None:
        """Record a point's completion (parent side, after the result
        pickled home); ``metrics`` is the authoritative final snapshot."""
        with self._lock:
            self.done += 1
            if metrics is not None:
                self._final[index] = metrics
                self._latest[index] = metrics
            self._aggregate = None
            self._gen += 1
            done, total = self.done, self.total
        self._publish("point", {"point": index, "done": done,
                                "total": total})

    def finish_run(self, aggregate: Optional[Dict] = None) -> None:
        """Mark the run complete.  When the experiment runner passes its
        merged aggregate, ``/snapshot`` serves that exact object — byte
        identical to the ``<exp>.metrics.json`` it writes."""
        with self._lock:
            self.finished = True
            if aggregate is not None:
                self._aggregate = aggregate
        self._publish("run", {"run": self.run_label, "status": "finished"})

    # ------------------------------------------------------------------ #
    # Consumers.
    # ------------------------------------------------------------------ #

    def merged(self) -> Dict:
        """The latest merged fleet snapshot (``repro.metrics-aggregate/1``).

        Completed points contribute their final metrics; points still
        simulating contribute their most recent window flush, so the
        merge moves mid-point.  After :meth:`finish_run` with an
        aggregate, that exact aggregate is returned instead.
        """
        with self._lock:
            if self._aggregate is not None:
                return self._aggregate
            gen = self._gen
            snapshots = [self._latest[k] for k in sorted(self._latest)]
        aggregate = merge_snapshots(snapshots)
        if self.run_kernel:
            # Mirrors the key the experiment runner writes into its disk
            # aggregate, so live and final snapshots agree field-for-field.
            aggregate["kernel"] = self.run_kernel
        with self._lock:
            # Cache until the next window/point invalidates it; a feed
            # update that raced the merge leaves the cache cold instead.
            if self._gen == gen and self._aggregate is None:
                self._aggregate = aggregate
        return aggregate

    def stale_workers(self) -> List[Tuple[int, float]]:
        """(worker, heartbeat age) pairs past the staleness threshold."""
        with self._lock:
            if self.finished or self.done >= self.total:
                return []
            now = self._clock()
            return [
                (worker, now - beat)
                for worker, beat in self._workers.items()
                if now - beat > self.stale_after
            ]

    def check_stale(self) -> List[Tuple[int, float]]:
        """Poll for stale workers, warning via the progress reporter
        once per worker (re-armed when the worker beats again)."""
        stale = self.stale_workers()
        if self.progress is not None:
            for worker, age in stale:
                with self._lock:
                    fresh = worker not in self._warned_stale
                    self._warned_stale.add(worker)
                if fresh:
                    self.progress.stale_worker(worker, age)
        engine = self.alert_engine
        if engine is not None:
            with self._alert_lock:
                emitted = engine.observe_health(
                    {"stale_workers": [worker for worker, _ in stale]})
            for alert_payload in emitted:
                self.alert(alert_payload)
        return stale

    def health(self) -> Dict:
        stale = self.stale_workers()
        with self._lock:
            now = self._clock()
            if self.finished or (self.total and self.done >= self.total):
                status = "finished"
            elif stale:
                status = "degraded"
            elif self.total:
                status = "running"
            else:
                status = "idle"
            return {
                "status": status,
                "run": self.run_label,
                "points": {"done": self.done, "total": self.total},
                "workers": {
                    str(worker): {"heartbeat_age_s": round(now - beat, 3)}
                    for worker, beat in sorted(self._workers.items())
                },
                "stale_workers": [worker for worker, _ in stale],
                "stale_after_s": self.stale_after,
                "last_window_age_s": (
                    round(now - self._last_window_at, 3)
                    if self._last_window_at is not None else None
                ),
                "violations": self.violations,
                "resilience": {
                    "retries": self.retries,
                    "excluded": self.excluded,
                },
                "alerts": (
                    {"fired": self.alert_engine.fired,
                     "firing": self.alert_engine.firing}
                    if self.alert_engine is not None else None
                ),
            }

    # ------------------------------------------------------------------ #
    # Event stream (SSE backing).
    # ------------------------------------------------------------------ #

    def subscribe(self) -> "queue.Queue":
        """Register an event consumer.  The queue is primed with the
        most recent window event (when one exists) so late subscribers —
        a smoke test curling ``/events`` after a short run — still see
        the stream's shape immediately."""
        subscriber: queue.Queue = queue.Queue(maxsize=SUBSCRIBER_BUFFER)
        with self._lock:
            if self._latest:
                index = max(self._latest)
                subscriber.put_nowait(("window", {
                    "point": index, "replay": True,
                    "snapshot": self._latest[index],
                }))
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue") -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _publish(self, event: str, payload: Dict) -> None:
        # Alert evaluation rides the publish path so every signal the
        # SSE stream sees, the rules see — but never recursively on the
        # "alert" events the engine itself emits.
        engine = self.alert_engine
        if engine is not None and event != "alert":
            with self._alert_lock:
                emitted = engine.observe(event, payload)
            for alert_payload in emitted:
                self.alert(alert_payload)
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber.put_nowait((event, payload))
            except queue.Full:
                # Drop the oldest so a stalled client only loses events.
                try:
                    subscriber.get_nowait()
                    subscriber.put_nowait((event, payload))
                except (queue.Empty, queue.Full):
                    pass


class _Handler(BaseHTTPRequestHandler):
    """Routes the four endpoints; the LiveRun rides on the server."""

    server_version = "repro-telemetry/1"
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log — the run's own progress
    # output must stay readable.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    @property
    def live(self) -> LiveRun:
        return self.server.live  # type: ignore[attr-defined]

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = to_prometheus(self.live.merged()).encode()
                self._respond(200, "text/plain; version=0.0.4", body)
            elif path == "/snapshot":
                body = (json.dumps(self.live.merged()) + "\n").encode()
                self._respond(200, "application/json", body)
            elif path in ("/healthz", "/health"):
                health = self.live.health()
                status = 503 if health["status"] == "degraded" else 200
                body = (json.dumps(health) + "\n").encode()
                self._respond(status, "application/json", body)
            elif path == "/events":
                self._stream_events()
            else:
                self._respond(404, "text/plain",
                              b"repro telemetry: /metrics /healthz "
                              b"/snapshot /events\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _stream_events(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, close delimits.
        self.send_header("Connection", "close")
        self.end_headers()
        subscriber = self.live.subscribe()
        try:
            while not self.server.stopping:  # type: ignore[attr-defined]
                try:
                    event, payload = subscriber.get(timeout=1.0)
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                data = json.dumps(payload)
                self.wfile.write(
                    f"event: {event}\ndata: {data}\n\n".encode()
                )
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self.live.unsubscribe(subscriber)


class TelemetryServer:
    """The HTTP service wrapping a :class:`LiveRun`.

    ``port=0`` binds an OS-assigned free port; the actual port is on
    ``self.port`` (and in ``self.url``) after :meth:`start`.  The server
    runs on daemon threads and costs nothing to the simulation: handlers
    only ever *read* LiveRun state under its lock.
    """

    def __init__(self, live: LiveRun, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.live = live
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.live = self.live           # type: ignore[attr-defined]
        httpd.stopping = False           # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-telemetry-http",
            daemon=True,
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.stopping = True      # type: ignore[attr-defined]
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
