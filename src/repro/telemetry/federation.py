"""Federated metrics plane: one endpoint for a fleet of live runs.

Every ``--serve`` run exposes its own ``/metrics``, ``/snapshot``,
``/healthz`` and ``/events`` (:mod:`repro.telemetry.server`) — but a
sweep sharded over N invocations (or, eventually, N machines) is N
places to look.  The :class:`FleetAggregator` subscribes to each worker
endpoint, keeps the latest per-worker snapshot/health, multiplexes the
workers' SSE streams into one worker-labelled stream, and the
:class:`FleetServer` re-serves the merged view:

* ``GET /metrics`` — Prometheus exposition over the *fleet* merge plus
  ``repro_fleet_*`` rollup families (worker/reachability/alert counts);
* ``GET /snapshot`` — the merged fleet aggregate
  (``repro.metrics-aggregate/1``), byte-identical to an offline
  :func:`merge_fleet` over the per-worker snapshots;
* ``GET /fleet/healthz`` (also ``/healthz``) — per-worker
  liveness/degraded rollup, ``503`` when degraded;
* ``GET /events`` — the multiplexed SSE stream, every event payload
  labelled with ``worker`` (index) and ``worker_url``;
* ``GET /alerts`` — the fleet alert engine's ``repro.alerts/1``
  document (when rules are loaded).

``python -m repro fleet --workers URL URL ...`` runs the plane from a
shell; ``repro top --fleet URL`` renders it.  Everything is stdlib
(urllib + http.server), matching the repo's no-dependency rule.
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from .metrics import merge_snapshots, to_prometheus
from .server import SUBSCRIBER_BUFFER

#: Seconds between reconnect attempts for a worker whose /events stream
#: dropped (doubles up to the cap; a dead worker costs one socket try
#: per backoff, nothing more).
RECONNECT_BASE_S = 0.25
RECONNECT_CAP_S = 5.0


def merge_fleet(worker_snapshots: List[Optional[Dict]]) -> Dict:
    """Merge per-worker aggregates into one fleet aggregate.

    Each input is a worker's ``/snapshot`` document (an
    ``repro.metrics-aggregate/1`` with a ``per_point`` list);
    unreachable workers contribute ``None``.  The merge flattens every
    worker's points — in worker order, preserving each worker's point
    order — back through :func:`~repro.telemetry.metrics.
    merge_snapshots`, so the fleet aggregate is exactly what one big
    run over the union of points would have produced.  The acceptance
    test (and the CI fleet-smoke job) holds the served ``/snapshot``
    byte-identical to this function applied offline.
    """
    points: List[Dict] = []
    kernels = set()
    for aggregate in worker_snapshots:
        if not aggregate:
            continue
        points.extend(aggregate.get("per_point", ()))
        if aggregate.get("kernel"):
            kernels.add(aggregate["kernel"])
    fleet = merge_snapshots(points)
    if len(kernels) == 1:
        # Stamp the kernel only when the whole fleet agrees — a mixed
        # fleet has no single truthful value.
        fleet["kernel"] = kernels.pop()
    return fleet


class _Worker:
    """One subscribed worker endpoint's latest known state."""

    __slots__ = ("index", "url", "snapshot", "health", "reachable",
                 "error", "last_event", "events_seen")

    def __init__(self, index: int, url: str) -> None:
        self.index = index
        self.url = url.rstrip("/")
        self.snapshot: Optional[Dict] = None
        self.health: Optional[Dict] = None
        self.reachable = False
        self.error: Optional[str] = None
        self.last_event: Optional[Tuple[str, Dict]] = None
        self.events_seen = 0


class FleetAggregator:
    """Subscribes to N worker ``LiveRun`` endpoints and merges them.

    :meth:`refresh` is a synchronous poll of every worker's
    ``/snapshot`` + ``/healthz`` (tests drive it directly for
    determinism; :func:`main`'s loop calls it on an interval).
    :meth:`start` additionally opens one SSE client thread per worker,
    re-publishing every received event — worker-labelled — to this
    aggregator's own subscribers, with automatic reconnect/backoff when
    a worker drops mid-stream.

    An optional :class:`~repro.telemetry.alerts.AlertEngine` observes
    every multiplexed event and every health poll; its emissions are
    published as fleet ``alert`` events.
    """

    def __init__(
        self,
        workers: List[str],
        stale_after: float = 30.0,
        timeout: float = 5.0,
        alert_engine=None,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker URL")
        self.workers = [_Worker(i, url) for i, url in enumerate(workers)]
        self.stale_after = stale_after
        self.timeout = timeout
        self.alert_engine = alert_engine
        self._lock = threading.Lock()
        self._alert_lock = threading.Lock()
        self._subscribers: List[queue.Queue] = []
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()

    # ------------------------------------------------------------------ #
    # Polling plane (/snapshot + /healthz).
    # ------------------------------------------------------------------ #

    def _fetch_json(self, url: str) -> Optional[Dict]:
        """GET a JSON document; a 503 (degraded worker) still carries a
        valid health body, so HTTPError bodies are parsed, not raised."""
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            try:
                return json.loads(exc.read().decode())
            except (ValueError, OSError):
                return None
        except (urllib.error.URLError, OSError, ValueError):
            return None

    def refresh(self) -> Dict:
        """Poll every worker once; returns the merged fleet snapshot."""
        for worker in self.workers:
            snapshot = self._fetch_json(worker.url + "/snapshot")
            health = self._fetch_json(worker.url + "/healthz")
            with self._lock:
                if snapshot is not None:
                    worker.snapshot = snapshot
                if health is not None:
                    worker.health = health
                worker.reachable = health is not None or snapshot is not None
                worker.error = None if worker.reachable else "unreachable"
            if health is not None and self.alert_engine is not None:
                with self._alert_lock:
                    emitted = self.alert_engine.observe_health(health)
                for payload in emitted:
                    self.publish_alert(payload)
        if self.alert_engine is not None:
            rollup = self.health()
            with self._alert_lock:
                emitted = self.alert_engine.observe_health(
                    {"stale_workers": rollup["unreachable_workers"]})
            for payload in emitted:
                self.publish_alert(payload)
        return self.snapshot()

    def snapshot(self) -> Dict:
        """The current fleet aggregate (:func:`merge_fleet` over the
        latest per-worker snapshots, in configured worker order)."""
        with self._lock:
            snapshots = [worker.snapshot for worker in self.workers]
        return merge_fleet(snapshots)

    def health(self) -> Dict:
        """Per-worker liveness/degraded rollup.

        Fleet status is worst-of: any unreachable or degraded worker
        degrades the fleet; else any running worker keeps it running;
        a fleet of finished workers is finished.
        """
        with self._lock:
            per_worker = {}
            unreachable = []
            statuses = []
            for worker in self.workers:
                status = ((worker.health or {}).get("status", "unknown")
                          if worker.reachable else "unreachable")
                statuses.append(status)
                if not worker.reachable:
                    unreachable.append(worker.index)
                entry = {"url": worker.url, "status": status,
                         "events_seen": worker.events_seen}
                if worker.health is not None:
                    entry["points"] = worker.health.get("points")
                    entry["violations"] = worker.health.get("violations")
                    entry["resilience"] = worker.health.get("resilience")
                    entry["stale_workers"] = worker.health.get(
                        "stale_workers")
                per_worker[str(worker.index)] = entry
        if any(s in ("unreachable", "degraded", "unknown")
               for s in statuses):
            status = "degraded"
        elif any(s == "running" for s in statuses):
            status = "running"
        elif statuses and all(s == "finished" for s in statuses):
            status = "finished"
        else:
            status = "idle"
        out = {
            "status": status,
            "workers": per_worker,
            "n_workers": len(self.workers),
            "unreachable_workers": unreachable,
        }
        if self.alert_engine is not None:
            out["alerts"] = {"fired": self.alert_engine.fired,
                             "firing": self.alert_engine.firing}
        return out

    def metrics(self) -> str:
        """Prometheus exposition: the fleet merge plus rollup families."""
        body = to_prometheus(self.snapshot())
        rollup = self.health()
        reachable = rollup["n_workers"] - len(rollup["unreachable_workers"])
        lines = [
            "# HELP repro_fleet_workers Worker endpoints this aggregator "
            "subscribes to",
            "# TYPE repro_fleet_workers gauge",
            f"repro_fleet_workers {rollup['n_workers']}",
            "# HELP repro_fleet_workers_reachable Workers that answered "
            "the last poll",
            "# TYPE repro_fleet_workers_reachable gauge",
            f"repro_fleet_workers_reachable {reachable}",
        ]
        if self.alert_engine is not None:
            lines += [
                "# HELP repro_fleet_alerts_fired Alert rules fired since "
                "the aggregator started",
                "# TYPE repro_fleet_alerts_fired counter",
                f"repro_fleet_alerts_fired {self.alert_engine.fired}",
            ]
        return body + "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # Multiplexed SSE plane.
    # ------------------------------------------------------------------ #

    def subscribe(self) -> "queue.Queue":
        """Register a fleet event consumer; primed with every worker's
        most recent event so late subscribers see the stream's shape
        (the per-worker replay the single-run plane offers, federated)."""
        subscriber: queue.Queue = queue.Queue(maxsize=SUBSCRIBER_BUFFER)
        with self._lock:
            for worker in self.workers:
                if worker.last_event is not None:
                    event, payload = worker.last_event
                    subscriber.put_nowait(
                        (event, {**payload, "replay": True}))
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue") -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    def _publish(self, event: str, payload: Dict) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber.put_nowait((event, payload))
            except queue.Full:
                try:
                    subscriber.get_nowait()
                    subscriber.put_nowait((event, payload))
                except (queue.Empty, queue.Full):
                    pass

    def publish_alert(self, payload: Dict) -> None:
        self._publish("alert", payload)

    def _on_worker_event(self, worker: _Worker, event: str,
                         payload: Dict) -> None:
        labelled = {"worker": worker.index, "worker_url": worker.url,
                    **payload}
        with self._lock:
            worker.events_seen += 1
            worker.last_event = (event, labelled)
        if self.alert_engine is not None and event != "alert":
            with self._alert_lock:
                emitted = self.alert_engine.observe(event, payload)
            for alert_payload in emitted:
                self.publish_alert(alert_payload)
        self._publish(event, labelled)

    def _pump(self, worker: _Worker) -> None:
        """One worker's SSE client loop: connect, relay, reconnect."""
        backoff = RECONNECT_BASE_S
        while not self._stopping.is_set():
            try:
                with urllib.request.urlopen(
                        worker.url + "/events",
                        timeout=self.timeout) as stream:
                    backoff = RECONNECT_BASE_S
                    event = "message"
                    for raw in stream:
                        if self._stopping.is_set():
                            return
                        line = raw.decode("utf-8", "replace").rstrip("\n")
                        if line.startswith("event:"):
                            event = line[6:].strip()
                        elif line.startswith("data:"):
                            try:
                                payload = json.loads(line[5:].strip())
                            except ValueError:
                                continue
                            self._on_worker_event(worker, event, payload)
                            event = "message"
                        # blank lines and ": keepalive" comments fall
                        # through; timeouts between keepalives raise.
            except (urllib.error.URLError, OSError, ValueError):
                pass
            if self._stopping.wait(backoff):
                return
            backoff = min(backoff * 2, RECONNECT_CAP_S)

    def start(self) -> None:
        """Open the per-worker SSE client threads (daemonized)."""
        self._stopping.clear()
        for worker in self.workers:
            thread = threading.Thread(
                target=self._pump, args=(worker,),
                name=f"repro-fleet-sse-{worker.index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._stopping.set()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()


class _FleetHandler(BaseHTTPRequestHandler):
    """Routes the fleet endpoints; the aggregator rides on the server."""

    server_version = "repro-fleet/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    @property
    def fleet(self) -> FleetAggregator:
        return self.server.fleet  # type: ignore[attr-defined]

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
                self._respond(200, "text/plain; version=0.0.4",
                              self.fleet.metrics().encode())
            elif path == "/snapshot":
                body = (json.dumps(self.fleet.snapshot()) + "\n").encode()
                self._respond(200, "application/json", body)
            elif path in ("/fleet/healthz", "/healthz", "/health"):
                health = self.fleet.health()
                status = 503 if health["status"] == "degraded" else 200
                body = (json.dumps(health) + "\n").encode()
                self._respond(status, "application/json", body)
            elif path == "/alerts":
                engine = self.fleet.alert_engine
                if engine is None:
                    self._respond(404, "text/plain",
                                  b"no alert rules loaded\n")
                else:
                    body = (json.dumps(engine.document(), indent=2)
                            + "\n").encode()
                    self._respond(200, "application/json", body)
            elif path == "/events":
                self._stream_events()
            else:
                self._respond(404, "text/plain",
                              b"repro fleet: /metrics /snapshot "
                              b"/fleet/healthz /events /alerts\n")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _stream_events(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        subscriber = self.fleet.subscribe()
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
                    f"event: {event}\ndata: {data}\n\n".encode())
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            self.fleet.unsubscribe(subscriber)


class FleetServer:
    """The HTTP service wrapping a :class:`FleetAggregator`."""

    def __init__(self, fleet: FleetAggregator, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.fleet = fleet
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        httpd = ThreadingHTTPServer((self.host, self.port), _FleetHandler)
        httpd.daemon_threads = True
        httpd.fleet = self.fleet         # type: ignore[attr-defined]
        httpd.stopping = False           # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-fleet-http", daemon=True)
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

    def __enter__(self) -> "FleetServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro fleet``: run the aggregator from a shell."""
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Aggregate N live runs into one fleet endpoint.")
    parser.add_argument("--workers", nargs="+", required=True,
                        metavar="URL",
                        help="worker base URLs (e.g. http://127.0.0.1:9100)")
    parser.add_argument("--port", type=int, default=0,
                        help="fleet HTTP port (0 = auto-assign)")
    parser.add_argument("--stale-after", type=float, default=30.0,
                        help="seconds before a silent worker degrades "
                             "the fleet")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between worker polls")
    parser.add_argument("--alerts", metavar="RULES",
                        help="alert rule file (JSON or TOML) evaluated "
                             "against the fleet stream")
    parser.add_argument("--alerts-out", metavar="PATH",
                        help="write the repro.alerts/1 document here on "
                             "exit")
    parser.add_argument("--duration", type=float, default=0.0,
                        help="serve for this many seconds then exit "
                             "(0 = until interrupted)")
    args = parser.parse_args(argv)

    engine = None
    if args.alerts:
        from .alerts import AlertEngine, load_rules
        engine = AlertEngine(load_rules(args.alerts))
    fleet = FleetAggregator(args.workers, stale_after=args.stale_after,
                            alert_engine=engine)
    server = FleetServer(fleet, port=args.port)
    server.start()
    fleet.start()
    print(f"serving fleet telemetry on {server.url} "
          f"({len(args.workers)} workers)", flush=True)
    deadline = (time.monotonic() + args.duration) if args.duration else None
    try:
        while deadline is None or time.monotonic() < deadline:
            fleet.refresh()
            remaining = (deadline - time.monotonic()
                         if deadline is not None else args.interval)
            time.sleep(max(0.0, min(args.interval, remaining)))
    except KeyboardInterrupt:
        pass
    finally:
        fleet.stop()
        server.stop()
        if engine is not None:
            print(engine.summary_line(), flush=True)
            if args.alerts_out:
                from .alerts import write_alerts
                write_alerts(args.alerts_out, engine)
    if engine is not None and engine.page_fired:
        from .alerts import PAGE_EXIT_CODE
        return PAGE_EXIT_CODE
    return 0


if __name__ == "__main__":
    sys.exit(main())
