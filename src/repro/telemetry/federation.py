"""Federated metrics plane: one endpoint for a fleet of live runs.

Every ``--serve`` run exposes its own endpoints
(:mod:`repro.telemetry.server`) — but a sweep sharded over N invocations
(or, eventually, N machines) is N places to look.  The
:class:`FleetAggregator` subscribes to each worker endpoint, keeps the
latest per-worker snapshot/health, and multiplexes the workers' SSE
streams into one worker-labelled stream.  It is a served source like
:class:`~repro.telemetry.server.LiveRun`, so the same
:class:`~repro.telemetry.server.TelemetryServer` and route table serve
it:

* ``/metrics`` — Prometheus exposition over the *fleet* merge plus
  ``repro_fleet_*`` rollup families (worker/reachability/alert counts);
* ``/snapshot`` — the merged fleet aggregate
  (``repro.metrics-aggregate/1``), byte-identical to an offline
  :func:`merge_fleet` over the per-worker snapshots;
* ``/healthz`` (also ``/fleet/healthz``) — per-worker
  liveness/degraded rollup, ``503`` when degraded;
* ``/events`` — the multiplexed SSE stream, every event payload
  labelled with ``worker`` (index) and ``worker_url``;
* ``/alerts`` — the fleet alert engine's ``repro.alerts/1`` document
  (when rules are loaded).

``python -m repro fleet --workers URL URL ...`` runs the plane from a
shell; ``repro top --fleet URL`` renders it.  Everything is stdlib
(urllib + http.server), matching the repo's no-dependency rule.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from .metrics import merge_snapshots, to_prometheus
from .server import EventHub, fetch_json, serve

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
                 "last_event", "events_seen")

    def __init__(self, index: int, url: str) -> None:
        self.index = index
        self.url = url.rstrip("/")
        self.snapshot: Optional[Dict] = None
        self.health: Optional[Dict] = None
        self.reachable = False
        self.last_event: Optional[Tuple[str, Dict]] = None
        self.events_seen = 0


class FleetAggregator(EventHub):
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
        timeout: float = 5.0,
        alert_engine=None,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker URL")
        super().__init__(alert_engine)
        self.workers = [_Worker(i, url) for i, url in enumerate(workers)]
        self.timeout = timeout
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()

    # ------------------------------------------------------------------ #
    # Polling plane (/snapshot + /healthz).
    # ------------------------------------------------------------------ #

    def refresh(self) -> Dict:
        """Poll every worker once; returns the merged fleet snapshot."""
        for worker in self.workers:
            snapshot = self._poll(worker.url + "/snapshot")
            health = self._poll(worker.url + "/healthz")
            with self._lock:
                if snapshot is not None:
                    worker.snapshot = snapshot
                if health is not None:
                    worker.health = health
                worker.reachable = health is not None or snapshot is not None
            if health is not None:
                self.observe_health(health)
        if self.alert_engine is not None:
            self.observe_health(
                {"stale_workers": self.health()["unreachable_workers"]})
        return self.snapshot()

    def _poll(self, url: str) -> Optional[Dict]:
        try:
            return fetch_json(url, self.timeout)
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # The served-source protocol.
    # ------------------------------------------------------------------ #

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

    def replay_events(self) -> List[Tuple[str, Dict]]:
        """Every worker's most recent event (the per-worker replay the
        single-run plane offers, federated)."""
        latest = [worker.last_event for worker in self.workers
                  if worker.last_event is not None]
        return [(event, {**payload, "replay": True})
                for event, payload in latest]

    # ------------------------------------------------------------------ #
    # Multiplexed SSE plane.
    # ------------------------------------------------------------------ #

    def _on_worker_event(self, worker: _Worker, event: str,
                         payload: Dict) -> None:
        labelled = {"worker": worker.index, "worker_url": worker.url,
                    **payload}
        with self._lock:
            worker.events_seen += 1
            worker.last_event = (event, labelled)
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
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between worker polls")
    parser.add_argument("--alerts", metavar="RULES",
                        help="alert rule file (JSON or TOML) evaluated "
                             "against the fleet stream")
    parser.add_argument("--alerts-out", metavar="PATH",
                        help="write the repro.alerts/1 document here on "
                             "exit (requires --alerts)")
    parser.add_argument("--duration", type=float, default=0.0,
                        help="serve for this many seconds then exit "
                             "(0 = until interrupted)")
    args = parser.parse_args(argv)

    from .alerts import close_alerts, open_alerts
    engine = open_alerts(parser, args)
    fleet = FleetAggregator(args.workers, alert_engine=engine)
    server = serve(fleet, args.port, "fleet telemetry",
                   f"{len(args.workers)} workers")
    fleet.start()
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
    return close_alerts(engine, args.alerts_out)


if __name__ == "__main__":
    sys.exit(main())
