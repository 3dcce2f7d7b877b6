"""The federated metrics plane: merge_fleet, aggregator, fleet HTTP.

The contract under test:

* :func:`merge_fleet` flattens per-worker aggregates (worker order,
  each worker's point order preserved) through the same
  ``merge_snapshots`` a single big run uses — and the served fleet
  ``/snapshot`` is *byte-identical* to that function applied offline
  to the scraped per-worker snapshots.
* The fleet health rollup is worst-of: one unreachable or degraded
  worker degrades the fleet (503); all-finished reports finished.
* The multiplexed SSE stream labels every event with its worker, primes
  late subscribers with each worker's last event (``replay: true``),
  and survives a worker restart mid-stream (reconnect with backoff).
* A fleet-level alert engine observes the multiplexed stream and the
  health polls; its emissions ride the fleet stream as ``alert``
  events and are served at ``/alerts``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.experiments import parallel
from repro.experiments.parallel import SimPoint, run_points
from repro.telemetry import (
    FleetAggregator,
    FleetServer,
    LiveRun,
    TelemetryServer,
    merge_fleet,
    merge_snapshots,
)
from repro.telemetry.alerts import AlertEngine, AlertRule
from repro.telemetry.validate import validate, validate_prometheus

WINDOW = 500


@pytest.fixture(autouse=True)
def _reset_execution_policy():
    parallel.configure(jobs=1, cache=True)
    yield
    parallel.configure(jobs=1, cache=True)


def _point(**overrides) -> SimPoint:
    params = dict(
        config=baseline_config(n_threads=2, arbiter="vpc",
                               vpc=VPCAllocation.equal(2)),
        traces=(("loads",), ("stores",)),
        warmup=500,
        measure=1_500,
    )
    params.update(overrides)
    return SimPoint(**params)


def _finished_live(label: str, points) -> LiveRun:
    """A LiveRun that ran the given points and serves their aggregate."""
    live = LiveRun()
    parallel.configure(jobs=1, cache=False, metrics=WINDOW, live=live)
    live.begin_run(label, kernel="batch")
    results = run_points(points)
    snapshots = [result.metrics for result in results]
    aggregate = merge_snapshots(snapshots)
    aggregate["kernel"] = "batch"
    live.finish_run(aggregate)
    return live


def _get(url: str, timeout: float = 5.0):
    """GET returning (status, body) without raising on 503."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _wait_for(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------- #
# merge_fleet (offline).
# ---------------------------------------------------------------------- #

def test_merge_fleet_flattens_in_worker_order():
    live_a = _finished_live("worker-a", [_point()])
    live_b = _finished_live("worker-b", [_point(traces=(("spec", "art"),
                                                        ("spec", "mcf")))])
    snap_a, snap_b = live_a.merged(), live_b.merged()
    fleet = merge_fleet([snap_a, snap_b])
    expected = merge_snapshots(snap_a["per_point"] + snap_b["per_point"])
    assert fleet["points"] == 2
    assert fleet["per_point"] == expected["per_point"]
    assert fleet["totals"] == expected["totals"]
    assert fleet["kernel"] == "batch"  # unanimous fleet
    assert validate(fleet, "metrics") == []


def test_merge_fleet_skips_unreachable_and_mixed_kernels():
    live = _finished_live("worker-a", [_point()])
    snapshot = live.merged()
    fleet = merge_fleet([None, snapshot, None])
    assert fleet["points"] == 1
    other = json.loads(json.dumps(snapshot))
    other["kernel"] = "cycle"
    mixed = merge_fleet([snapshot, other])
    assert "kernel" not in mixed  # no single truthful value


# ---------------------------------------------------------------------- #
# The aggregator over live worker servers.
# ---------------------------------------------------------------------- #

@pytest.fixture()
def fleet_of_two():
    """Two finished worker servers behind one aggregator + fleet server."""
    live_a = _finished_live("worker-a", [_point()])
    live_b = _finished_live("worker-b", [_point(traces=(("spec", "art"),
                                                        ("spec", "mcf")))])
    with TelemetryServer(live_a, port=0) as worker_a, \
            TelemetryServer(live_b, port=0) as worker_b:
        fleet = FleetAggregator([worker_a.url, worker_b.url], timeout=2.0)
        fleet.refresh()
        with FleetServer(fleet, port=0) as server:
            yield server, fleet, (worker_a, worker_b)


def test_fleet_snapshot_byte_identical_to_offline_merge(fleet_of_two):
    """The acceptance criterion: GET /snapshot off the fleet server is
    byte-for-byte the offline merge over the scraped worker snapshots."""
    server, _, workers = fleet_of_two
    scraped = []
    for worker in workers:
        status, body = _get(f"{worker.url}/snapshot")
        assert status == 200
        scraped.append(json.loads(body))
    status, fleet_bytes = _get(f"{server.url}/snapshot")
    assert status == 200
    expected = (json.dumps(merge_fleet(scraped)) + "\n").encode()
    assert fleet_bytes == expected


def test_fleet_health_rollup_finished(fleet_of_two):
    server, fleet, _ = fleet_of_two
    status, body = _get(f"{server.url}/fleet/healthz")
    health = json.loads(body)
    assert status == 200
    assert health["status"] == "finished"
    assert health["n_workers"] == 2
    assert health["unreachable_workers"] == []
    assert {entry["status"] for entry in health["workers"].values()} == \
        {"finished"}
    # /healthz is an alias, 404s advertise the surface.
    assert _get(f"{server.url}/healthz")[0] == 200
    status, body = _get(f"{server.url}/nope")
    assert status == 404 and b"/fleet/healthz" in body


def test_fleet_metrics_exposition(fleet_of_two):
    server, _, _ = fleet_of_two
    status, body = _get(f"{server.url}/metrics")
    text = body.decode()
    assert status == 200
    assert validate_prometheus(text) == []
    assert "repro_run_points 2" in text       # both workers' points
    assert "repro_fleet_workers 2" in text
    assert "repro_fleet_workers_reachable 2" in text


def test_unreachable_worker_degrades_fleet():
    live = _finished_live("worker-a", [_point()])
    with TelemetryServer(live, port=0) as worker:
        dead = "http://127.0.0.1:9"  # discard port: nothing listens
        fleet = FleetAggregator([worker.url, dead], timeout=0.5)
        fleet.refresh()
        health = fleet.health()
        assert health["status"] == "degraded"
        assert health["unreachable_workers"] == [1]
        # The reachable worker's points still merge.
        assert fleet.snapshot()["points"] == 1
        with FleetServer(fleet, port=0) as server:
            status, _ = _get(f"{server.url}/fleet/healthz")
            assert status == 503


# ---------------------------------------------------------------------- #
# Multiplexed SSE: labelling, replay, reconnect.
# ---------------------------------------------------------------------- #

def test_sse_multiplex_labels_and_late_replay():
    live = LiveRun()
    live.begin_run("sse-test")
    live.begin_batch(1)
    with TelemetryServer(live, port=0) as worker:
        fleet = FleetAggregator([worker.url], timeout=2.0)
        fleet.start()
        try:
            early = fleet.subscribe()
            live.put(("window", 0, 4242,
                      1000, {"schema": "repro.metrics/1", "marker": 7}))
            assert _wait_for(lambda: not early.empty())
            event, payload = early.get_nowait()
            assert event == "window"
            assert payload["worker"] == 0
            assert payload["worker_url"] == worker.url
            assert payload["snapshot"]["marker"] == 7
            # A late subscriber is primed with the worker's last event,
            # explicitly marked as a replay.
            late = fleet.subscribe()
            event, replay = late.get_nowait()
            assert event == "window"
            assert replay["replay"] is True
            assert replay["worker"] == 0
            assert replay["snapshot"]["marker"] == 7
        finally:
            fleet.stop()


def test_worker_restart_mid_stream_reconnects():
    """Kill a worker's server mid-stream, bring a new one up on the
    same port: the pump reconnects (backoff) and events flow again."""
    live = LiveRun()
    live.begin_run("restart-test")
    live.begin_batch(1)
    first = TelemetryServer(live, port=0)
    first.start()
    port = first.port
    fleet = FleetAggregator([first.url], timeout=2.0)
    fleet.start()
    subscriber = fleet.subscribe()
    try:
        live.put(("window", 0, 1, 100, {"phase": "before"}))
        assert _wait_for(lambda: not subscriber.empty())
        while not subscriber.empty():
            subscriber.get_nowait()
        first.stop()  # connection drops mid-stream
        time.sleep(0.1)
        second = TelemetryServer(live, port=port)  # same address
        second.start()
        try:
            # Events published after the restart reach the fleet once
            # the pump's backoff loop re-subscribes.
            def poke_and_check() -> bool:
                live.put(("window", 0, 1, 200, {"phase": "after"}))
                while not subscriber.empty():
                    _, payload = subscriber.get_nowait()
                    if payload.get("snapshot", {}).get("phase") == "after":
                        return True
                return False

            assert _wait_for(poke_and_check, timeout=15.0, interval=0.25)
        finally:
            second.stop()
    finally:
        fleet.stop()


# ---------------------------------------------------------------------- #
# Fleet-level alerting.
# ---------------------------------------------------------------------- #

def test_fleet_alert_engine_observes_stream_and_serves_alerts():
    engine = AlertEngine([
        AlertRule(name="retry-storm", signal="retries", op=">=",
                  threshold=2, severity="page"),
    ])
    live = LiveRun()
    live.begin_run("alerting")
    live.begin_batch(2)
    with TelemetryServer(live, port=0) as worker:
        fleet = FleetAggregator([worker.url], timeout=2.0,
                                alert_engine=engine)
        fleet.start()
        subscriber = fleet.subscribe()
        try:
            # Wait for the SSE pump to attach before producing, so the
            # retry events flow live (not through health backfill).
            live.put(("window", 0, 1, 100, {"warming": True}))
            assert _wait_for(lambda: fleet.workers[0].events_seen > 0)
            live.point_retry(0, attempt=1, error="worker died")
            live.point_retry(1, attempt=1, error="timeout")
            assert _wait_for(lambda: engine.page_fired)
        finally:
            fleet.stop()
        received = []
        while not subscriber.empty():
            received.append(subscriber.get_nowait())
        alerts = [payload for event, payload in received
                  if event == "alert"]
        assert len(alerts) == 1 and alerts[0]["alert"] == "retry-storm"
        assert fleet.health()["alerts"]["fired"] == 1
        assert "repro_fleet_alerts_fired 1" in fleet.metrics()
        with FleetServer(fleet, port=0) as server:
            status, body = _get(f"{server.url}/alerts")
            assert status == 200
            document = json.loads(body)
            assert validate(document, "alerts") == []
            assert document["summary"]["page_fired"] is True


def test_alerts_endpoint_404_without_engine():
    live = _finished_live("worker-a", [_point()])
    with TelemetryServer(live, port=0) as worker:
        fleet = FleetAggregator([worker.url], timeout=2.0)
        fleet.refresh()
        with FleetServer(fleet, port=0) as server:
            status, body = _get(f"{server.url}/alerts")
            assert status == 404 and b"no alert rules" in body


def test_health_poll_feeds_worker_resilience_counters():
    """A fleet engine that subscribed after the retry events still sees
    the counts through the worker's health document (max-merge)."""
    engine = AlertEngine([
        AlertRule(name="retry-storm", signal="retries", op=">=",
                  threshold=3, severity="warn"),
    ])
    live = LiveRun()
    live.begin_run("late-subscriber")
    # The retries happen BEFORE the aggregator exists — only the
    # /healthz resilience block can carry them to the fleet engine.
    for point in range(3):
        live.point_retry(point, attempt=1, error="worker died")
    with TelemetryServer(live, port=0) as worker:
        fleet = FleetAggregator([worker.url], timeout=2.0,
                                alert_engine=engine)
        fleet.refresh()
    assert engine.counters["retries"] == 3
    assert engine.firing == ["retry-storm"]
