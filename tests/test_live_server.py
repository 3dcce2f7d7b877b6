"""The live observability plane: LiveRun state, HTTP endpoints, SSE.

The contract under test is layered:

* :class:`~repro.telemetry.server.LiveRun` merges whatever the fleet
  has streamed so far exactly the way the experiment runner merges
  final snapshots (``merge_snapshots``), and
  once the runner hands over its aggregate, ``/snapshot`` serves that
  exact object.
* The HTTP surface (``/metrics`` ``/healthz`` ``/snapshot``
  ``/events``) round-trips through the repo's own validators — a
  scraped exposition and a downloaded snapshot are first-class
  artifacts for ``python -m repro.telemetry.validate``.
* Observation never perturbs simulation: a point run with a live feed
  returns a bit-identical result to one run without.
* A worker that stops flushing windows flips ``/healthz`` to 503
  ``degraded`` and warns once through the progress reporter.
"""

from __future__ import annotations

import http.client
import io
import json
import urllib.error
import urllib.request

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.experiments import parallel
from repro.experiments.parallel import RunSpec, SimPoint, run_point, run_points
from repro.telemetry import (
    LiveRun,
    ProgressReporter,
    TelemetryServer,
    merge_snapshots,
    to_prometheus,
)
from repro.telemetry.validate import (
    main as validate_main,
    validate,
    validate_prometheus,
)

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


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _get(url: str, timeout: float = 5.0):
    """GET returning (status, headers, body) without raising on 503."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


# ---------------------------------------------------------------------- #
# LiveRun state machine.
# ---------------------------------------------------------------------- #

def test_merged_matches_runner_merge():
    """The live merge is the same function composition the experiment
    runner applies to drained snapshots — same bytes, same order."""
    live = LiveRun()
    parallel.configure(jobs=1, metrics=WINDOW, live=live)
    results = run_points([_point(), _point(traces=(("spec", "art"),
                                                   ("spec", "mcf")))])
    snapshots = [result.metrics for result in results]
    expected = merge_snapshots(snapshots)
    assert live.merged() == expected
    assert json.dumps(live.merged(), sort_keys=True) == \
        json.dumps(expected, sort_keys=True)


def test_finish_run_serves_exact_aggregate():
    live = LiveRun()
    live.begin_run("fig-test")
    live.begin_batch(1)
    aggregate = {"schema": "repro.metrics-aggregate/1", "points": 1,
                 "totals": {}, "per_point": [], "marker": object()}
    live.finish_run(aggregate)
    assert live.merged() is aggregate
    assert live.health()["status"] == "finished"


def test_mid_run_windows_move_the_merge():
    """A window flush changes the merged snapshot before the point
    completes — the scrape-to-scrape freshness /metrics promises."""
    live = LiveRun()
    merges = []

    class Tap:
        def put(self, msg):
            live.put(msg)
            if msg[0] == "window":
                merges.append(
                    live.merged()["totals"]["measured_cycles"])

    base = live.begin_batch(1)
    run_point(_point(), RunSpec(metrics=WINDOW), feed=Tap(), index=base)
    assert len(merges) >= 2
    assert merges[-1] > merges[0]  # cycles accumulate across scrapes
    assert len(set(merges)) > 1


def test_begin_run_resets_state():
    live = LiveRun()
    live.begin_run("one")
    live.begin_batch(3)
    live.point_done(0, None)
    live.begin_run("two")
    health = live.health()
    assert health["run"] == "two"
    assert health["points"] == {"done": 0, "total": 0}
    assert health["status"] == "idle"


def test_feed_does_not_perturb_simulation():
    """Observation-only contract: the simulated result is bit-identical
    with and without a live feed attached."""
    plain = run_point(_point(), RunSpec(metrics=WINDOW))
    live = LiveRun()
    live.begin_batch(1)
    observed = run_point(_point(), RunSpec(metrics=WINDOW), feed=live,
                         index=0)
    assert observed == plain


# ---------------------------------------------------------------------- #
# Staleness detection.
# ---------------------------------------------------------------------- #

def test_stale_worker_degrades_health_and_warns_once():
    """A worker that stops flushing windows past the threshold flips
    health to degraded and produces exactly one progress warning."""
    clock = _FakeClock()
    stream = io.StringIO()
    live = LiveRun(stale_after=5.0, progress=ProgressReporter(stream),
                   clock=clock)
    live.begin_run("hang-test")
    live.begin_batch(2)
    live.put(("start", 0, 111))   # the worker that will hang
    live.put(("start", 1, 222))
    clock.now += 3.0
    live.put(("hb", 222))         # worker 222 stays live
    clock.now += 3.0              # 111 is now 6s quiet; 222 only 3s
    assert live.health()["status"] == "degraded"
    assert live.health()["stale_workers"] == [111]
    assert [worker for worker, _ in live.check_stale()] == [111]
    live.check_stale()            # second poll must not re-warn
    warnings = stream.getvalue()
    assert warnings.count("WARNING") == 1
    assert "worker 111" in warnings and "stale" in warnings
    # A fresh heartbeat clears the flag and re-arms the warning.
    live.put(("hb", 111))
    assert live.health()["status"] == "running"
    clock.now += 6.0
    live.put(("hb", 222))
    live.check_stale()
    assert stream.getvalue().count("WARNING") == 2


def test_stale_ignored_once_finished():
    clock = _FakeClock()
    live = LiveRun(stale_after=5.0, clock=clock)
    live.begin_batch(1)
    live.put(("start", 0, 111))
    clock.now += 60.0
    live.point_done(0, None)
    assert live.stale_workers() == []
    assert live.health()["status"] == "finished"


def test_stale_worker_returns_503_over_http():
    clock = _FakeClock()
    live = LiveRun(stale_after=5.0, clock=clock)
    live.begin_run("hang-test")
    live.begin_batch(1)
    live.put(("start", 0, 111))
    clock.now += 10.0
    with TelemetryServer(live, port=0) as server:
        status, _, body = _get(f"{server.url}/healthz")
    health = json.loads(body)
    assert status == 503
    assert health["status"] == "degraded"
    assert health["stale_workers"] == [111]
    assert health["workers"]["111"]["heartbeat_age_s"] == pytest.approx(10.0)


# ---------------------------------------------------------------------- #
# HTTP surface over a real (fast) run.
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def served_run():
    """One fast observed point behind a live server, shared across the
    HTTP tests (module-scoped: the run is the expensive part)."""
    live = LiveRun()
    parallel.configure(jobs=1, metrics=WINDOW, live=live)
    live.begin_run("fast-fig4-point")
    results = run_points([SimPoint(
        config=baseline_config(n_threads=2, arbiter="vpc",
                               vpc=VPCAllocation.equal(2)),
        traces=(("loads",), ("stores",)),
        warmup=500,
        measure=1_500,
    )])
    snapshots = [result.metrics for result in results]
    aggregate = merge_snapshots(snapshots)
    live.finish_run(aggregate)
    with TelemetryServer(live, port=0) as server:
        yield server, aggregate
    parallel.configure(jobs=1, cache=True)


def test_metrics_endpoint_is_valid_exposition(served_run):
    server, _ = served_run
    status, headers, body = _get(f"{server.url}/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode()
    assert validate_prometheus(text) == []
    assert "repro_run_points 1" in text
    assert 'repro_thread_ipc{point="0",thread="0"}' in text


def test_snapshot_endpoint_is_exact_aggregate(served_run):
    server, aggregate = served_run
    status, headers, body = _get(f"{server.url}/snapshot")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload == json.loads(json.dumps(aggregate))
    assert validate(payload, "metrics") == []


def test_healthz_reports_finished(served_run):
    server, _ = served_run
    status, _, body = _get(f"{server.url}/healthz")
    health = json.loads(body)
    assert status == 200
    assert health["status"] == "finished"
    assert health["points"] == {"done": 1, "total": 1}
    assert health["workers"]  # at least the serial in-process worker


def test_unknown_path_404s(served_run):
    server, _ = served_run
    status, _, body = _get(f"{server.url}/nope")
    assert status == 404
    assert b"/metrics" in body


def test_events_streams_a_window_event(served_run):
    """A late /events subscriber still receives a window event — the
    replay priming the CI smoke job relies on."""
    server, _ = served_run
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=5.0)
    try:
        connection.request("GET", "/events")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        event_line = response.fp.readline().decode().strip()
        data_line = response.fp.readline().decode().strip()
    finally:
        connection.close()
    assert event_line == "event: window"
    payload = json.loads(data_line[len("data: "):])
    assert payload["replay"] is True
    assert payload["snapshot"]["schema"] == "repro.metrics/1"


def test_scrape_round_trips_through_validate_cli(served_run, tmp_path,
                                                 capsys):
    """Satellite: artifacts scraped off the live server are accepted by
    the validate CLI — the exposition body via Prometheus-text
    auto-detection (no .prom suffix, no flag), the snapshot JSON via
    its schema tag (which also re-verifies attribution conservation)."""
    server, _ = served_run
    _, _, prom_body = _get(f"{server.url}/metrics")
    _, _, snap_body = _get(f"{server.url}/snapshot")
    scrape = tmp_path / "scraped-metrics.txt"   # deliberately not .prom
    scrape.write_bytes(prom_body)
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_bytes(snap_body)
    assert validate_main([str(scrape)]) == 0
    assert "exposition samples" in capsys.readouterr().out
    assert validate_main([str(snapshot)]) == 0
    assert "metric points" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# to_prometheus over aggregates (the /metrics body builder).
# ---------------------------------------------------------------------- #

def test_prometheus_aggregate_labels_points():
    live = LiveRun()
    parallel.configure(jobs=1, metrics=WINDOW, live=live)
    run_points([_point(), _point(traces=(("spec", "art"),
                                         ("spec", "mcf")))])
    text = to_prometheus(live.merged())
    assert validate_prometheus(text) == []
    assert "repro_run_points 2" in text
    assert 'point="0"' in text and 'point="1"' in text
    # Families are declared once even with per-point samples.
    assert text.count("# TYPE repro_thread_ipc gauge") == 1
