"""The telemetry subsystem: sinks, zero-perturbation, Perfetto export,
schema validation, histograms, manifests, and the CLI flags.

The two load-bearing contracts:

* **Tracing never changes simulation results** — a traced run's
  ``SimulationResult`` equals the untraced run's, field for field.
* **Exported traces are well-formed** — every retired request appears
  as exactly one balanced async begin/end pair, and the whole file
  passes the trace_event schema validator the CI smoke uses.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.common.config import baseline_config
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.bus import JsonlSink, RingBufferSink
from repro.telemetry.events import (
    CAT_ARBITER,
    CAT_HOST,
    CAT_KERNEL,
    CAT_REQUEST,
    CAT_RESOURCE,
    PH_BEGIN,
    PH_END,
    TraceEvent,
)
from repro.telemetry.histograms import Histogram
from repro.telemetry.manifest import RunManifest, config_hash
from repro.telemetry.perfetto import chrome_trace, write_chrome_trace
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.validate import validate_chrome_trace
from repro.workloads.microbench import loads_trace, stores_trace


def _event(**overrides) -> TraceEvent:
    params = dict(ts=10, phase="i", category="kernel", name="skip",
                  track="kernel")
    params.update(overrides)
    return TraceEvent(**params)


def _traced_system(record_requests=False, kernel="batch"):
    config = baseline_config(n_threads=2, arbiter="vpc")
    traces = [loads_trace(0), stores_trace(1)]
    ring = RingBufferSink()
    system = CMPSystem(config, traces, telemetry=ring, kernel=kernel,
                       record_requests=record_requests)
    return system, ring


class TestBusAndSinks:
    def test_event_to_dict_omits_empty_fields(self):
        minimal = _event().to_dict()
        assert minimal == {"ts": 10, "ph": "i", "cat": "kernel",
                           "name": "skip", "track": "kernel"}
        full = _event(tid=1, dur=4, id=7, args={"x": 1}).to_dict()
        assert full["tid"] == 1 and full["dur"] == 4
        assert full["id"] == 7 and full["args"] == {"x": 1}

    def test_ring_buffer_drops_oldest(self):
        ring = RingBufferSink(capacity=2)
        for ts in range(5):
            ring.emit(_event(ts=ts))
        assert [event.ts for event in ring] == [3, 4]

    def test_jsonl_sink_streams_one_object_per_line(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit(_event(args={"obj": object()}))  # non-JSON arg degrades
        sink.emit(_event(ts=11))
        sink.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["ts"] == 11


class TestZeroPerturbation:
    def test_traced_run_matches_untraced(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        plain = run_simulation(
            CMPSystem(config, [loads_trace(0), stores_trace(1)]),
            warmup=2_000, measure=2_000)
        system, ring = _traced_system()
        traced = run_simulation(system, warmup=2_000, measure=2_000)
        assert traced == plain
        assert len(ring) > 0  # ... and the trace actually captured events

    def test_untraced_components_hold_no_bus(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
        assert system.telemetry is None
        assert all(bank._probe is None for bank in system.banks)
        assert system.crossbar._probe is None


class TestRequestLifecycles:
    def test_request_log_rides_the_bus(self):
        """``record_requests=True`` is a view on the lifecycle probe,
        fed at retirement: it needs no trace sink."""
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                           record_requests=True)
        assert system.telemetry is None
        assert system._probe.log is not None
        system.run(4_000)
        log = system.request_log
        assert log and all(req.is_read for req in log)
        # The property exposes the live list (callers clear() it).
        system.request_log.clear()
        assert system.request_log == []

    def test_perfetto_one_balanced_pair_per_retired_request(self):
        """Satellite: a traced 2-thread loads+stores run exports exactly
        one async begin and one async end per request span, balanced."""
        system, ring = _traced_system(record_requests=True)
        system.run(6_000)
        records = chrome_trace(ring)
        begins = {}
        ends = {}
        for record in records:
            if record.get("cat") != CAT_REQUEST:
                continue
            if record["ph"] == PH_BEGIN:
                begins[record["id"]] = begins.get(record["id"], 0) + 1
            elif record["ph"] == PH_END:
                ends[record["id"]] = ends.get(record["id"], 0) + 1
        assert begins  # the run retired work
        assert begins == ends  # balanced, span for span
        assert all(count == 1 for count in begins.values())
        # Every retired demand load shows up as one of those spans.
        for request in system.request_log:
            assert begins.get(str(request.req_id)) == 1

    def test_trace_has_thread_resource_and_kernel_tracks(self):
        system, ring = _traced_system()
        system.run(6_000)
        records = chrome_trace(ring)
        names = {(r["ph"], r.get("args", {}).get("name"))
                 for r in records if r["ph"] == "M"}
        track_names = {name for ph, name in names}
        assert {"hardware threads", "shared resources", "t0", "t1"} \
            <= track_names
        assert any(name and name.startswith("bank0.")
                   for name in track_names)
        cats = {r.get("cat") for r in records}
        assert CAT_RESOURCE in cats and CAT_ARBITER in cats

    def test_kernel_skip_markers_present_under_batch_kernel(self):
        system, ring = _traced_system(kernel="batch")
        system.run(8_000)
        skips = [e for e in ring if e.category == CAT_KERNEL]
        assert system.skips_taken > 0
        assert len(skips) == system.skips_taken
        assert all(e.dur > 0 and e.args["to"] > e.ts for e in skips)


class TestPerfettoExport:
    def test_synthetic_end_closes_inflight_spans(self):
        events = [
            _event(ts=5, phase=PH_BEGIN, category=CAT_REQUEST, name="load",
                   track="t0", tid=0, id=1),
            _event(ts=9, phase="X", category=CAT_RESOURCE, name="tag",
                   track="bank0.tag", dur=3),
        ]
        records = chrome_trace(events)
        assert validate_chrome_trace(records) == []
        ends = [r for r in records if r["ph"] == PH_END]
        assert len(ends) == 1
        assert ends[0]["id"] == "1"
        assert ends[0]["args"]["truncated"] is True
        assert ends[0]["ts"] == 12  # last observed timestamp (9 + dur 3)

    def test_truncation_ignores_the_host_clock(self):
        """Host spans are wall-clock microseconds: an open request span
        closes at the last simulated timestamp, not at a host span's
        end."""
        events = [
            _event(ts=5, phase=PH_BEGIN, category=CAT_REQUEST, name="load",
                   track="t0", tid=0, id=1),
            _event(ts=9, phase="X", category=CAT_RESOURCE, name="tag",
                   track="bank0.tag", dur=3),
            _event(ts=150_000, phase="X", category=CAT_HOST,
                   name="simulate", track="host.run", dur=40_000),
        ]
        records = chrome_trace(events)
        ends = [r for r in records if r["ph"] == PH_END]
        assert [r["ts"] for r in ends] == [12]
        assert validate_chrome_trace(records) == []

    def test_synthetic_begin_for_evicted_begin(self):
        """A ring buffer can evict a span's begin; the exporter heals it."""
        events = [_event(ts=50, phase=PH_END, category=CAT_REQUEST,
                         name="load", track="t0", tid=0, id=9)]
        records = chrome_trace(events)
        assert validate_chrome_trace(records) == []

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        system, ring = _traced_system()
        system.run(4_000)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, ring)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert validate_chrome_trace(payload) == []


class TestValidator:
    def test_rejects_malformed_records(self):
        bad = [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0},
            {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0},
            {"ph": "b", "name": "x", "pid": 1, "tid": 0, "ts": 0,
             "cat": "request", "id": "1"},
            {"ph": "i", "name": "x", "pid": 1, "tid": 0, "ts": 0, "s": "q"},
        ]
        errors = validate_chrome_trace(bad)
        assert any("bad phase" in e for e in errors)
        assert any("without 'dur'" in e for e in errors)
        assert any("unclosed async span" in e for e in errors)
        assert any("bad instant scope" in e for e in errors)

    def test_rejects_truncated_end_past_its_clock(self):
        """An exporter-synthesized end must not outlive every real event
        on its own clock: host spans are wall-clock microseconds, so a
        request span closed at a host span's end is a broken export."""
        real = [
            {"ph": "b", "cat": "request", "name": "load", "pid": 1,
             "tid": 0, "ts": 5, "id": "1"},
            {"ph": "X", "cat": "resource", "name": "tag", "pid": 2,
             "tid": 0, "ts": 9, "dur": 3},
            {"ph": "X", "cat": "host", "name": "simulate", "pid": 4,
             "tid": 0, "ts": 150_000, "dur": 40_000},
        ]

        def closed_at(ts):
            return real + [{"ph": "e", "cat": "request", "name": "load",
                            "pid": 1, "tid": 0, "ts": ts, "id": "1",
                            "args": {"truncated": True}}]

        assert validate_chrome_trace(closed_at(12)) == []
        errors = validate_chrome_trace(closed_at(190_000))
        assert any("truncated end at 190000" in e for e in errors)

    def test_rejects_non_trace_payload(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"foo": []})

    def test_cli_entrypoint(self, tmp_path, capsys):
        from repro.telemetry.validate import main
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"traceEvents": []}))
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"ph": "Z"}]))
        assert main([str(bad)]) == 1
        assert main([]) == 2


class TestHistograms:
    def test_histogram_exact_moments_and_bucket_bounds(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 100):
            hist.record(value)
        assert hist.count == 5
        assert hist.mean == pytest.approx(106 / 5)
        assert hist.maximum == 100
        assert hist.percentile(1.0) == 100
        # p50 lands in the bucket holding the 3rd sample: [2, 3].
        assert hist.percentile(0.50) == 3
        rows = hist.buckets()
        assert rows[0] == (0, 0, 1)
        assert sum(count for _, _, count in rows) == 5
        with pytest.raises(ValueError):
            hist.record(-1)

    def test_sink_matches_request_log_analysis(self):
        """The streaming histograms agree with the list-based analysis
        module they subsume (same stage vocabulary, same population)."""
        from repro.analysis.latency import loads_by_thread
        system, _ = _traced_system(record_requests=True)
        hist_sink = system.attach_histograms()
        system.run(6_000)
        summaries = loads_by_thread(system.request_log)
        assert hist_sink.threads() == sorted(summaries)
        for tid, summary in summaries.items():
            hist = hist_sink.histogram(tid, "total")
            assert hist.count == summary.count
            assert hist.mean == pytest.approx(summary.mean)
            assert hist.maximum == summary.maximum

    def test_report_renders_all_stages(self):
        system, _ = _traced_system()
        sink = system.attach_histograms()
        system.run(6_000)
        report = sink.format_report()
        # loads misses every access, so the hit-path data/bus stamps
        # never appear; the miss-path stages always do.
        for stage in ("total", "queueing", "tag"):
            assert stage in report


class TestManifest:
    def test_collect_fills_provenance(self):
        config = baseline_config(n_threads=2)
        manifest = RunManifest.collect(
            config=config, kernel="batch", seeds=[1, 2],
            cache={"hits": 3, "misses": 1}, wall_time_s=0.5, note="x")
        assert manifest.config_hash == config_hash(config)
        assert len(manifest.config_hash) == 16
        assert manifest.git_sha and manifest.git_sha != ""
        assert manifest.seeds == (1, 2)
        assert manifest.cache == {"hits": 3, "misses": 1}
        assert manifest.created_unix > 0
        assert manifest.extra == {"note": "x"}

    def test_config_hash_sensitivity(self):
        a = baseline_config(n_threads=2)
        b = baseline_config(n_threads=4)
        assert config_hash(a) == config_hash(baseline_config(n_threads=2))
        assert config_hash(a) != config_hash(b)

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "m.json"
        RunManifest.collect(kernel="cycle", wall_time_s=1.25).write(path)
        payload = json.loads(path.read_text())
        assert payload["kernel"] == "cycle"
        assert payload["wall_time_s"] == 1.25
        assert set(payload) >= {"config_hash", "git_sha", "seeds", "cache",
                                "created_unix", "extra"}


class TestProgressReporter:
    def test_reports_progress_eta_and_cache_rate(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, label="fig8")
        reporter.begin(3)
        reporter.point_done(cached=True)
        reporter.point_done()
        reporter.point_done()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("fig8: [1/3]")
        assert "ETA" in lines[0]
        assert "cache 1/1 hits" in lines[0]
        assert "[3/3] 100.0%" in lines[2]
        assert "done" in lines[2]

    def test_begin_extends_open_batch(self):
        reporter = ProgressReporter(stream=io.StringIO())
        reporter.begin(2)
        reporter.point_done()
        reporter.begin(2)  # a second run_points in the same experiment
        assert reporter.total == 4 and reporter.done == 1
        reporter.point_done()
        reporter.point_done()
        reporter.point_done()
        reporter.begin(5)  # finished batch: a fresh experiment restarts
        assert reporter.total == 5 and reporter.done == 0


class TestCLI:
    def test_trace_and_manifest_flags(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "out.json"
        manifest = tmp_path / "run.manifest.json"
        assert main(["loads", "stores", "--arbiter", "vpc",
                     "--warmup", "2000", "--cycles", "2000",
                     "--trace", str(trace),
                     "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        doc = json.loads(manifest.read_text())
        assert doc["kernel"] == "batch"
        assert doc["config_hash"]
        assert doc["extra"]["workloads"] == ["loads", "stores"]

    def test_jsonl_trace_and_histograms(self, tmp_path, capsys):
        from repro.cli import main
        trace = tmp_path / "out.jsonl"
        assert main(["loads", "stores", "--warmup", "2000",
                     "--cycles", "2000", "--trace", str(trace),
                     "--histograms"]) == 0
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        assert "latency histograms" in capsys.readouterr().out

    def test_untraced_cli_run_still_works(self, capsys):
        from repro.cli import main
        assert main(["loads", "--warmup", "1000", "--cycles", "1000"]) == 0
        assert "IPC" in capsys.readouterr().out


@pytest.fixture
def built_events(monkeypatch):
    """One entry per TraceEvent constructed while the test runs."""
    built = []
    original = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    return built


def test_views_run_without_a_bus(built_events):
    """Metrics, attribution, the QoS monitor, a QoS controller, CPI
    stacks and request tracing all count through the lifecycle probe:
    a point with every one of them on attaches no trace sink and
    builds no TraceEvent."""
    from repro.experiments.parallel import PointRun, RunSpec, SimPoint
    from repro.telemetry.requests import load_slo

    point = SimPoint(
        config=baseline_config(n_threads=2, arbiter="vpc"),
        traces=(("loads",), ("stores",)),
        warmup=1_000, measure=3_000,
        controller="lfoc", epoch_cycles=1_000,
    )
    spec = RunSpec(metrics=500, cpi_stacks=True, requests=True,
                   slo=tuple(load_slo("400")))
    point_run = PointRun.build(point, spec, monitor=True)
    system = point_run.system
    assert point_run.monitor is not None
    assert system.qos_controller is not None
    assert system.cycle_accounting is not None
    assert system.request_tracer is not None
    result = point_run.run()
    assert system.telemetry is None
    assert built_events == []
    # Every view produced its document.
    assert result.metrics["events_seen"] > 0
    assert sum(result.metrics["attribution"]["interference_received"]) > 0
    assert result.qos["epochs"] == 3
    assert result.cpi_stacks is not None and result.requests is not None
    assert point_run.monitor.conformance()["windows_checked"] > 0


def test_request_log_and_histograms_build_no_events(built_events):
    """The request log and the latency histograms are probe views fed
    at retirement: a run with both on attaches no trace sink and builds
    no TraceEvent."""
    config = baseline_config(n_threads=2, arbiter="vpc")
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       record_requests=True)
    histograms = system.attach_histograms()
    system.run(4_000)
    assert system.telemetry is None
    assert built_events == []
    assert system.request_log
    assert histograms.threads() == [0]


def test_record_logs_never_hold_more_than_their_bound():
    """The probe folds a record log into its views whenever it reaches
    ``LOG_LIMIT`` records, so however long a ``run()`` is, no log ever
    holds more: a warmup that logs at least ten times the bound folds
    every log at or under it, and the run's exit leaves every log
    empty."""
    from repro.experiments.parallel import PointRun, RunSpec, SimPoint
    from repro.telemetry.probe import LOG_LIMIT, LOGS
    from repro.workloads import workload_spec
    from repro.workloads.profiles import HETEROGENEOUS_MIXES

    point = SimPoint(
        config=baseline_config(n_threads=4, arbiter="vpc"),
        traces=tuple(workload_spec(name)
                     for name in HETEROGENEOUS_MIXES["mix1"]),
        warmup=6_000, measure=1_000,
    )
    spec = RunSpec(metrics=1_000, cpi_stacks=True, requests=True)
    point_run = PointRun.build(point, spec, monitor=True)
    probe = point_run.system._probe
    held = []
    fold = probe._fold

    def recording_fold(name):
        held.append((name, len(getattr(probe, name))))
        fold(name)

    probe._fold = recording_fold
    point_run.system.run(point.warmup)
    logged = sum(size for _, size in held)
    assert logged >= 10 * LOG_LIMIT
    assert max(size for _, size in held) <= LOG_LIMIT
    assert {name for name, _ in held} == set(LOGS)
    assert all(not getattr(probe, name) for name in LOGS)
