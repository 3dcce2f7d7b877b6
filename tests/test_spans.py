"""Host-time orchestration tracing: SpanTracer, propagation, export.

The contract under test:

* Spans carry wall-clock microsecond stamps on one run-wide timeline
  (the tracer's unix epoch), ids are process-unique, and the collected
  document is the deterministic, validatable ``repro.spans/1`` shape.
* A :class:`SpanContext` hands a worker tracer the parent's trace id,
  epoch, and parent span; worker records travel home over the feed
  channel as ``("span", index, pid, record)`` tuples and are adopted by
  the parent via :meth:`SpanTracer.ingest`.
* With the run's trace sink attached, spans double as ``CAT_HOST`` trace
  events and the Perfetto exporter renders them as the dedicated
  "host orchestration" process — one trace, simulated cycles and
  wall-clock side by side.
* The orchestration layer (run_points scheduling, result cache) emits
  spans when configured and — observation-only contract — never
  perturbs the simulated results.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.experiments import parallel
from repro.experiments.parallel import SimPoint, run_points
from repro.resilience import ResilienceConfig
from repro.telemetry.bus import RingBufferSink
from repro.telemetry.events import CAT_HOST
from repro.telemetry.perfetto import PID_HOST, chrome_trace
from repro.telemetry.server import LiveRun
from repro.telemetry.spans import (
    SPANS_SCHEMA,
    TRACK_RUN,
    TRACK_SCHED,
    TRACK_WORKER,
    SpanContext,
    SpanTracer,
    write_spans,
)
from repro.telemetry.validate import (
    main as validate_main,
    validate,
    validate_chrome_trace,
)

WINDOW = 500


@pytest.fixture(autouse=True)
def _reset_execution_policy():
    parallel.configure(jobs=1, cache=True)
    yield
    parallel.configure(jobs=1, cache=True)


class _FakeClock:
    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


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


# ---------------------------------------------------------------------- #
# Tracer mechanics.
# ---------------------------------------------------------------------- #

def test_span_lifecycle_and_timeline():
    clock = _FakeClock()
    tracer = SpanTracer(clock=clock)
    span = tracer.begin("batch", TRACK_RUN, points=3)
    clock.now += 1.5
    record = tracer.end(span, outcome="ok")
    assert record["kind"] == "span"
    assert record["name"] == "batch"
    assert record["track"] == TRACK_RUN
    assert record["ts_us"] == 0
    assert record["dur_us"] == 1_500_000
    assert record["args"] == {"points": 3, "outcome": "ok"}
    assert record["trace_id"] == tracer.trace_id
    assert tracer.records == [record]


def test_span_ids_are_unique_and_instants_zero_width():
    tracer = SpanTracer(clock=_FakeClock())
    records = [tracer.instant(f"i{n}", TRACK_SCHED) for n in range(50)]
    ids = {record["span_id"] for record in records}
    assert len(ids) == 50
    assert all(record["dur_us"] == 0 for record in records)
    assert all(record["kind"] == "instant" for record in records)


def test_span_scope_records_error_on_exception():
    tracer = SpanTracer(clock=_FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("doomed", TRACK_WORKER):
            raise ValueError("boom")
    (record,) = tracer.records
    assert record["name"] == "doomed"
    assert record["args"]["error"] == "ValueError"


def test_clock_skew_never_goes_negative():
    clock = _FakeClock()
    tracer = SpanTracer(clock=clock)
    clock.now -= 10.0  # a worker whose wall clock lags the parent's
    assert tracer.now_us() == 0


# ---------------------------------------------------------------------- #
# Cross-process propagation.
# ---------------------------------------------------------------------- #

def test_child_context_is_picklable_and_anchors_worker():
    clock = _FakeClock()
    parent = SpanTracer(clock=clock)
    scheduling = parent.begin("point0", TRACK_SCHED)
    context = pickle.loads(pickle.dumps(parent.child_context(scheduling)))
    assert isinstance(context, SpanContext)
    clock.now += 2.0
    worker = SpanTracer(context=context, clock=clock)
    record = worker.end(worker.begin("simulate.point0", TRACK_WORKER))
    # Same trace, same timeline, parented under the scheduling span.
    assert worker.trace_id == parent.trace_id
    assert record["trace_id"] == parent.trace_id
    assert record["parent_id"] == scheduling.span_id
    assert record["ts_us"] == 2_000_000


def test_worker_records_ship_over_feed_and_ingest():
    class Feed:
        def __init__(self):
            self.messages = []

        def put(self, msg):
            self.messages.append(msg)

    clock = _FakeClock()
    parent = SpanTracer(clock=clock)
    scheduling = parent.begin("point7", TRACK_SCHED)
    feed = Feed()
    worker = SpanTracer(feed=feed, index=7,
                        context=parent.child_context(scheduling),
                        clock=clock)
    worker.instant("journal.started", TRACK_WORKER)
    kind, index, _pid, record = feed.messages[0]
    assert (kind, index) == ("span", 7)
    parent.ingest(record)
    parent.end(scheduling)
    document = parent.document()
    names = [span["name"] for span in document["spans"]]
    assert "journal.started" in names and "point7" in names
    assert validate(document, "spans") == []
    # Garbage off the wire is dropped, not raised.
    parent.ingest("not-a-record")
    parent.ingest({"no": "span_id"})
    assert len(parent.records) == 2


def test_live_run_routes_span_tuples():
    """LiveRun.put dispatches span tuples to on_span (parent adoption)
    and republishes them as worker-visible SSE events."""
    live = LiveRun()
    live.begin_batch(1)
    adopted = []
    live.on_span = adopted.append
    subscriber = live.subscribe()
    record = SpanTracer(clock=_FakeClock()).instant("cache-hit", TRACK_SCHED)
    live.put(("span", 0, 4242, record))
    assert adopted == [record]
    published = []
    while not subscriber.empty():
        published.append(subscriber.get_nowait())
    events = [payload for event, payload in published if event == "span"]
    assert events and events[0]["worker"] == 4242
    assert events[0]["span"] == record


# ---------------------------------------------------------------------- #
# The repro.spans/1 artifact.
# ---------------------------------------------------------------------- #

def test_write_spans_is_valid_and_deterministic(tmp_path, capsys):
    clock = _FakeClock()
    tracer = SpanTracer(clock=clock)
    outer = tracer.begin("experiment", TRACK_RUN)
    clock.now += 0.25
    tracer.instant("cache-miss", TRACK_SCHED, parent=outer, point=0)
    clock.now += 0.25
    tracer.end(outer)
    path = tmp_path / "spans.json"
    assert write_spans(path, tracer) == 2
    document = json.loads(path.read_text())
    assert document["schema"] == SPANS_SCHEMA
    assert validate(document, "spans") == []
    stamps = [(span["ts_us"], span["span_id"])
              for span in document["spans"]]
    assert stamps == sorted(stamps)
    # And the CLI agrees (kind auto-detected from the schema tag).
    assert validate_main([str(path)]) == 0
    assert "host spans" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["run", "experiments"])
def test_both_clis_write_host_spans(entry, tmp_path, capsys):
    from repro.cli import main as run_main
    from repro.experiments.runner import main as experiments_main
    main, argv = {
        "run": (run_main, ["loads", "stores", "--warmup", "500",
                           "--cycles", "500"]),
        "experiments": (experiments_main, ["fig7", "--fast"]),
    }[entry]
    path = tmp_path / "spans.json"
    assert main(argv + ["--spans", str(path)]) == 0
    document = json.loads(path.read_text())
    assert document["spans"] and validate(document, "spans") == []
    assert (f"spans: {len(document['spans'])} host spans -> {path}"
            in capsys.readouterr().out)


def test_validate_spans_rejects_malformed_documents():
    good = SpanTracer(clock=_FakeClock())
    good.end(good.begin("ok"))
    document = good.document()
    assert validate(document, "spans") == []

    assert validate([], "spans") != []
    assert validate({"schema": "repro.spans/9"}, "spans") != []

    duplicate = json.loads(json.dumps(document))
    duplicate["spans"] = duplicate["spans"] * 2
    assert any("duplicate span_id" in problem
               for problem in validate(duplicate, "spans"))

    orphan = json.loads(json.dumps(document))
    orphan["spans"][0]["parent_id"] = "dead.beef"
    assert any("does not resolve" in problem
               for problem in validate(orphan, "spans"))

    negative = json.loads(json.dumps(document))
    negative["spans"][0]["dur_us"] = -1
    assert any("dur_us" in problem
               for problem in validate(negative, "spans"))


# ---------------------------------------------------------------------- #
# One trace, two time bases: Perfetto export.
# ---------------------------------------------------------------------- #

def test_host_spans_render_as_dedicated_perfetto_process():
    ring = RingBufferSink()
    clock = _FakeClock()
    tracer = SpanTracer(sink=ring, clock=clock)
    span = tracer.begin("simulate", TRACK_RUN)
    clock.now += 1.0
    tracer.end(span, cycles=5_000)
    tracer.instant("checkpoint-write", TRACK_RUN)
    records = chrome_trace(ring)
    assert validate_chrome_trace(records) == []
    host = [record for record in records
            if record.get("cat") == CAT_HOST]
    assert {record["pid"] for record in host} == {PID_HOST}
    named = [record for record in records
             if record.get("ph") == "M" and record["pid"] == PID_HOST
             and record.get("name") == "process_name"]
    assert named and named[0]["args"]["name"] == "host orchestration"
    slice_ = next(r for r in host if r["name"] == "simulate")
    assert slice_["dur"] == 1_000_000
    assert slice_["args"]["cycles"] == 5_000


def test_sim_and_host_events_share_one_trace():
    """An observed run with a span tracer on the same sink produces a
    single valid trace holding both simulated-cycle and host events."""
    from repro.system.cmp import CMPSystem
    from repro.system.simulator import run_simulation
    from repro.workloads.microbench import loads_trace, stores_trace

    ring = RingBufferSink()
    tracer = SpanTracer(sink=ring)
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       telemetry=ring)
    with tracer.span("simulate", TRACK_RUN):
        run_simulation(system, warmup=200, measure=800)
    records = chrome_trace(ring)
    assert validate_chrome_trace(records) == []
    categories = {record.get("cat") for record in records}
    assert CAT_HOST in categories
    assert len(categories) > 2  # host + multiple simulated categories
    pids = {record["pid"] for record in records}
    assert PID_HOST in pids and len(pids) > 1


# ---------------------------------------------------------------------- #
# Orchestration integration (run_points).
# ---------------------------------------------------------------------- #

def test_run_points_emits_scheduling_spans_and_cache_instants(
        tmp_path, monkeypatch):
    """The same books whichever executor runs the batch: inline, or the
    journaled fleet when a run directory is configured."""
    for case, run_dir in (("inline", None), ("journaled", tmp_path / "run")):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{case}"))
        tracer = SpanTracer()
        parallel.configure(
            jobs=1, cache=True, spans=tracer,
            resilience=run_dir and ResilienceConfig(run_dir=str(run_dir)))
        point = _point(cacheable=True)
        run_points([point])
        run_points([point])  # second batch hits the result cache
        names = [record["name"] for record in tracer.records]
        assert names.count("batch") == 2
        assert "point0" in names
        assert "cache-miss" in names and "cache-hit" in names
        batches = [record for record in tracer.records
                   if record["name"] == "batch"]
        scheduled = next(record for record in tracer.records
                         if record["name"] == "point0")
        assert scheduled["parent_id"] == batches[0]["span_id"]
        assert scheduled["track"] == TRACK_SCHED
        assert validate(tracer.document(), "spans") == []


def test_spans_do_not_perturb_results():
    plain = run_points([_point()])
    parallel.configure(jobs=1, cache=False, spans=SpanTracer())
    traced = run_points([_point()])
    assert [r.ipcs for r in traced] == [r.ipcs for r in plain]
    assert [r.cycles for r in traced] == [r.cycles for r in plain]


def test_worker_spans_flow_through_live_feed():
    """With a live feed and a span tracer configured, per-point worker
    spans come home over the feed and parent under the scheduling
    span."""
    tracer = SpanTracer()
    live = LiveRun()
    live.on_span = tracer.ingest  # the wiring both CLIs apply
    parallel.configure(jobs=1, cache=False, metrics=WINDOW,
                       live=live, spans=tracer)
    run_points([_point()])
    by_name = {record["name"]: record for record in tracer.records}
    assert "simulate.point0" in by_name
    worker = by_name["simulate.point0"]
    assert worker["track"] == TRACK_WORKER
    assert worker["parent_id"] == by_name["point0"]["span_id"]
    assert worker["args"]["cycles"] > 0
    assert validate(tracer.document(), "spans") == []
