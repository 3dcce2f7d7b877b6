"""Request-scope tracing (ISSUE 9): segment conservation, kernel
identity, and the tail-latency surfaces.

The contract under test (docs/ARCHITECTURE.md "Request tracing"):
every completed demand load's end-to-end latency decomposes into
per-stage segments that sum *exactly* to its issue-to-critical-word
latency — on both kernels, which must produce byte-identical
documents because the hooks fire at identical (thread, cycle) points.
On top of the invariant sit the surfaces: exact streaming quantiles
that match the list-based ``analysis.latency`` convention, the bounded
request log, declarative SLO rules and the ``slo_burn`` alert signal,
the validate CLI, the run-history p99 slice, and the fig10 golden — VPC
shrinks the L2-arbiter-queue segments of the worst exemplars vs. FCFS,
and ``/snapshot`` serves the exact aggregate written to disk.
"""

from __future__ import annotations

import json
import urllib.request
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import LatencySummary, load_latency
from repro.common.config import baseline_config
from repro.experiments import parallel
from repro.experiments.runner import run_experiment
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry import LiveRun, RequestLogSink, TelemetryServer
from repro.telemetry.requests import (
    SEGMENTS,
    SLORule,
    StreamingLatencies,
    exact_quantile,
    load_slo,
    render_requests,
    slo_burn,
    verify_requests,
    write_requests,
)
from repro.workloads.profiles import spec_trace

KERNELS = ("cycle", "batch")
WORKLOADS = ("art", "mcf", "mesa", "equake", "swim", "ammp", "crafty")

# Positional indices of the L2-arbiter-queue segments in SEGMENTS.
_L2_QUEUE = tuple(SEGMENTS.index(name) for name in
                  ("l2_tag_queue", "l2_data_queue", "l2_bus_queue"))


def _traced_run(names, arbiter, kernel, exemplar_k=8, slo_rules=(),
                warmup=800, measure=1_200, record_requests=False):
    config = baseline_config(n_threads=len(names), arbiter=arbiter)
    traces = [spec_trace(name, tid) for tid, name in enumerate(names)]
    system = CMPSystem(config, traces, kernel=kernel,
                       record_requests=record_requests)
    system.attach_request_tracing(exemplar_k=exemplar_k,
                                  slo_rules=tuple(slo_rules))
    result = run_simulation(system, warmup=warmup, measure=measure)
    return system, result


@settings(max_examples=6, deadline=None)
@given(
    names=st.lists(st.sampled_from(WORKLOADS), min_size=2, max_size=4),
    arbiter=st.sampled_from(["fcfs", "vpc"]),
)
def test_conservation_and_kernel_identity(names, arbiter):
    """Random mixes x {fcfs, vpc} x both kernels: every exemplar's
    segments sum exactly to its latency, the document re-validates, and
    the batch kernel reproduces the cycle kernel's quantiles and
    exemplars byte for byte."""
    docs = {}
    for kernel in KERNELS:
        _, result = _traced_run(names, arbiter, kernel)
        doc = result.requests
        assert doc is not None
        assert verify_requests(doc) == [], (kernel, verify_requests(doc))
        for row in doc["threads"]:
            for exemplar in row["exemplars"]:
                assert sum(exemplar["segments"]) == exemplar["latency"]
        docs[kernel] = json.dumps(doc, sort_keys=True)
    assert docs["batch"] == docs["cycle"]


def test_every_load_conserves_and_matches_the_request_log():
    """With an exemplar reservoir wider than the run, every completed
    demand load is an exemplar — each one's segments must sum to its
    latency, and the retired-load latencies in the request log must be
    a sub-multiset of what the tracer saw (retirement follows the
    critical word, so the tracer can only know *more* loads)."""
    system, result = _traced_run(
        ["art", "mcf"], "vpc", "batch", exemplar_k=50_000,
        warmup=0, measure=2_000, record_requests=True,
    )
    doc = result.requests
    traced: Counter = Counter()
    for tid, row in enumerate(doc["threads"]):
        assert len(row["exemplars"]) == row["loads"]
        for exemplar in row["exemplars"]:
            assert sum(exemplar["segments"]) == exemplar["latency"]
            traced[(tid, exemplar["latency"])] += 1
    logged: Counter = Counter()
    for request in system.request_log:
        if request.is_prefetch:
            continue
        latency = load_latency(request)
        if latency is not None:
            logged[(request.thread_id, latency)] += 1
    assert sum(logged.values()) > 0
    assert not logged - traced  # logged ⊆ traced


def test_streaming_quantiles_match_list_convention():
    """The tracer's exact streaming quantiles must agree with the
    sorted-list convention ``analysis.latency.LatencySummary`` uses —
    checked against the full population (reservoir covers every load)."""
    _, result = _traced_run(["art", "mcf", "swim"], "fcfs", "batch",
                            exemplar_k=50_000, warmup=0, measure=2_000)
    for row in result.requests["threads"]:
        if not row["loads"]:
            continue
        samples = [ex["latency"] for ex in row["exemplars"]]
        summary = LatencySummary.of(samples)
        assert row["quantiles"]["p50"] == summary.p50
        assert row["quantiles"]["p95"] == summary.p95
        assert row["quantiles"]["p99"] == summary.p99
        assert row["max"] == summary.maximum


def test_exact_quantile_and_reservoir_units():
    stats = StreamingLatencies(exemplar_k=2)
    for latency in (10, 30, 20, 30, 5):
        stats.add(0, latency, {"seq": latency, "line": 0,
                               "issued_cycle": latency, "latency": latency})
    assert stats.loads(0) == 5
    assert stats.maximum(0) == 30
    counts = {10: 1, 30: 2, 20: 1, 5: 1}
    assert exact_quantile(counts, 5, 0.5) == 20
    assert exact_quantile(counts, 5, 0.99) == 30
    # Worst-k reservoir: the two 30s survive; ties keep the earlier.
    kept = stats.exemplars(0)
    assert [ex["latency"] for ex in kept] == [30, 30]
    assert stats.attainment(0, 25) == pytest.approx(3 / 5)


def test_bounded_request_log_keeps_first_retirements():
    """The log keeps the first ``capacity`` retirements and counts the
    rest."""
    config = baseline_config(n_threads=2, arbiter="fcfs")
    traces = [spec_trace("art", 0), spec_trace("mcf", 1)]
    system = CMPSystem(config, traces, record_requests=True)
    bounded = system.telemetry.attach(RequestLogSink(capacity=3))
    run_simulation(system, warmup=0, measure=2_000)
    full = system.request_log  # default capacity: nothing dropped here
    assert len(full) > 3
    assert bounded.dropped == len(full) - 3
    assert bounded.requests == full[:3]


def test_rejects_smt():
    config = baseline_config(n_threads=2, arbiter="vpc")
    traces = [spec_trace("art", 0), spec_trace("mcf", 1)]
    system = CMPSystem(config, traces, smt_degree=2)
    with pytest.raises(ValueError, match="smt_degree"):
        system.attach_request_tracing()


# --------------------------------------------------------------------- #
# SLO rules, burn rate, rendering, validation.
# --------------------------------------------------------------------- #

def test_load_slo_shorthand_and_files(tmp_path):
    (rule,) = load_slo("150")
    assert rule.name == "p99-under-150"
    assert rule.threshold_cycles == 150
    assert rule.target == 0.99
    spec = tmp_path / "slo.json"
    spec.write_text(json.dumps({"slos": [
        {"name": "interactive", "threshold_cycles": 80, "target": 0.95},
        {"name": "t1-only", "threshold_cycles": 200, "thread": 1},
    ]}))
    rules = load_slo(str(spec))
    assert [r.name for r in rules] == ["interactive", "t1-only"]
    assert rules[1].thread == 1
    with pytest.raises((OSError, ValueError)):
        load_slo(str(tmp_path / "absent-and-not-an-int"))


def test_slo_attainment_burn_and_rendering():
    rules = (SLORule("tight", 1, target=0.99),
             SLORule("loose", 10_000_000, target=0.5))
    _, result = _traced_run(["art", "mcf"], "vpc", "batch",
                            slo_rules=rules)
    doc = result.requests
    assert verify_requests(doc) == []
    by_name = {rule["name"]: rule for rule in doc["slo"]["rules"]}
    # Nothing completes in one cycle; everything beats ten million.
    assert all(a == 0.0 for a in by_name["tight"]["attainment"])
    assert all(a == 1.0 for a in by_name["loose"]["attainment"])
    burn = slo_burn(doc)
    assert burn == pytest.approx((1 - 0.0) / (1 - 0.99))
    assert slo_burn(None) is None
    text = "\n".join(render_requests(doc))
    assert "MISSED" in text and "met" in text
    assert "worst exemplar per thread" in text


def test_slo_burn_alert_signal_fires():
    from repro.telemetry.alerts import AlertEngine, AlertRule
    rules = (SLORule("tight", 1, target=0.99),)
    _, result = _traced_run(["art", "mcf"], "fcfs", "batch",
                            slo_rules=rules)
    engine = AlertEngine([AlertRule(name="burning", signal="slo_burn",
                                    threshold=1.0, op=">=")])
    emitted = engine.observe(
        "window", {"snapshot": {"requests": result.requests}})
    assert [e["state"] for e in emitted] == ["firing"]
    # A window with no requests document leaves the signal unevaluated.
    assert engine.observe("window", {"snapshot": {}}) == []


def test_validate_cli_accepts_docs_and_rejects_broken_segments(tmp_path):
    from repro.telemetry.validate import main as validate_main
    _, result = _traced_run(["art", "mcf"], "vpc", "batch")
    doc = result.requests
    path = tmp_path / "run.requests.json"
    write_requests(str(path), doc)
    assert validate_main([str(path)]) == 0
    assert validate_main(["--requests", str(path)]) == 0
    # The experiment runner's artifact shape: a list of documents.
    listed = tmp_path / "fig.requests.json"
    listed.write_text(json.dumps([doc, doc]) + "\n")
    assert validate_main([str(listed)]) == 0
    # Break conservation in one exemplar; validation must catch it.
    broken = json.loads(json.dumps(doc))
    for row in broken["threads"]:
        if row["exemplars"]:
            row["exemplars"][0]["segments"][0] += 1
            break
    bad = tmp_path / "broken.requests.json"
    bad.write_text(json.dumps(broken) + "\n")
    assert validate_main([str(bad)]) == 1


def test_fleet_with_checkpoints_returns_fast_path_documents(tmp_path):
    """Request tracing rides the resilient fleet: with a checkpoint
    cadence, and with workers killed mid-point so that some points
    resume from a checkpoint, every per-point document equals the fast
    path's."""
    from repro.experiments.parallel import SimPoint
    from repro.resilience import ChaosConfig, ResilienceConfig
    points = [
        SimPoint(config=baseline_config(n_threads=2, arbiter=arbiter),
                 traces=(("spec", "art"), ("spec", "mcf")),
                 warmup=2_000, measure=4_000)
        for arbiter in ("vpc", "fcfs")
    ]
    views = dict(metrics=500, requests=True,
                 slo=(SLORule("p99-under-400", 400),))
    try:
        parallel.configure(jobs=1, cache=False, **views)
        fast = parallel.run_points(points)
        run_dir = tmp_path / "run"
        parallel.configure(
            jobs=2, cache=False, **views,
            resilience=ResilienceConfig(
                run_dir=str(run_dir), checkpoint_every=1_000,
                max_retries=2, backoff_base=0.01,
                chaos=ChaosConfig(seed=3, kill=0.4,
                                  max_faults_per_point=1)))
        fleet = parallel.run_points(points)
    finally:
        parallel.configure(jobs=1, cache=True)
    assert all(result.requests for result in fast)
    for got, want in zip(fleet, fast):
        assert json.dumps(got.requests) == json.dumps(want.requests)
        assert json.dumps(got.metrics) == json.dumps(want.metrics)
    # Some point died after a checkpoint landed, so its retry resumed.
    saved, resumed = set(), set()
    for line in (run_dir / "journal.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "checkpoint_saved":
            saved.add(event["index"])
        elif event["event"] == "point_failed" and event["index"] in saved:
            resumed.add(event["index"])
    assert resumed


# --------------------------------------------------------------------- #
# fig10 golden: requests ride the aggregate, /snapshot byte identity,
# report cards, and the paper's claim at the exemplar level.
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fig10_traced(tmp_path_factory):
    """One fast fig10 sweep with request tracing + an SLO, served live
    — the expensive part, shared by the golden tests below."""
    live = LiveRun()
    parallel.configure(jobs=1, metrics=500, live=live,
                       requests=True,
                       slo=(SLORule("p99-under-400", 400),))
    try:
        result = run_experiment("fig10", fast=True)
        disk = tmp_path_factory.mktemp("fig10r") / "fig10.metrics.json"
        disk.write_text(json.dumps(result.metrics, indent=2) + "\n")
        with TelemetryServer(live, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/snapshot",
                                        timeout=10) as response:
                scraped = json.loads(response.read())
        yield result, json.loads(disk.read_text()), scraped
    finally:
        parallel.configure(jobs=1, cache=True)


def test_fig10_documents_validate_and_snapshot_matches_disk(fig10_traced):
    _, disk, scraped = fig10_traced
    assert scraped == disk
    traced = 0
    for snapshot in disk["per_point"]:
        doc = snapshot.get("requests")
        if doc is None:
            continue
        assert verify_requests(doc) == []
        assert doc["n_threads"] == snapshot["n_threads"]
        traced += 1
    assert traced >= 2
    # The quantiles served mid-run and written to disk are the same
    # bytes — finish_run hands /snapshot the exact disk aggregate.
    disk_q = [snap["requests"]["threads"]
              for snap in disk["per_point"] if snap.get("requests")]
    snap_q = [snap["requests"]["threads"]
              for snap in scraped["per_point"] if snap.get("requests")]
    assert json.dumps(disk_q, sort_keys=True) == \
        json.dumps(snap_q, sort_keys=True)


def test_fig10_report_cards_show_p99_and_slo(fig10_traced):
    from repro.telemetry import build_report_card, merge_report_cards
    from repro.telemetry.report import render_fleet_card, render_report_card
    _, disk, _ = fig10_traced
    cards = [
        build_report_card(n_threads=snap["n_threads"],
                          arbiter=snap.get("arbiter", "?"), metrics=snap)
        for snap in disk["per_point"]
    ]
    carded = [card for card in cards
              if any("p99_latency" in row for row in card["threads"])]
    assert carded
    rendered = render_report_card(carded[0])
    assert "p99(cyc)" in rendered and "slo%" in rendered
    fleet = merge_report_cards(cards, label="fig10")
    assert fleet["worst_p99_latency"] > 0
    assert 0.0 <= fleet["worst_slo_attainment"] <= 1.0
    fleet_text = render_fleet_card(fleet)
    assert "worst p99 load latency" in fleet_text
    assert "worst SLO attainment" in fleet_text


def test_fig10_vpc_shrinks_exemplar_l2_queueing(fig10_traced):
    """The paper's mechanism at the request level: VPC's arbiter bounds
    each thread's share of L2 bandwidth, so the L2-arbiter-queue
    segments of the worst exemplars shrink vs. FCFS."""
    _, disk, _ = fig10_traced
    queue_per_exemplar = {}
    for snapshot in disk["per_point"]:
        doc = snapshot.get("requests")
        if doc is None or snapshot["n_threads"] < 2:
            continue
        arbiter = snapshot.get("arbiter")
        totals = queue_per_exemplar.setdefault(arbiter, [0, 0])
        for row in doc["threads"]:
            for exemplar in row["exemplars"]:
                totals[0] += sum(exemplar["segments"][i] for i in _L2_QUEUE)
                totals[1] += 1
    assert {"fcfs", "vpc"} <= set(queue_per_exemplar)
    fcfs = queue_per_exemplar["fcfs"]
    vpc = queue_per_exemplar["vpc"]
    assert vpc[1] and fcfs[1]
    assert vpc[0] / vpc[1] < fcfs[0] / fcfs[1]


def test_fig10_history_ledger_carries_p99(fig10_traced, tmp_path):
    from repro.telemetry.history import (
        append_entry,
        build_entry,
        diff_entries,
        read_history,
        render_diff,
    )
    _, disk, _ = fig10_traced
    ledger = tmp_path / "ledger.jsonl"
    append_entry(ledger, build_entry("fig10", metrics=disk))
    append_entry(ledger, build_entry("fig10-b", metrics=disk))
    entries = read_history(ledger)
    assert any(snap.get("request_p99")
               for snap in entries[0]["per_point"])
    diff = diff_entries(entries[0], entries[1])
    assert "p99" in diff
    for group in diff["p99"].values():
        assert all(d in (0, None) for d in group["delta"])
    assert any("p99 load latency" in line for line in render_diff(diff))


def test_fig10_prometheus_and_dashboard_surfaces(fig10_traced):
    from repro.telemetry.dashboard import render
    from repro.telemetry.metrics import to_prometheus
    _, disk, _ = fig10_traced
    traced = next(snap for snap in disk["per_point"]
                  if snap.get("requests"))
    text = to_prometheus(traced)
    assert "repro_request_latency_cycles" in text
    assert 'quantile="p99"' in text
    assert "repro_slo_attainment" in text
    health = {"status": "finished", "run": "fig10",
              "points": {"done": disk["points"], "total": disk["points"]}}
    assert "p99(cyc)" in render(disk, health)
