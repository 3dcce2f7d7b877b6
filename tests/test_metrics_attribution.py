"""The metrics/attribution observability layer and its QoS report cards.

Load-bearing contracts:

* **Bit-for-bit headline** — a metrics snapshot's IPCs equal the
  ``SimulationResult``'s exactly, and a report card built from drained
  experiment snapshots reproduces fig10's harmonic-mean/minimum columns
  to the last bit.
* **Charge conservation** — for every (resource, victim) pair the
  attribution matrix row plus idle wait equals the observed queueing
  delay, on scripted schedules, on hypothesis-random schedules, and on
  real systems under both arbiters.
* **Zero perturbation** — collecting metrics never changes what the
  simulation computes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import VPCAllocation, baseline_config
from repro.common.stats import jain_index
from repro.core.monitor import QoSMonitor, run_monitored
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.attribution import (
    InterferenceAttributor,
    merge_attribution,
)
from repro.telemetry.bus import RingBufferSink
from repro.telemetry.events import CAT_CACHE, PH_COUNTER, PH_INSTANT
from repro.telemetry.metrics import (
    MetricsCollector,
    merge_snapshots,
    to_prometheus,
)
from repro.telemetry.perfetto import chrome_trace
from repro.telemetry.probe import LifecycleProbe
from repro.telemetry.report import (
    build_report_card,
    merge_report_cards,
    render_fleet_card,
    render_report_card,
)
from repro.telemetry.validate import (
    validate,
    validate_chrome_trace,
    validate_prometheus,
)
from repro.workloads.microbench import loads_trace, stores_trace


def _observed_system(arbiter="vpc", n_threads=2, window=1_000):
    config = baseline_config(
        n_threads=n_threads, arbiter=arbiter,
        vpc=VPCAllocation.equal(n_threads),
    )
    traces = [loads_trace(0), stores_trace(1)][:n_threads]
    capacity = "vpc" if arbiter == "vpc" else "lru"
    system = CMPSystem(config, traces, capacity_policy=capacity)
    collector = system.attach_metrics(
        MetricsCollector(n_threads, window=window))
    attributor = system.attach_attribution()
    return system, collector, attributor


def _enqueue(attributor, ts, tid, track="bank0.data"):
    attributor.enqueued(track, tid, ts)


def _grant(attributor, ts, tid, dur=0, track="bank0.data"):
    attributor.granted(track, tid, ts, dur)


class TestJainIndex:
    def test_equal_is_one_skew_is_less(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
        skew = jain_index([10.0, 1.0, 1.0, 1.0])
        assert 0.0 < skew < 1.0

    def test_edge_cases(self):
        assert jain_index([0.0, 0.0]) == 0.0
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1.0, -0.5])


class TestMetricsCollector:
    def test_snapshot_ipcs_match_simulation_result_bit_for_bit(self):
        system, collector, _ = _observed_system()
        result = run_simulation(system, warmup=2_000, measure=3_000,
                                metrics=collector)
        assert result.metrics["ipcs"] == result.ipcs
        assert result.metrics["instructions"] == result.instructions
        assert result.metrics["measured_cycles"] == result.cycles

    def test_metrics_do_not_perturb_the_simulation(self):
        config = baseline_config(n_threads=2, arbiter="vpc",
                                 vpc=VPCAllocation.equal(2))
        plain = run_simulation(
            CMPSystem(config, [loads_trace(0), stores_trace(1)]),
            warmup=2_000, measure=3_000)
        system, collector, _ = _observed_system()
        observed = run_simulation(system, warmup=2_000, measure=3_000,
                                  metrics=collector)
        assert dataclasses.replace(observed, metrics=None) == plain

    def test_window_series_shapes_and_schema(self):
        system, collector, attributor = _observed_system(window=500)
        result = run_simulation(system, warmup=1_000, measure=2_000,
                                metrics=collector)
        attributor.finish(system.cycle)
        snap = result.metrics
        snap["attribution"] = attributor.snapshot()
        assert validate(snap, "metrics") == []
        series = snap["series"]
        # Event series are thread-major over the observed window range.
        assert len(series["loads"]) == 2
        assert all(len(row) == snap["windows"] for row in series["loads"])
        for rows in series["service_cycles"].values():
            assert len(rows) == 2
        # Utilization is busy/window; chunk sampling gives 4 intervals.
        for values in series["utilization"].values():
            assert all(0.0 <= value <= 1.0 + 1e-9 for value in values)
        assert len(snap["sample_cycles"]) == 5
        assert all(len(row) == 4 for row in series["ipc"])
        assert any(track.startswith("bank")
                   for track in series["queue_depth_max"])
        assert "mshrs" in " ".join(series["mshr_max"])

    def test_cumulative_load_totals_match_the_windows(self):
        """The totals kept beside the windows equal the windowed series
        summed, and the probe's run-wide load counters (attached at the
        same cycle) agree with both."""
        system, collector, _ = _observed_system(window=700)
        result = run_simulation(system, warmup=1_000, measure=2_000,
                                metrics=collector)
        series = result.metrics["series"]
        totals = collector.thread_totals()
        assert totals["loads"] == [sum(row) for row in series["loads"]]
        assert totals["load_latency"] == [
            sum(row) for row in series["load_latency_sum"]]
        assert sum(totals["loads"]) > 0
        assert system.load_totals() == totals

    def test_slowdown_and_fairness_with_baselines(self):
        system, collector, _ = _observed_system(window=500)
        collector.baseline_ipcs = [0.5, 0.5]
        result = run_simulation(system, warmup=1_000, measure=1_500,
                                metrics=collector)
        snap = result.metrics
        assert snap["baseline_ipcs"] == [0.5, 0.5]
        assert len(snap["series"]["slowdown"]) == 2
        assert 0.0 <= snap["fairness"]["jain_overall"] <= 1.0
        assert snap["fairness"]["jain_min_window"] <= 1.0

    def test_merge_snapshots_sums_totals(self):
        system, collector, _ = _observed_system()
        first = run_simulation(system, warmup=1_000, measure=1_000,
                               metrics=collector).metrics
        system2, collector2, _ = _observed_system()
        second = run_simulation(system2, warmup=1_000, measure=1_000,
                                metrics=collector2).metrics
        merged = merge_snapshots([first, second])
        assert merged["points"] == 2
        assert merged["totals"]["instructions"] == \
            sum(first["instructions"]) + sum(second["instructions"])
        assert merged["totals"]["loads"] == \
            sum(first["totals"]["loads"]) + sum(second["totals"]["loads"])
        assert validate(merged, "metrics") == []

    def test_prometheus_export_validates(self):
        system, collector, attributor = _observed_system()
        collector.baseline_ipcs = [0.5, 0.5]
        result = run_simulation(system, warmup=1_000, measure=2_000,
                                metrics=collector)
        attributor.finish(system.cycle)
        result.metrics["attribution"] = attributor.snapshot()
        text = to_prometheus(result.metrics)
        assert validate_prometheus(text) == []
        assert "repro_thread_ipc{" in text
        assert "repro_interference_cycles_total{" in text
        assert "repro_thread_slowdown{" in text


class TestAttributionScripted:
    def test_hand_built_schedule_charges_exactly(self):
        attributor = InterferenceAttributor(2)
        # t0 enqueues and is granted immediately for 4 cycles.
        _enqueue(attributor, ts=0, tid=0)
        _grant(attributor, ts=0, tid=0, dur=4)
        # t1 arrives mid-interval: 3 remaining cycles pre-charged to t0.
        _enqueue(attributor, ts=1, tid=1)
        _grant(attributor, ts=4, tid=1, dur=4)
        # t0 comes back when the resource is idle: pure scheduling wait.
        _enqueue(attributor, ts=10, tid=0)
        _grant(attributor, ts=12, tid=0, dur=2)
        attributor.finish(20)
        track = "bank0.data"
        assert attributor.matrix[track][1][0] == 3
        assert attributor.matrix[track][0] == [0, 0]
        assert attributor.delay[track] == [2, 3]
        assert attributor.idle_wait[track] == [2, 0]
        assert attributor.conservation_errors() == []
        assert attributor.interference_received() == [0, 3]
        assert attributor.interference_caused() == [3, 0]

    def test_self_interference_lands_on_the_diagonal(self):
        attributor = InterferenceAttributor(2)
        _enqueue(attributor, ts=0, tid=0)
        _enqueue(attributor, ts=0, tid=0)
        _grant(attributor, ts=0, tid=0, dur=5)
        _grant(attributor, ts=5, tid=0, dur=5)
        attributor.finish(10)
        matrix = attributor.matrix["bank0.data"]
        assert matrix[0][0] == 5  # waited behind its own earlier grant
        assert attributor.conservation_errors() == []
        # Self-interference is not cross-thread interference.
        assert attributor.interference_received() == [0, 0]

    def test_open_waits_dropped_keeps_identity(self):
        attributor = InterferenceAttributor(2)
        _enqueue(attributor, ts=0, tid=0)
        _grant(attributor, ts=0, tid=0, dur=4)
        _enqueue(attributor, ts=2, tid=1)  # never granted
        attributor.finish(50)
        assert attributor.dropped_waits == 1
        assert attributor.delay["bank0.data"] == [0, 0]
        assert attributor.conservation_errors() == []

    def test_resource_class_folds_banks(self):
        assert InterferenceAttributor.resource_class("bank3.data") == "data"
        assert InterferenceAttributor.resource_class("dram.ch0") == "dram.ch0"
        attributor = InterferenceAttributor(2)
        for track in ("bank0.data", "bank1.data"):
            _enqueue(attributor, ts=0, tid=0, track=track)
            _grant(attributor, ts=0, tid=0, dur=2, track=track)
            _enqueue(attributor, ts=1, tid=1, track=track)
            _grant(attributor, ts=2, tid=1, dur=2, track=track)
        snap = attributor.snapshot()
        assert snap["resources"]["data"]["matrix"][1][0] == 2
        assert set(snap["tracks"]) == {"bank0.data", "bank1.data"}

    def test_merge_pads_mismatched_thread_counts(self):
        solo = InterferenceAttributor(1)
        _enqueue(solo, ts=0, tid=0)
        _grant(solo, ts=0, tid=0, dur=2)
        duo = InterferenceAttributor(2)
        _enqueue(duo, ts=0, tid=0)
        _grant(duo, ts=0, tid=0, dur=4)
        _enqueue(duo, ts=1, tid=1)
        _grant(duo, ts=4, tid=1, dur=1)
        duo.finish(10)
        merged = merge_attribution([solo.snapshot(), duo.snapshot(), None])
        assert merged["n_threads"] == 2
        assert merged["resources"]["data"]["matrix"][1][0] == 3
        assert merged["interference_received"] == [0, 3]


# One schedule drawn per example: interleaved enqueue/grant steps the
# way a real single-ported resource produces them (grants only when the
# resource is free, only for threads with a waiting entry).
_SCHEDULE = st.lists(
    st.tuples(
        st.booleans(),             # enqueue (True) or try-grant (False)
        st.integers(0, 3),         # thread
        st.integers(0, 7),         # time advance before the step
        st.integers(0, 5),         # grant service duration
    ),
    min_size=1, max_size=60,
)


def _schedule_ops(steps, n_threads):
    """Turn drawn steps into (kind, ts, tid, dur) arbiter operations;
    returns the ops and the final cycle."""
    ops = []
    waiting = [0] * n_threads
    now = 0
    busy_until = 0
    for is_enqueue, tid, advance, dur in steps:
        tid %= n_threads
        now += advance
        if is_enqueue:
            ops.append(("enqueue", now, tid, 0))
            waiting[tid] += 1
        else:
            candidates = [t for t in range(n_threads) if waiting[t]]
            if not candidates:
                continue
            tid = candidates[tid % len(candidates)]
            ts = max(now, busy_until)
            ops.append(("grant", ts, tid, dur))
            waiting[tid] -= 1
            busy_until = max(busy_until, ts + dur)
            now = ts
    return ops, now


def _per_wait_reference(ops, n_threads):
    """The charge rule applied literally: every grant adds its duration
    to every entry still waiting (after closing the granted thread's
    oldest wait); an entry born mid-interval is pre-charged the
    remainder.  Returns (matrix, delay, idle_wait)."""
    waiting = [[] for _ in range(n_threads)]
    matrix = [[0] * n_threads for _ in range(n_threads)]
    delay = [0] * n_threads
    idle = [0] * n_threads
    busy_until, owner = 0, -1
    for kind, ts, tid, dur in ops:
        if kind == "enqueue":
            charges = [0] * n_threads
            if ts < busy_until and owner >= 0:
                charges[owner] = busy_until - ts
            waiting[tid].append((ts, charges))
            continue
        if waiting[tid]:
            enqueued, charges = waiting[tid].pop(0)
            for aggressor, cycles in enumerate(charges):
                matrix[tid][aggressor] += cycles
            delay[tid] += ts - enqueued
            idle[tid] += ts - enqueued - sum(charges)
        if dur > 0:
            for waits in waiting:
                for _, charges in waits:
                    charges[tid] += dur
            busy_until, owner = ts + dur, tid
    return matrix, delay, idle


class TestAttributionProperties:
    @settings(max_examples=60, deadline=None)
    @given(steps=_SCHEDULE, n_threads=st.integers(1, 4))
    def test_conservation_over_random_schedules(self, steps, n_threads):
        attributor = InterferenceAttributor(n_threads)
        ops, now = _schedule_ops(steps, n_threads)
        for kind, ts, tid, dur in ops:
            if kind == "enqueue":
                _enqueue(attributor, ts=ts, tid=tid)
            else:
                _grant(attributor, ts=ts, tid=tid, dur=dur)
        attributor.finish(now + 100)
        assert attributor.conservation_errors() == []
        # Serialized snapshots must re-verify from the numbers alone.
        snap = attributor.snapshot()
        fake_metrics = {
            "schema": "repro.metrics/1", "window": 100,
            "n_threads": n_threads,
            "ipcs": [0.0] * n_threads, "instructions": [0] * n_threads,
            "series": {}, "attribution": snap,
        }
        assert validate(fake_metrics, "metrics") == []

    @settings(max_examples=60, deadline=None)
    @given(steps=_SCHEDULE, n_threads=st.integers(1, 4))
    def test_grant_time_charging_equals_per_wait_charging(self, steps,
                                                          n_threads):
        """Charging a closing wait the growth of its track's cumulative
        per-aggressor grants gives exactly the per-wait rule's matrix,
        delays and idle waits."""
        attributor = InterferenceAttributor(n_threads)
        ops, now = _schedule_ops(steps, n_threads)
        for kind, ts, tid, dur in ops:
            if kind == "enqueue":
                _enqueue(attributor, ts=ts, tid=tid)
            else:
                _grant(attributor, ts=ts, tid=tid, dur=dur)
        attributor.finish(now + 100)
        if not ops:
            return
        matrix, delay, idle = _per_wait_reference(ops, n_threads)
        assert attributor.matrix["bank0.data"] == matrix
        assert attributor.delay["bank0.data"] == delay
        assert attributor.idle_wait["bank0.data"] == idle

    @pytest.mark.parametrize("arbiter", ["vpc", "fcfs", "row-fcfs"])
    def test_conservation_on_a_real_system(self, arbiter):
        system, collector, attributor = _observed_system(arbiter=arbiter)
        run_simulation(system, warmup=2_000, measure=4_000,
                       metrics=collector)
        attributor.finish(system.cycle)
        assert attributor.conservation_errors() == []
        # A saturated two-thread system must show real contention.
        assert sum(attributor.interference_received()) > 0


class TestFaultInjection:
    def test_starved_thread_flagged_by_monitor_and_attribution(self):
        """Adversarial arbiter: thread 1's data-array virtual clock is
        pushed far into the future behind the allocator's back, so the
        scheduler keeps preferring thread 0.  The QoSMonitor must flag
        the victim, and the attribution matrix must blame the
        aggressor."""
        system, _, _ = _observed_system()
        system.run(20_000)  # steady state, queues backlogged
        # Fresh attributor: only the sabotaged interval is attributed.
        attributor = system.attach_attribution(InterferenceAttributor(2))
        monitor = QoSMonitor(system, window=2_000)
        for arbiter in system._vpc_arbiters["data"]:
            arbiter._r_l[1] += 2_000   # t1 deferred behind t0 for a while
        run_monitored(system, 20_000, monitor)
        attributor.finish(system.cycle)

        assert not monitor.clean
        assert any(v.thread_id == 1 and "data" in v.bank_resource
                   for v in monitor.violations)
        conformance = monitor.conformance()
        assert conformance["violations"] > 0
        victim = conformance["per_thread"][1]
        assert victim["conformance_pct"] < 100.0

        assert attributor.conservation_errors() == []
        data = attributor.by_resource_class()["data"]
        # The victim's losses to the aggressor dwarf the reverse flow.
        assert data[1][0] > 10 * data[0][1]
        received = attributor.interference_received()
        assert received[1] > received[0]

        card = build_report_card(
            n_threads=2, arbiter="vpc",
            attribution=attributor.snapshot(),
            conformance=conformance,
            ipcs=[0.5, 0.01], targets=[0.5, 0.5],
        )
        assert card["threads"][1]["meets_target"] is False
        rendered = render_report_card(card)
        assert "VIOLATED" in rendered and "MISS" in rendered

    def test_healthy_system_is_conformant(self):
        system, _, attributor = _observed_system()
        system.run(20_000)
        monitor = QoSMonitor(system, window=2_000)
        run_monitored(system, 10_000, monitor)
        conformance = monitor.conformance()
        assert conformance["clean"]
        assert all(row["conformance_pct"] == 100.0
                   for row in conformance["per_thread"])


class TestCapacityTelemetry:
    @staticmethod
    def _traced_policy():
        from repro.cache.replacement import SetView
        from repro.core.capacity import VPCCapacityManager
        ring = RingBufferSink()
        probe = LifecycleProbe(2, dram_hooked=True)
        collector = MetricsCollector(2, window=100)
        probe.attach(metrics=collector, sink=ring)
        policy = VPCCapacityManager([0.5, 0.5], 4)  # quota 2 each
        policy._probe = probe
        policy.trace_name = "bank0.capacity"
        policy.clock = lambda: 123
        view = SetView(ways=4, owners=[1, 1, 1, 0],
                       valid=[True] * 4, lru_order=[0, 1, 2, 3], index=7)
        return policy, view, ring, collector

    def test_victimizations_emit_instants_and_way_counters(self):
        policy, view, ring, collector = self._traced_policy()
        # Thread 1 over quota -> Condition 1 against its LRU line.
        assert policy.choose_victim(view, requester=0) == 0
        view.owners[0] = 0  # both at quota now -> Condition 2, own line
        policy.choose_victim(view, requester=0)
        events = [e for e in ring if e.category == CAT_CACHE]
        instants = [e for e in events if e.phase == PH_INSTANT]
        counters = [e for e in events if e.phase == PH_COUNTER]
        assert [e.name for e in instants] == ["cond1", "cond2"]
        cond1 = instants[0]
        assert cond1.ts == 123 and cond1.tid == 0
        assert cond1.args["set"] == 7 and cond1.args["victim"] == 1
        assert cond1.args["excess"] == 1
        # One per-set way-occupancy counter sample per victimization,
        # numeric-only so Perfetto renders it as counter series.
        assert len(counters) == len(instants)
        for event in counters:
            assert event.name == "ways"
            assert event.track == "bank0.capacity.set7"
            assert all(isinstance(v, int) for v in event.args.values())
        assert counters[0].args == {"t0": 1, "t1": 3}  # pre-eviction
        assert validate_chrome_trace(chrome_trace(events)) == []
        # The metrics layer aggregated the same victimizations.
        collector.finish(200)
        totals = collector.snapshot()["totals"]
        assert totals["cond1"] == [1, 0]
        assert totals["cond2"] == [1, 0]

    def test_untraced_policy_emits_nothing_and_still_works(self):
        from repro.cache.replacement import SetView
        from repro.core.capacity import VPCCapacityManager
        policy = VPCCapacityManager([0.5, 0.5], 4)
        view = SetView(ways=4, owners=[1, 1, 1, 0],
                       valid=[True] * 4, lru_order=[0, 1, 2, 3])
        assert policy.choose_victim(view, requester=0) == 0
        assert policy.condition1_evictions == 1


class TestValidatorExtensions:
    def test_counter_events_must_be_numeric(self):
        good = [{"ph": "C", "name": "ways", "pid": 3, "tid": 0, "ts": 1,
                 "args": {"t0": 2, "t1": 1}}]
        assert validate_chrome_trace(good) == []
        bad = [
            {"ph": "C", "name": "ways", "pid": 3, "tid": 0, "ts": 1},
            {"ph": "C", "name": "ways", "pid": 3, "tid": 0, "ts": 1,
             "args": {"t0": "two"}},
        ]
        errors = validate_chrome_trace(bad)
        assert any("counter without args" in e for e in errors)
        assert any("non-numeric value" in e for e in errors)

    def test_metrics_json_rejects_bad_schema_and_shapes(self):
        assert validate([1, 2], "metrics") != []
        assert validate({"schema": "nope"}, "metrics") != []
        broken = {
            "schema": "repro.metrics/1", "window": 100, "n_threads": 2,
            "ipcs": [0.1], "instructions": [1, 2], "series": {},
        }
        assert any("ipcs" in e for e in validate(broken, "metrics"))

    def test_metrics_json_recheck_catches_broken_conservation(self):
        snap = {
            "schema": "repro.metrics/1", "window": 100, "n_threads": 2,
            "ipcs": [0.1, 0.1], "instructions": [1, 1], "series": {},
            "attribution": {
                "n_threads": 2,
                "resources": {"data": {
                    "matrix": [[0, 5], [0, 0]],
                    "queueing_delay": [4, 0],   # 5 charged, 4 observed
                    "idle_wait": [0, 0],
                }},
            },
        }
        errors = validate(snap, "metrics")
        assert any("conservation" in e for e in errors)

    def test_prometheus_validator(self):
        good = ("# HELP m a metric\n# TYPE m gauge\n"
                'm{thread="0"} 1.5\nm 2\n')
        assert validate_prometheus(good) == []
        assert any("before its # TYPE" in e
                   for e in validate_prometheus("m 1\n"))
        assert any("non-numeric" in e for e in validate_prometheus(
            "# HELP m x\n# TYPE m gauge\nm abc\n"))
        assert any("no samples" in e for e in validate_prometheus("\n"))

    def test_cli_autodetects_artifact_kinds(self, tmp_path, capsys):
        from repro.telemetry.validate import main
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": []}))
        assert main([str(trace)]) == 0

        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "schema": "repro.metrics/1", "window": 10, "n_threads": 1,
            "ipcs": [0.1], "instructions": [1], "series": {},
        }))
        assert main([str(metrics)]) == 0
        assert "metric points" in capsys.readouterr().out

        prom = tmp_path / "metrics.prom"
        prom.write_text("# HELP m x\n# TYPE m counter\nm 3\n")
        assert main([str(prom)]) == 0
        assert main(["--prometheus", str(prom)]) == 0
        assert main([]) == 2
        assert main(["--metrics"]) == 2


class TestReportCards:
    def test_headline_survives_a_starved_thread(self):
        card = build_report_card(
            n_threads=2, arbiter="vpc",
            ipcs=[0.5, 0.0], targets=[0.5, 0.5],
        )
        assert "headline" not in card
        assert "starved" in card["headline_error"]
        render_report_card(card)  # must not raise

    def test_fleet_merge_tracks_worst_run_and_violations(self):
        cards = [
            build_report_card(n_threads=1, arbiter="vpc",
                              ipcs=[0.4], targets=[0.5]),
            build_report_card(n_threads=1, arbiter="vpc",
                              ipcs=[0.6], targets=[0.5]),
        ]
        cards[0]["qos"] = {"violations": 3}
        fleet = merge_report_cards(cards, label="demo")
        assert fleet["runs"] == 2
        assert fleet["worst_min_normalized"] == pytest.approx(0.8)
        assert fleet["violations"] == 3 and not fleet["clean"]
        assert "VIOLATED" in render_fleet_card(fleet)


class TestExperimentMetrics:
    @pytest.fixture(autouse=True)
    def _reset_execution_policy(self):
        from repro.experiments import parallel
        parallel.configure(jobs=1, cache=True)
        yield
        parallel.configure(jobs=1, cache=True)

    def test_worker_snapshots_ride_home_in_point_order(self):
        from repro.experiments import parallel
        from repro.experiments.parallel import SimPoint, run_points

        def point(arbiter):
            return SimPoint(
                config=baseline_config(n_threads=2, arbiter=arbiter,
                                       vpc=VPCAllocation.equal(2)),
                traces=(("loads",), ("stores",)),
                warmup=500, measure=1_500,
            )

        points = [point("vpc"), point("fcfs")]
        parallel.configure(jobs=2, cache=False, metrics=500)
        results = run_points(points)
        snapshots = parallel.drain_metrics()
        assert len(snapshots) == 2
        for snap, result, simpoint in zip(snapshots, results, points):
            assert snap["ipcs"] == result.ipcs
            assert snap["arbiter"] == simpoint.config.arbiter
            # Conservation is re-checked from the pickled numbers.
            assert validate(snap, "metrics") == []
        assert parallel.drain_metrics() == []  # drained exactly once

    def test_fig10_report_card_matches_analysis_bit_for_bit(self):
        """The acceptance bar: headline HM/min normalized IPC computed
        by the report-card path equals fig10's analysis columns with
        float equality, not approx."""
        from repro.experiments import parallel
        from repro.experiments.fig10_heterogeneous import FAST_MIXES
        from repro.experiments.runner import run_experiment
        from repro.workloads.profiles import HETEROGENEOUS_MIXES

        parallel.configure(jobs=1, cache=False, metrics=2_000)
        result = run_experiment("fig10", fast=True)
        aggregate = result.metrics
        assert validate(aggregate, "metrics") == []
        per_point = aggregate["per_point"]

        unique = []
        for mix in FAST_MIXES:
            for name in HETEROGENEOUS_MIXES[mix]:
                if name not in unique:
                    unique.append(name)
        targets = {name: per_point[index]["ipcs"][0]
                   for index, name in enumerate(unique)}
        shared = iter(per_point[len(unique):])
        for row, mix in zip(result.rows, FAST_MIXES):
            mix_targets = [targets[name]
                           for name in HETEROGENEOUS_MIXES[mix]]
            for snap, hmean_col, min_col in ((next(shared), 1, 4),
                                             (next(shared), 2, 5)):
                card = build_report_card(
                    n_threads=snap["n_threads"],
                    arbiter=snap["arbiter"],
                    metrics=snap,
                    attribution=snap.get("attribution"),
                    targets=mix_targets,
                )
                assert card["headline"]["harmonic_mean"] == row[hmean_col]
                assert card["headline"]["min_normalized"] == row[min_col]


class TestMainCLI:
    def test_metrics_prometheus_and_report_flags(self, tmp_path, capsys):
        from repro.cli import main
        metrics = tmp_path / "m.json"
        prom = tmp_path / "m.prom"
        report = tmp_path / "r.json"
        assert main(["loads", "stores", "--arbiter", "vpc",
                     "--warmup", "2000", "--cycles", "2000",
                     "--metrics", str(metrics),
                     "--prometheus", str(prom),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "QoS report card" in out
        assert "headline: HM normalized IPC" in out
        snap = json.loads(metrics.read_text())
        assert validate(snap, "metrics") == []
        assert validate_prometheus(prom.read_text()) == []
        card = json.loads(report.read_text())
        assert card["schema"] == "repro.report/1"
        # The card's per-thread IPCs are the snapshot's, bit for bit.
        assert [row["ipc"] for row in card["threads"]] == snap["ipcs"]
        assert card["qos"]["clean"] is True

    def test_report_to_stdout_without_files(self, capsys):
        from repro.cli import main
        assert main(["loads", "stores", "--warmup", "1500",
                     "--cycles", "1500", "--report"]) == 0
        out = capsys.readouterr().out
        assert "QoS report card" in out
        assert "interference attribution" in out
