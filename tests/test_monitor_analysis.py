"""Tests for the online QoS monitor and the latency-analysis toolkit."""

import pytest

from repro.analysis.latency import (
    LatencySummary,
    format_report,
    load_latency,
    loads_by_thread,
    queueing_by_thread,
)
from repro.common.config import VPCAllocation, baseline_config
from repro.common.records import AccessType, make_request
from repro.core.monitor import QoSMonitor, run_monitored
from repro.system.cmp import CMPSystem
from repro.workloads import loads_trace, stores_trace
from repro.workloads.profiles import HETEROGENEOUS_MIXES, spec_trace


def vpc_system(record_requests=False):
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    return CMPSystem(config, [loads_trace(0), stores_trace(1)],
                     record_requests=record_requests)


class TestQoSMonitor:
    def test_requires_vpc(self):
        config = baseline_config(n_threads=2, arbiter="fcfs")
        system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
        with pytest.raises(ValueError):
            QoSMonitor(system)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            QoSMonitor(vpc_system(), window=0)

    def test_saturated_system_is_clean(self):
        """Two saturating threads under a healthy VPC: no violations."""
        system = vpc_system()
        system.run(30_000)   # warm up (arrays resident, queues backlogged)
        monitor = QoSMonitor(system, window=2_000)
        run_monitored(system, 20_000, monitor)
        assert monitor.windows_checked == 10
        assert monitor.clean, monitor.violations[:3]

    def test_detects_injected_share_theft(self):
        """Tamper with one arbiter's share behind the monitor's back
        (simulating broken hardware): the monitor must notice."""
        system = vpc_system()
        system.run(30_000)
        monitor = QoSMonitor(system, window=2_000)
        # Steal thread 1's data-array bandwidth without telling anyone.
        for arbiter in system._vpc_arbiters["data"]:
            arbiter._r_l[1] = 1e12    # effectively zero share
        run_monitored(system, 20_000, monitor)
        assert not monitor.clean
        assert any(v.thread_id == 1 and "data" in v.bank_resource
                   for v in monitor.violations)

    def test_violation_records_window_and_amounts(self):
        system = vpc_system()
        system.run(30_000)
        monitor = QoSMonitor(system, window=2_000)
        for arbiter in system._vpc_arbiters["data"]:
            arbiter._r_l[0] = 1e12
        run_monitored(system, 4_000, monitor)
        violation = monitor.violations[0]
        assert violation.window_end - violation.window_start == 2_000
        assert violation.granted < violation.guaranteed


    def test_audit_is_kernel_identical_on_a_busy_mix(self):
        """fig10's mix1 audited at a short window: both kernels keep the
        same conformance ledger, with eligible windows for the two
        threads that stay backlogged (values recorded when the monitor
        still read the telemetry bus)."""
        ledgers = {}
        for kernel in ("cycle", "batch"):
            config = baseline_config(n_threads=4, arbiter="vpc")
            traces = [spec_trace(name, tid) for tid, name
                      in enumerate(HETEROGENEOUS_MIXES["mix1"])]
            system = CMPSystem(config, traces, kernel=kernel)
            monitor = QoSMonitor(system, window=500)
            run_monitored(system, 20_000, monitor)
            ledgers[kernel] = monitor.conformance()
        assert ledgers["cycle"] == ledgers["batch"]
        per_thread = ledgers["batch"]["per_thread"]
        assert ledgers["batch"]["windows_checked"] == 40
        assert [row["eligible_windows"] for row in per_thread] == [8, 10, 0, 0]
        assert [row["met_windows"] for row in per_thread] == [8, 10, 0, 0]


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0 and summary.maximum == 0

    def test_percentiles(self):
        summary = LatencySummary.of(list(range(1, 101)))
        assert summary.p50 == 50
        assert summary.p95 == 95
        assert summary.maximum == 100
        assert summary.mean == pytest.approx(50.5)

    def test_single_sample(self):
        summary = LatencySummary.of([16])
        assert summary.p50 == summary.p95 == 16.0


class TestRequestAnalysis:
    def test_load_latency_requires_timestamps(self):
        request = make_request(0, 0, AccessType.READ, 64)
        assert load_latency(request) is None
        request.issued_cycle = 0
        request.critical_word_cycle = 16
        assert load_latency(request) == 16

    def test_writes_excluded(self):
        request = make_request(0, 0, AccessType.WRITE, 64)
        request.issued_cycle = 0
        request.critical_word_cycle = 16
        assert load_latency(request) is None

    def test_end_to_end_logging(self):
        system = vpc_system(record_requests=True)
        system.run(40_000)
        assert system.request_log, "no requests recorded"
        summaries = loads_by_thread(system.request_log)
        assert 0 in summaries            # the Loads thread
        # Every load hit takes at least the 16-cycle pipelined minimum.
        assert summaries[0].p50 >= 16

    def test_queueing_delay_report(self):
        system = vpc_system(record_requests=True)
        system.run(40_000)
        queueing = queueing_by_thread(system.request_log)
        assert queueing[0].count > 0
        report = format_report(queueing, "queueing delay")
        assert "thread" in report and "p95" in report

    def test_logging_off_by_default(self):
        system = vpc_system()
        system.run(5_000)
        assert system.request_log == []
