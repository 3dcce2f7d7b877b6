"""Tests for the experiment harness: every table/figure regenerates (in
fast mode) and shows the paper's qualitative shape."""

import math

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.experiments.base import ExperimentResult, cycle_budget


class TestInfrastructure:
    def test_registry_covers_every_artifact(self):
        expected = {
            "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "ablation-reorder", "ablation-capacity",
            "ablation-preempt", "ablation-memory", "ablation-fairness",
            "sweep-designspace", "sweep-smt", "policy-frontier",
        }
        assert expected == set(REGISTRY)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cycle_budget_fast_shrinks(self):
        full = cycle_budget(False)
        fast = cycle_budget(True)
        assert fast[0] < full[0] and fast[1] < full[1]
        assert fast[0] >= 4_000

    def test_result_helpers(self):
        result = ExperimentResult(
            "x", "t", ["a", "b"], [("r1", 1.0), ("r2", 2.0)]
        )
        assert result.cell(0, "b") == 1.0
        assert result.column("a") == ["r1", "r2"]
        assert result.row_by("a", "r2") == ("r2", 2.0)
        with pytest.raises(KeyError):
            result.row_by("a", "r3")

    def test_format_table_renders(self):
        result = ExperimentResult("x", "t", ["col"], [(1.25,)], notes=["n"])
        text = result.format_table()
        assert "1.250" in text and "note: n" in text


class TestTables:
    def test_table1_lists_config(self):
        result = run_experiment("table1", fast=True)
        assert any("L2" in row[0] for row in result.rows)

    def test_table2_geometry(self):
        result = run_experiment("table2", fast=True)
        for row in result.rows:
            assert row[1] == 32      # 32KB array
            assert row[2] == 64      # 64B rows


class TestFig4:
    def test_timing_matches_paper(self):
        result = run_experiment("fig4", fast=True)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row[result.headers.index("critical_word_total")] == 16
            assert row[result.headers.index("full_line_total")] == 22


class TestFig5:
    def test_loads_saturates_two_banks(self):
        result = run_experiment("fig5", fast=True)
        row = result.row_by("config", "loads 2B")
        assert row[result.headers.index("data_array")] > 0.9

    def test_utilization_falls_with_banks(self):
        result = run_experiment("fig5", fast=True)
        loads2 = result.row_by("config", "loads 2B")
        loads4 = result.row_by("config", "loads 4B")
        index = result.headers.index("data_array")
        assert loads4[index] < loads2[index] + 0.05


class TestFig6Fig7:
    def test_fig6_spread(self):
        result = run_experiment("fig6", fast=True)
        data = result.column("data_array")
        assert max(data) > 3 * min(data)   # wide utilization spread

    def test_fig7_equake_write_light(self):
        result = run_experiment("fig7", fast=True)
        row = result.row_by("benchmark", "equake")
        assert row[result.headers.index("write_fraction")] < 0.2


class TestFig8:
    def test_row_fcfs_starves_and_vpc_divides(self):
        result = run_experiment("fig8", fast=True)
        policies = result.column("policy")
        assert "ROW-FCFS" in policies and "FCFS" in policies
        vpc25 = result.row_by("policy", "VPC 25%")
        vpc75 = result.row_by("policy", "VPC 75%")
        loads = result.headers.index("loads_ipc")
        stores = result.headers.index("stores_ipc")
        # More share -> more IPC, on both sides of the split.
        assert vpc25[loads] > vpc75[loads]
        assert vpc75[stores] > vpc25[stores]

    def test_targets_present_for_vpc_rows(self):
        result = run_experiment("fig8", fast=True)
        vpc25 = result.row_by("policy", "VPC 25%")
        assert not math.isnan(vpc25[result.headers.index("loads_target")])


class TestFig9:
    def test_vpc_protects_subject(self):
        result = run_experiment("fig9", fast=True)
        fcfs = result.headers.index("fcfs_norm")
        vpc = result.headers.index("vpc50_norm")
        # At least one benchmark is crushed by FCFS but protected by VPC.
        crushed = [row for row in result.rows if row[fcfs] < 0.6]
        assert crushed, "no benchmark degraded under FCFS backgrounds"
        for row in crushed:
            assert row[vpc] > row[fcfs]


class TestFig10:
    def test_vpc_beats_baseline_on_average(self):
        result = run_experiment("fig10", fast=True)
        average = result.row_by(
            "mix", "average"
        )
        hm_gain = average[result.headers.index("hmean_gain_%")]
        min_gain = average[result.headers.index("min_gain_%")]
        assert hm_gain > 0
        assert min_gain > 0


class TestSweep:
    def test_more_threads_more_utilization(self):
        result = run_experiment("sweep-designspace", fast=True)
        util = result.headers.index("data_util")
        one = result.row_by("config", "1T/2B")[util]
        four = result.row_by("config", "4T/2B")[util]
        assert four > one * 1.5

    def test_banks_relieve_contention(self):
        result = run_experiment("sweep-designspace", fast=True)
        ipc = result.headers.index("aggregate_ipc")
        narrow = result.row_by("config", "4T/2B")[ipc]
        wide = result.row_by("config", "4T/4B")[ipc]
        assert wide >= narrow * 0.95  # more banks never hurt


class TestSMTSweep:
    def test_consolidation_costs_throughput(self):
        result = run_experiment("sweep-smt", fast=True)
        ipc = result.headers.index("aggregate_ipc")
        four_by_one = result.row_by("topology", "4core x 1way")[ipc]
        one_by_four = result.row_by("topology", "1core x 4way")[ipc]
        assert four_by_one > one_by_four

    def test_nobody_starves_under_any_topology(self):
        result = run_experiment("sweep-smt", fast=True)
        minimum = result.headers.index("min_thread_ipc")
        assert all(row[minimum] > 0 for row in result.rows)

    def test_cpi_stacks_skip_smt_points(self, monkeypatch):
        """CPI stacks assume one hardware thread per core: the 1-way
        point carries them and the SMT points run without, instead of
        the sweep failing."""
        from repro.experiments import parallel, sweep_smt
        results = []

        def capture(points):
            results.extend(parallel.run_points(points))
            return results

        monkeypatch.setattr(sweep_smt, "run_points", capture)
        parallel.configure(cpi_stacks=True)
        try:
            run_experiment("sweep-smt", fast=True)
        finally:
            parallel.configure()
        assert [result.cpi_stacks is not None for result in results] == [
            True, False, False]


class TestAblations:
    def test_reorder_preserves_shares(self):
        result = run_experiment("ablation-reorder", fast=True)
        loads = result.column("loads_ipc")
        stores = result.column("stores_ipc")
        assert loads[0] == pytest.approx(loads[1], rel=0.1)
        assert stores[0] == pytest.approx(stores[1], rel=0.1)

    def test_capacity_quota_protects_victim(self):
        result = run_experiment("ablation-capacity", fast=True)
        vpc = result.row_by("capacity_policy", "vpc")
        lru = result.row_by("capacity_policy", "lru")
        hit = result.headers.index("read_hit_rate")
        ipc = result.headers.index("victim_ipc")
        assert vpc[hit] > lru[hit] + 0.3
        assert vpc[ipc] > lru[ipc] * 1.5

    def test_preempt_normalized_near_one(self):
        result = run_experiment("ablation-preempt", fast=True)
        for row in result.rows:
            assert row[result.headers.index("normalized")] > 0.85
