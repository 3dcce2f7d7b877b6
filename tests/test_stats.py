"""Unit tests for repro.common.stats."""

import math

import pytest

from repro.common.stats import (
    Counters,
    UtilizationMeter,
    harmonic_mean,
    sum_in_order,
    weighted_mean,
)


class TestUtilizationMeter:
    def test_accumulates_busy_cycles(self):
        meter = UtilizationMeter("tag")
        meter.mark_busy(0, 4)
        meter.mark_busy(10, 4)
        assert meter.busy_cycles == 8
        assert meter.utilization(100) == pytest.approx(0.08)

    def test_overlap_detected(self):
        meter = UtilizationMeter("data")
        meter.mark_busy(0, 8)
        with pytest.raises(RuntimeError):
            meter.mark_busy(4, 8)

    def test_back_to_back_is_legal(self):
        meter = UtilizationMeter("data")
        meter.mark_busy(0, 8)
        meter.mark_busy(8, 8)
        assert meter.utilization(16) == pytest.approx(1.0)

    def test_is_free(self):
        meter = UtilizationMeter("bus")
        meter.mark_busy(0, 8)
        assert not meter.is_free(7)
        assert meter.is_free(8)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            UtilizationMeter().mark_busy(0, -1)

    def test_interval_subtraction_via_snapshot(self):
        meter = UtilizationMeter()
        meter.mark_busy(0, 10)
        snap = meter.snapshot()
        meter.mark_busy(20, 5)
        assert meter.utilization(100, since_busy=snap) == pytest.approx(0.05)

    def test_zero_total_cycles(self):
        assert UtilizationMeter().utilization(0) == 0.0


class TestCounters:
    def test_add_and_get(self):
        counters = Counters()
        counters.add("hits")
        counters.add("hits", 2)
        assert counters.get("hits") == 3
        assert counters.get("absent") == 0

    def test_since_snapshot(self):
        counters = Counters()
        counters.add("x", 5)
        snap = counters.snapshot()
        counters.add("x", 2)
        counters.add("y", 1)
        delta = counters.since(snap)
        assert delta["x"] == 2
        assert delta["y"] == 1


class TestMeans:
    def test_harmonic_mean_basic(self):
        assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_mean([1.0, 0.5]) == pytest.approx(2 / 3)

    def test_harmonic_mean_dominated_by_minimum(self):
        assert harmonic_mean([10.0, 0.1]) < 0.2

    def test_harmonic_mean_sums_in_order_on_every_interpreter(self):
        # Compensated summation (CPython 3.12+ sum()) would keep the
        # two 1e-16 reciprocals and return 2.9999999999999996.
        assert harmonic_mean([1.0, 1e16, 1e16]) == 3.0

    def test_sum_in_order_rounds_each_addition(self):
        # Left to right, each 1.0 is lost against 1e100; a compensated
        # sum (math.fsum, and sum() from CPython 3.12 on) keeps both.
        values = [1.0, 1e100, 1.0, -1e100]
        assert sum_in_order(values) == 0.0
        assert math.fsum(values) == 2.0

    def test_harmonic_mean_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    def test_harmonic_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_weighted_mean(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == pytest.approx(1.5)

    def test_weighted_mean_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])
