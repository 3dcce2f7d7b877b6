"""Cross-kernel equivalence: the batch kernel must reproduce the
cycle-by-cycle stepper bit for bit.

Both kernels share one state-transition model (``repro.system.kernel``,
``repro.system.batch_kernel``): ``cycle`` steps every component every
cycle and is the oracle; ``batch`` activates components selectively and
jumps between wake cycles.  Every field of
:class:`~repro.system.simulator.SimulationResult` — IPCs, instruction
counts, utilizations, all L2 counters, and (when collected) the full
metrics snapshot — is compared with exact equality, no tolerances: the
batch kernel only elides cycles it can prove are no-ops, so any
divergence is a bug.

The matrix also covers the surfaces that historically break exactness
claims: the metrics view (replacement-policy clocks read
``system.cycle`` mid-cycle), metrics windows (chunked ``run()`` calls),
and checkpoint/resume mid-measurement, including a checkpoint of a
system with both views attached.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict

import pytest

from repro.common.config import baseline_config
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.workloads import build_trace
from repro.workloads.microbench import loads_trace, stores_trace
from repro.workloads.profiles import HETEROGENEOUS_MIXES, spec_trace


def _run(config, trace_factories, kernel, warmup, measure, metrics=False,
         **kwargs):
    traces = [factory(tid) for tid, factory in enumerate(trace_factories)]
    system = CMPSystem(config, traces, kernel=kernel, **kwargs)
    collector = None
    if metrics:
        from repro.telemetry.metrics import MetricsCollector
        collector = system.attach_metrics(MetricsCollector(
            config.n_threads, window=500))
    result = run_simulation(system, warmup=warmup, measure=measure,
                            metrics=collector)
    return system, result


def _assert_equivalent(config, trace_factories, warmup=6_000, measure=4_000,
                       metrics=False, **kwargs):
    """Run cycle as the oracle, then batch; bit-compare.  Returns the
    batch-kernel system."""
    ref_system, reference = _run(config, trace_factories, "cycle", warmup,
                                 measure, metrics=metrics, **kwargs)
    # The cycle kernel never scans for skips.
    assert ref_system.skip_attempts == 0
    assert ref_system.skips_taken == 0
    assert ref_system.skipped_cycles == 0
    system, result = _run(config, trace_factories, "batch", warmup,
                          measure, metrics=metrics, **kwargs)
    assert asdict(result) == asdict(reference)
    # Skip accounting must be internally consistent: no more takes than
    # attempts, and every taken skip removed at least one cycle.
    assert system.skip_attempts >= system.skips_taken
    assert system.skipped_cycles >= system.skips_taken
    if system.skipped_cycles:
        assert system.skips_taken > 0
    return system


class TestKernelEquivalence:
    @pytest.mark.parametrize("arbiter", ["vpc", "fcfs", "row-fcfs"])
    def test_two_thread_loads_stores(self, arbiter):
        config = baseline_config(n_threads=2, arbiter=arbiter)
        system = _assert_equivalent(config, [loads_trace, stores_trace])
        # The matrix is vacuous unless the batch kernel skipped.
        assert system.skipped_cycles > 0

    def test_lru_capacity_policy(self):
        config = baseline_config(n_threads=2, arbiter="fcfs")
        _assert_equivalent(config, [loads_trace, stores_trace],
                           capacity_policy="lru")

    def test_four_thread_fig10_mix(self):
        names = HETEROGENEOUS_MIXES["mix1"]
        factories = [
            (lambda tid, name=name: spec_trace(name, tid)) for name in names
        ]
        config = baseline_config(n_threads=4, arbiter="vpc")
        system = _assert_equivalent(config, factories,
                                    warmup=5_000, measure=3_000)
        assert system.skipped_cycles > 0

    def test_smt_core_pair(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        _assert_equivalent(config, [loads_trace, stores_trace],
                           warmup=4_000, measure=3_000, smt_degree=2)

    def test_finite_trace_drains_identically(self):
        # A short finite trace leaves the machine idle long before the
        # interval ends — the drained tail must be skipped, not mis-stepped.
        def short(tid):
            return itertools.islice(loads_trace(tid), 200)

        config = baseline_config(n_threads=2, arbiter="vpc")
        system = _assert_equivalent(config, [short, short],
                                    warmup=1_000, measure=2_000)
        assert system.skipped_cycles > 1_000

    def test_with_telemetry_and_metrics_windows(self):
        # The metrics view stamps victimizations with the replacement-
        # policy clock, system.cycle (a mid-cycle read the batch kernel
        # must keep synchronized), and chunks the run into windows; both
        # the result AND the metrics JSON must stay byte-identical.
        config = baseline_config(n_threads=2, arbiter="vpc")
        _, reference = _run(config, [loads_trace, stores_trace], "cycle",
                            6_000, 4_000, metrics=True)
        ref_json = json.dumps(reference.metrics, indent=2, sort_keys=True)
        _, result = _run(config, [loads_trace, stores_trace], "batch",
                         6_000, 4_000, metrics=True)
        assert asdict(result) == asdict(reference)
        assert json.dumps(result.metrics, indent=2,
                          sort_keys=True) == ref_json

    @pytest.mark.parametrize("case", ["batch", "views"])
    def test_checkpoint_roundtrip_mid_run(self, tmp_path, case):
        # A run checkpointed mid-measurement on the batch kernel and
        # resumed "in another process" must land on the uninterrupted
        # cycle-kernel result.  "views" attaches CPI stacks and request
        # tracing, whose probe, census and open journeys ride the
        # checkpoint: the resumed documents must match byte for byte.
        from repro.resilience import (
            Checkpointer,
            ResumableTrace,
            resume_simulation,
        )
        config = baseline_config(n_threads=2, arbiter="vpc")
        if case == "views":
            specs = (("spec", "art"), ("spec", "mcf"))
            warmup, measure = 3_000, 4_000
        else:
            specs = (("loads",), ("stores",))
            warmup, measure = 6_000, 4_000

        def system_for(kernel, traces):
            system = CMPSystem(config, traces, kernel=kernel)
            if case == "views":
                system.attach_cycle_accounting()
                system.attach_request_tracing()
            return system

        ref_traces = [build_trace(spec, tid) for tid, spec in enumerate(specs)]
        ref_system = system_for("cycle", ref_traces)
        reference = run_simulation(ref_system, warmup=warmup, measure=measure)

        ckpt = tmp_path / f"{case}.ckpt"
        system = system_for(
            "batch",
            [ResumableTrace(spec, tid) for tid, spec in enumerate(specs)])
        checkpointer = Checkpointer(ckpt, every=1_000, point_key=case)
        chunked = run_simulation(system, warmup=warmup, measure=measure,
                                 checkpoint=checkpointer)
        assert asdict(chunked) == asdict(reference)
        assert checkpointer.saved >= 2
        resumed = resume_simulation(ckpt)
        assert asdict(resumed) == asdict(reference)
        if case == "views":
            for view in ("cpi_stacks", "requests"):
                assert getattr(reference, view) is not None
                assert json.dumps(getattr(resumed, view), sort_keys=True) == (
                    json.dumps(getattr(reference, view), sort_keys=True))

    def test_skip_counters_account_for_fast_forwards(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system, _ = _run(config, [loads_trace, stores_trace], "batch",
                         warmup=6_000, measure=4_000)
        # loads+stores stalls on DRAM round trips, so the kernel must both
        # attempt and take skips here, and the cycles it removed must be
        # attributable to those takes.
        assert system.skip_attempts >= system.skips_taken > 0
        assert system.skipped_cycles >= system.skips_taken

    def test_unknown_kernel_rejected(self):
        config = baseline_config(n_threads=1, arbiter="row-fcfs")
        # "event" named the retired skip-ahead kernel.
        for kernel in ("warp", "event"):
            with pytest.raises(ValueError):
                CMPSystem(config, [loads_trace(0)], kernel=kernel)
