"""Benchmarks: raw simulator and arbiter throughput (not a paper artifact,
but the number that governs every experiment's wall-clock)."""

import time

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.core.arbiter import ArbiterEntry
from repro.core.vpc_arbiter import VPCArbiter
from repro.system.cmp import CMPSystem
from repro.workloads import loads_trace, stores_trace


def test_bench_simulation_cycles_per_second(benchmark):
    """Full 2-thread CMP: processor cycles simulated per wall second
    under the default batch kernel.  This is the batch kernel's *worst
    case* — both threads stay runnable, so almost no whole-cycle jumps
    fire and the win comes only from selective component activation
    (~1.7x over the cycle kernel here)."""
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(5_000)  # warm the structures out of the timing loop
    cycles = 10_000
    benchmark.pedantic(system.run, args=(cycles,), iterations=1, rounds=3)


def test_bench_simulation_cycle_kernel(benchmark):
    """The same system under the reference cycle-by-cycle kernel — the
    baseline the batch kernel's speedup is measured against."""
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       kernel="cycle")
    system.run(5_000)
    cycles = 10_000
    benchmark.pedantic(system.run, args=(cycles,), iterations=1, rounds=3)


def _uniprocessor_point(kernel):
    """The single-thread private-equivalent machine every QoS experiment
    runs once per thread to obtain target IPCs (Sec. 5 methodology) —
    the *representative* batch-kernel case: long DRAM stalls with one
    core make whole-cycle jumps dominate."""
    from repro.common.config import private_equivalent
    from repro.workloads.profiles import spec_trace

    config = private_equivalent(baseline_config(n_threads=4), 0.25, 0.25)
    system = CMPSystem(config, [spec_trace("mcf", 0)], kernel=kernel)
    system.run(5_000)
    return system


def test_bench_uniprocessor_point_cycle_kernel(benchmark):
    """Target-IPC point under the reference cycle kernel."""
    system = _uniprocessor_point("cycle")
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_uniprocessor_point_batch_kernel(benchmark):
    """Target-IPC point under the batch kernel (3-4x over cycle: mcf's
    low MLP leaves the lone core stalled most cycles, all skippable)."""
    system = _uniprocessor_point("batch")
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_experiment_point_pipeline(benchmark):
    """End-to-end experiment wall-clock through the point runner: one
    fast-mode fig8 regeneration (shared runs + private targets), result
    cache pinned off so the timing is pure simulation + dispatch."""
    from repro.experiments import parallel
    from repro.experiments.runner import run_experiment

    parallel.configure(jobs=1, cache=False)
    try:
        benchmark.pedantic(
            run_experiment, args=("fig8",), kwargs={"fast": True},
            iterations=1, rounds=1,
        )
    finally:
        parallel.configure(jobs=1, cache=True)


def _fresh_system(warm=5_000):
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(warm)
    return system


# ---------------------------------------------------------------------- #
# Disabled-path overhead guards.
# ---------------------------------------------------------------------- #

def _as_is(system):
    return system


def _force_unprobed(system):
    """Strip every lifecycle-probe hook (CPI stacks, request tracing,
    metrics, attribution, the QoS monitor, the trace sink, the latency
    views and the load counters), mirroring ``CMPSystem._attach_view``
    — the reference 'engine baseline' even if a view ever became
    default-on."""
    system.cycle_accounting = None
    system.request_tracer = None
    system.metrics_collector = None
    system.attributor = None
    system.telemetry = None
    system._probe = None
    for bank in system.banks:
        bank._probe = None
        bank.array.policy._probe = None
    for core in system.cores:
        core._probe = None
        core.mshrs._probe = None
    for channel in system.memory.channels:
        channel._probe = None
    system.crossbar._probe = None
    if system.l3 is not None:
        system.l3._probe = None
        system.l3.array.policy._probe = None
    return system


def _bare_step(system, cycles):
    system.run(cycles)


def _serve_disabled_step(system, cycles, feed=None, on_window=None):
    """The exact control flow the live plane (``--serve``) adds to the
    hot drivers when it is *off*: None-guards around an unchanged
    ``run()`` (see run_simulation / run_point)."""
    if feed is not None and on_window is None:
        raise ValueError("a live feed requires a window callback")
    if on_window is not None:
        raise ValueError("benchmark covers the disabled path only")
    system.run(cycles)


def _resilience_disabled_step(system, cycles, metrics=None, checkpoint=None):
    """The exact control flow ``continue_measurement`` adds to the hot
    path when neither metrics nor a checkpointer is configured: one
    combined None-test in front of an unchanged ``run()``."""
    if metrics is None and checkpoint is None:
        system.run(cycles)
    else:
        raise ValueError("benchmark covers the disabled path only")


def _controller_disabled_step(system, cycles, metrics=None, checkpoint=None):
    """The exact control flow the QoS control plane adds to the hot
    measurement loop when no controller is attached: reading the (None)
    ``system.qos_controller`` attribute into the combined fast-path test
    of ``continue_measurement``, in front of an unchanged ``run()``."""
    controller = system.qos_controller
    if metrics is None and checkpoint is None and controller is None:
        system.run(cycles)
    else:
        raise ValueError("benchmark covers the disabled path only")


def _spans_alerts_disabled_step(system, cycles, span_ctx=None, engine=None):
    """The exact control flow the host-span tracer and alert engine add
    to the hot drivers when both are *off*: None-guards around an
    unchanged ``run()`` (see run_point's worker-span wrap and
    EventHub._publish's engine tap)."""
    worker_tracer = None
    if span_ctx is not None:
        raise ValueError("benchmark covers the disabled path only")
    if engine is not None:
        raise ValueError("benchmark covers the disabled path only")
    system.run(cycles)
    if worker_tracer is not None:
        raise ValueError("unreachable on the disabled path")


#: View -> (make the baseline system hook-free, drive the disabled
#: system).  Hook-carrying views compare a default-constructed system
#: against one with every hook forcibly stripped; driver-level views
#: compare their disabled control flow against a bare ``run()``.
DISABLED_PATHS = {
    "probe": (_force_unprobed, _bare_step),
    "serve": (_as_is, _serve_disabled_step),
    "resilience": (_as_is, _resilience_disabled_step),
    "controller": (_as_is, _controller_disabled_step),
    "spans-alerts": (_as_is, _spans_alerts_disabled_step),
}


def _alternating_ratios(baseline_system, observed_system, step=_bare_step,
                        rounds=6, chunks=10, cycles=2_000):
    """Per-round wall-time ratios observed/baseline over ``rounds``
    rounds of ``chunks`` short chunks each, run in alternating order so
    CPU-frequency and scheduler drift hit both sides equally."""
    def timed(drive, system):
        start = time.perf_counter()
        drive(system, cycles)
        return time.perf_counter() - start

    ratios = []
    for _ in range(rounds):
        baseline_total = observed_total = 0.0
        for chunk_index in range(chunks):
            if chunk_index % 2 == 0:
                baseline_total += timed(_bare_step, baseline_system)
                observed_total += timed(step, observed_system)
            else:
                observed_total += timed(step, observed_system)
                baseline_total += timed(_bare_step, baseline_system)
        ratios.append(observed_total / baseline_total)
    return ratios


@pytest.mark.parametrize("view", list(DISABLED_PATHS))
def test_disabled_overhead_under_two_percent(view):
    """The zero-overhead-when-disabled contract (docs/ARCHITECTURE.md
    "Observability"): with a view off, the engine must run within 2% of
    its hook-free baseline.  This trips if default construction ever
    attaches the view, or its disabled path grows beyond its
    ``is not None`` guards (snapshotting, epoch math, chunked stepping,
    id allocation, clock reads).

    One steady-state system per side (loads/stores are homogeneous
    infinite streams, so every chunk simulates statistically identical
    work).  Each round interleaves many short chunks in alternating
    order so CPU-frequency and scheduler drift hit both sides equally,
    and the verdict is the *best* round ratio: one clean round proves
    the disabled path is not systematically slower."""
    strip, step = DISABLED_PATHS[view]
    ratios = _alternating_ratios(strip(_fresh_system()), _fresh_system(),
                                 step)
    assert min(ratios) <= 1.02, (
        f"{view}-disabled engine is >2% slower than its baseline in "
        f"every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _metrics_system(warm=5_000):
    """The 2-thread loads/stores system with the windowed metrics
    collector and the interference attributor on its lifecycle probe."""
    from repro.telemetry.metrics import MetricsCollector

    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.attach_metrics(MetricsCollector(2, window=2_000))
    system.attach_attribution()
    system.run(warm)
    return system


def test_metrics_enabled_overhead_bounded():
    """The enabled-path cost of the aggregating views: with metrics and
    attribution counting through the lifecycle probe, the engine must
    run within 1.40x of the bare system in its best round (the same
    alternating rounds as the disabled-path guards).  Trips if the
    views go back to building events, or their hooks grow per-event
    work."""
    ratios = _alternating_ratios(_fresh_system(), _metrics_system())
    assert min(ratios) <= 1.40, (
        "metrics+attribution engine is >1.40x its bare baseline in every "
        f"round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def test_bench_traced_simulation(benchmark):
    """The same 2-thread CMP with full tracing enabled into a ring
    buffer — the cost of turning observability *on* (not bounded; the
    contract only covers the disabled path)."""
    from repro.telemetry.bus import RingBufferSink

    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       telemetry=RingBufferSink())
    system.run(5_000)
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_metrics_enabled_simulation(benchmark):
    """The same 2-thread CMP with the aggregating views on its lifecycle
    probe — the cost of turning the observability *aggregation* layer
    on (windowed MetricsCollector + InterferenceAttributor, no trace).
    Compare against test_bench_simulation_cycles_per_second for the
    metrics-enabled overhead, which test_metrics_enabled_overhead_bounded
    bounds; test_disabled_overhead_under_two_percent guards the
    disabled path."""
    system = _metrics_system()
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_vpc_arbiter_decision_rate(benchmark):
    """Enqueue+select throughput of the VPC arbiter alone."""
    arbiter = VPCArbiter(4, [0.25] * 4, 8)

    def churn():
        for i in range(1_000):
            arbiter.enqueue(
                ArbiterEntry(thread_id=i % 4, payload=None,
                             is_write=bool(i & 1),
                             service_quanta=2 if i & 1 else 1),
                i,
            )
            arbiter.select(i)

    benchmark.pedantic(churn, iterations=1, rounds=5)
