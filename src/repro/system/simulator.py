"""Warmup/measure simulation driver and its result record.

Every experiment runs the same protocol the paper's sampled-trace
methodology implies: warm the caches and buffers for ``warmup`` cycles,
snapshot all counters, then measure for ``measure`` cycles.  All
reported IPCs and utilizations cover only the measurement interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.stats import sum_in_order
from repro.system.cmp import CMPSystem


@dataclass
class SimulationResult:
    """Measurement-interval statistics for one simulation."""

    cycles: int
    warmup_cycles: int
    ipcs: List[float]
    instructions: List[int]
    utilizations: Dict[str, float]               # averaged over banks
    bank_utilizations: List[Dict[str, float]]    # per bank
    l2_reads: int
    l2_writes: int
    stores_received: int
    stores_gathered: int
    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int
    extras: Dict[str, float] = field(default_factory=dict)
    # Metrics snapshot (repro.telemetry.metrics) when a collector was
    # passed to run_simulation; None otherwise, so results from
    # metrics-free runs compare equal regardless of observability.
    metrics: Optional[Dict] = None
    # Per-thread CPI-stack document (repro.telemetry.cycles) when cycle
    # accounting was attached to the system; None otherwise.
    cpi_stacks: Optional[Dict] = None
    # Request-tracing document (repro.telemetry.requests) when a request
    # tracer was attached to the system; None otherwise.
    requests: Optional[Dict] = None
    # QoS decision log (repro.qos) when a controller was attached to the
    # system; None otherwise.
    qos: Optional[Dict] = None

    @property
    def write_fraction(self) -> float:
        """Writes as a fraction of L2 requests after gathering (Fig. 7)."""
        total = self.l2_reads + self.l2_writes
        return self.l2_writes / total if total else 0.0

    @property
    def gathering_rate(self) -> float:
        """Fraction of stores merged in the gathering buffers (Fig. 7)."""
        if not self.stores_received:
            return 0.0
        return self.stores_gathered / self.stores_received

    @property
    def l2_miss_rate(self) -> float:
        accesses = self.read_hits + self.read_misses + self.write_hits + self.write_misses
        if not accesses:
            return 0.0
        return (self.read_misses + self.write_misses) / accesses

    def ipc_of(self, thread_id: int) -> float:
        return self.ipcs[thread_id]


@dataclass
class MeasureState:
    """Picklable bookkeeping of an in-progress measurement interval.

    Captured after warmup and carried through the chunked measurement
    loop; a resilience checkpoint (repro.resilience.snapshot) pickles
    this next to the system so a resumed run finalizes with exactly the
    snapshots an uninterrupted run would have used.
    """

    warmup: int
    measure: int
    remaining: int
    dispatched_before: List[int]
    meter_snaps: List
    counter_snaps: List
    # Simulated cycles since the last checkpoint save (cadence state for
    # repro.resilience.snapshot.Checkpointer.maybe).
    since_checkpoint: int = 0


def run_simulation(
    system: CMPSystem,
    warmup: int = 20_000,
    measure: int = 60_000,
    metrics=None,
    on_window=None,
    checkpoint=None,
) -> SimulationResult:
    """Run ``system`` with a warmup phase, measuring the steady state.

    ``metrics`` is an optional :class:`repro.telemetry.metrics
    .MetricsCollector`; when given, the measurement phase runs in
    window-sized chunks with a gauge sample pulled at every boundary.
    Chunked ``run()`` calls are bit-identical to one call (the batch
    kernel's exactness contract — its wake state is rebuilt at every
    ``run()`` entry and settled at exit), so sampling does not perturb
    the result.

    ``on_window`` is an optional callback fired with the current cycle
    after each window boundary's gauge sample — the streaming hook the
    live observability plane (``--serve``) uses to flush per-window
    snapshots mid-run.  It requires ``metrics`` (windows only exist in
    chunked mode) and observes strictly after the chunk has simulated,
    so it cannot perturb results; when ``None`` the cost is one ``is
    not None`` test per window.

    A system with a QoS controller attached
    (``CMPSystem.attach_qos_controller``) likewise runs the measurement
    chunked, stopping at every controller epoch boundary to fire
    ``on_epoch`` — the control loop rides the same exactness contract,
    so both kernels agree bit for bit with a controller attached.

    ``checkpoint`` is an optional :class:`repro.resilience.snapshot
    .Checkpointer`; when given, the measurement also runs chunked (at
    the checkpoint cadence, or the metrics window when both are active
    so window sampling stays aligned) and a resumable snapshot is
    written whenever the cadence elapses.  Chunking is exact, so a
    checkpointed run returns the same result as an unchunked one.
    """
    if warmup < 0 or measure <= 0:
        raise ValueError("warmup must be >= 0 and measure > 0")
    if on_window is not None and metrics is None:
        raise ValueError("on_window requires a metrics collector")
    system.run(warmup)
    if system.cycle_accounting is not None:
        # Stacks cover exactly the measurement interval, like every
        # other reported statistic.
        system.cycle_accounting.rebase(system.cycle)
    if system.request_tracer is not None:
        # Request summaries likewise cover the measurement interval.
        system.request_tracer.rebase(system.cycle)
    if system.qos_controller is not None:
        # The controller's first epoch must not see warmup traffic.
        system.qos_controller.rebase(system)

    n_threads = system.config.n_threads
    state = MeasureState(
        warmup=warmup,
        measure=measure,
        remaining=measure,
        dispatched_before=[
            system.thread_dispatched(tid) for tid in range(n_threads)
        ],
        meter_snaps=[bank.utilization_snapshot() for bank in system.banks],
        counter_snaps=[bank.counters.snapshot() for bank in system.banks],
    )
    if metrics is not None:
        metrics.sample(system)
    return continue_measurement(system, state, metrics=metrics,
                                on_window=on_window, checkpoint=checkpoint)


def continue_measurement(
    system: CMPSystem,
    state: MeasureState,
    metrics=None,
    on_window=None,
    checkpoint=None,
) -> SimulationResult:
    """Run the measurement interval from wherever ``state`` left off.

    The entry point a resumed checkpoint continues through
    (:meth:`repro.resilience.snapshot.ResumedRun.run`); a fresh
    ``run_simulation`` call lands here too, so interrupted-and-resumed
    and uninterrupted runs share one code path and finalize from the
    same snapshots — the bit-exactness contract's backbone.
    """
    controller = system.qos_controller
    if state.remaining > 0:
        if metrics is None and checkpoint is None and controller is None:
            system.run(state.remaining)
            state.remaining = 0
        else:
            while state.remaining > 0:
                chunk = state.remaining
                if metrics is not None:
                    chunk = min(chunk, metrics.window)
                elif checkpoint is not None:
                    chunk = min(chunk,
                                checkpoint.every - state.since_checkpoint)
                if controller is not None:
                    # Stop at the next epoch boundary.  ``done`` derives
                    # from the measure/remaining arithmetic alone, so a
                    # checkpointed-and-resumed run fires epochs at the
                    # same cycles an uninterrupted one does.
                    done = state.measure - state.remaining
                    chunk = min(
                        chunk,
                        controller.epoch_cycles
                        - done % controller.epoch_cycles,
                    )
                system.run(chunk)
                state.remaining -= chunk
                state.since_checkpoint += chunk
                if controller is not None:
                    done = state.measure - state.remaining
                    if (done % controller.epoch_cycles == 0
                            or state.remaining == 0):
                        controller.on_epoch(system)
                if metrics is not None:
                    metrics.sample(system)
                    acct = system.cycle_accounting
                    if acct is not None and system.telemetry is not None:
                        acct.emit_counters(system.telemetry, system.cycle)
                    if on_window is not None:
                        on_window(system.cycle)
                if checkpoint is not None:
                    checkpoint.maybe(system, state)
    if metrics is not None:
        metrics.finish(system.cycle)
    return _finalize(system, state, metrics)


def _finalize(system: CMPSystem, state: MeasureState,
              metrics) -> SimulationResult:
    measure = state.measure
    n_threads = system.config.n_threads
    instructions = [
        system.thread_dispatched(tid) - state.dispatched_before[tid]
        for tid in range(n_threads)
    ]
    ipcs = [insts / measure for insts in instructions]

    bank_utils = [
        bank.utilizations(measure, snapshots=snap)
        for bank, snap in zip(system.banks, state.meter_snaps)
    ]
    avg_utils = {
        name: sum_in_order(b[name] for b in bank_utils) / len(bank_utils)
        for name in ("tag", "data", "bus")
    }

    deltas = [
        bank.counters.since(snap)
        for bank, snap in zip(system.banks, state.counter_snaps)
    ]

    def total(name: str) -> int:
        return sum(delta.get(name, 0) for delta in deltas)

    return SimulationResult(
        cycles=measure,
        warmup_cycles=state.warmup,
        ipcs=ipcs,
        instructions=instructions,
        metrics=metrics.snapshot() if metrics is not None else None,
        cpi_stacks=(
            system.cycle_accounting.snapshot(system.cycle)
            if system.cycle_accounting is not None else None
        ),
        requests=(
            system.request_tracer.document(system.cycle)
            if system.request_tracer is not None else None
        ),
        qos=(
            system.qos_controller.decisions_document()
            if system.qos_controller is not None else None
        ),
        utilizations=avg_utils,
        bank_utilizations=bank_utils,
        l2_reads=total("read_requests"),
        l2_writes=total("write_requests"),
        stores_received=total("stores_received"),
        stores_gathered=total("stores_gathered"),
        read_hits=total("read_hits"),
        read_misses=total("read_misses"),
        write_hits=total("write_hits"),
        write_misses=total("write_misses"),
    )
