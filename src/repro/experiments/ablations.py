"""Ablation studies for the design choices DESIGN.md calls out.

* **reorder** — Section 4.1.1's intra-thread Read-over-Write reordering:
  run Loads+Stores under VPC with reordering on/off; per-thread
  bandwidth shares must be unchanged (guarantee preserved), while the
  reordering may only help latency.
* **capacity** — the VPC Capacity Manager vs. thread-oblivious shared
  LRU under an aggressive co-runner: the quota policy protects the
  victim thread's hit rate.
* **preempt** — Section 4.1.2's preemption latency: a latency-sensitive
  (low-MLP) subject at a high allocation against store-heavy
  backgrounds, where non-preemptibility costs a visible (but bounded)
  slice of target performance.
* **memory** — the VPM framework beyond the cache: one shared DRAM
  channel under FCFS vs. the fair-queuing memory scheduler, vs. the
  paper's private-channel isolation setup.
"""

from __future__ import annotations

from repro.common.config import VPCAllocation, baseline_config, private_equivalent
from repro.common.stats import sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.parallel import SimPoint, run_points
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation


@register("ablation-reorder")
def run_reorder(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=45_000, measure=30_000)
    vpc = VPCAllocation([0.5, 0.5], [0.5, 0.5])
    config = baseline_config(n_threads=2, arbiter="vpc", vpc=vpc)
    modes = (True, False)
    points = [
        SimPoint(config=config, traces=(("loads",), ("stores",)),
                 warmup=warmup, measure=measure,
                 intra_thread_row=intra_thread_row)
        for intra_thread_row in modes
    ]
    rows = []
    for intra_thread_row, result in zip(modes, run_points(points)):
        rows.append((
            "RoW-in-buffer" if intra_thread_row else "FIFO-in-buffer",
            result.ipcs[0],
            result.ipcs[1],
            result.utilizations["data"],
        ))
    return ExperimentResult(
        exp_id="ablation-reorder",
        title="Intra-thread RoW reordering inside the VPC arbiter buffers",
        headers=["mode", "loads_ipc", "stores_ipc", "data_util"],
        rows=rows,
        notes=["Section 4.1.1: reordering must not shift bandwidth between "
               "threads; per-thread IPCs stay (near-)identical"],
    )


@register("ablation-capacity")
def run_capacity(fast: bool = False) -> ExperimentResult:
    """Quota replacement vs. shared LRU where capacity actually binds.

    The 16MB baseline L2 cannot be thrashed within a tractable Python
    simulation, so this ablation shrinks the L2 to 64KB (keeping the
    pipeline identical) and pits a reuse-friendly victim — whose working
    set fits its half-cache quota — against a streaming aggressor.  With the VPC Capacity Manager the victim's working set stays resident;
    with shared LRU the stream flushes it continuously.

    Runs in-process (not through the parallel point runner): it inspects
    per-thread L2 occupancy on the live system after the run, which a
    :class:`~repro.system.simulator.SimulationResult` does not carry.
    """
    from dataclasses import replace

    from repro.workloads.synthetic import WorkloadProfile, synthetic_trace

    # The victim pool needs several full sweeps to reach LRU equilibrium,
    # so even the fast variant keeps a substantial warmup.
    warmup, measure = (30_000, 15_000) if fast else (60_000, 40_000)
    # The victim's reuse period must exceed the time the (DRAM-bandwidth-
    # capped) aggressor needs to flood the cache's slack capacity —
    # otherwise true LRU protects the victim by itself.  28KB reused at a
    # low access rate inside a 64KB cache with a 32KB way quota does it.
    victim = WorkloadProfile(
        name="victim", mem_fraction=0.05, store_fraction=0.05,
        p_hot=0.0, p_warm=1.0, p_cold=0.0,
        warm_bytes=28 * 1024,                 # fits the 32KB way quota
        run_length=3, store_run_length=6,
    ).validate()
    aggressor = WorkloadProfile(
        name="aggressor", mem_fraction=0.50, store_fraction=0.50,
        p_hot=0.0, p_warm=0.0, p_cold=1.0,
        cold_bytes=64 * 1024 * 1024,          # streams through everything
        run_length=1, store_run_length=1,
    ).validate()

    base = baseline_config(n_threads=2, arbiter="vpc",
                           vpc=VPCAllocation.equal(2))
    small_l2 = replace(base.l2, size_bytes=64 * 1024, ways=16)
    config = replace(base, l2=small_l2).validate()

    rows = []
    for policy in ("vpc", "lru"):
        system = CMPSystem(
            config,
            [synthetic_trace(victim, 0), synthetic_trace(aggressor, 1)],
            capacity_policy=policy,
        )
        result = run_simulation(system, warmup=warmup, measure=measure)
        read_accesses = result.read_hits + result.read_misses
        hit_rate = result.read_hits / read_accesses if read_accesses else 0.0
        occupancy = [0, 0]
        for bank in system.banks:
            counts = bank.array.occupancy_by_thread(2)
            occupancy[0] += counts[0]
            occupancy[1] += counts[1]
        total = sum(occupancy) or 1
        rows.append((
            policy,
            result.ipcs[0],
            result.ipcs[1],
            occupancy[0] / total,
            hit_rate,
        ))
    return ExperimentResult(
        exp_id="ablation-capacity",
        title="VPC Capacity Manager vs. shared LRU on a 64KB L2 "
              "(resident victim vs. streaming aggressor)",
        headers=["capacity_policy", "victim_ipc", "aggressor_ipc",
                 "victim_l2_share", "read_hit_rate"],
        rows=rows,
        notes=["the quota policy keeps the victim's working set resident; "
               "shared LRU lets the stream flush it"],
    )


@register("ablation-preempt")
def run_preempt(fast: bool = False) -> ExperimentResult:
    """Preemption-latency sensitivity (Section 4.1.2-4.1.3).

    mcf (dependent loads, low MLP) is the susceptible class: compare its
    normalized IPC at a high allocation against bursty backgrounds with
    equake-style high-MLP traffic in the same seat.
    """
    warmup, measure = cycle_budget(fast, warmup=35_000, measure=25_000)
    names = ("mcf", "swim")
    points = []
    for name in names:
        private = private_equivalent(baseline_config(n_threads=4),
                                     phi=0.75, beta=0.25)
        points.append(SimPoint(
            config=private, traces=(("spec", name),),
            warmup=warmup, measure=measure, cacheable=True,
        ))
        vpc = VPCAllocation([0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3], [0.25] * 4)
        shared_config = baseline_config(n_threads=4, arbiter="vpc", vpc=vpc)
        points.append(SimPoint(
            config=shared_config,
            traces=(("spec", name), ("stores",), ("stores",), ("stores",)),
            warmup=warmup, measure=measure,
        ))
    results = iter(run_points(points))
    rows = []
    for name in names:
        target = next(results).ipcs[0]
        result = next(results)
        rows.append((
            name, target, result.ipcs[0],
            result.ipcs[0] / target if target else 0.0,
        ))
    return ExperimentResult(
        exp_id="ablation-preempt",
        title="Preemption-latency exposure at phi=.75 vs. Stores backgrounds",
        headers=["subject", "target_ipc", "shared_ipc", "normalized"],
        rows=rows,
        notes=["low-MLP subjects (mcf) absorb preemption latency on the "
               "critical path; high-MLP subjects amortize it over bursts"],
    )


@register("ablation-memory")
def run_memory(fast: bool = False) -> ExperimentResult:
    """The VPM framework beyond the cache: shared memory channel.

    The paper isolates cache effects with private per-thread DRAM
    channels; the VPM framework's memory-bandwidth component is the FQ
    memory controller of Nesbit et al. [18].  This ablation puts a
    miss-heavy subject (swim) on ONE channel with three read-flooding
    co-runners and compares private channels, shared-FCFS, and
    shared-FQ scheduling.
    """
    from dataclasses import replace

    from repro.common.config import MemoryConfig
    from repro.workloads.synthetic import WorkloadProfile, synthetic_trace

    warmup, measure = cycle_budget(fast, warmup=30_000, measure=20_000)
    flood = WorkloadProfile(
        name="flood", mem_fraction=0.5, store_fraction=0.02,
        p_hot=0.0, p_warm=0.0, p_cold=1.0, cold_bytes=64 * 1024 * 1024,
        run_length=1, store_run_length=1,
    ).validate()

    variants = (
        ("private", MemoryConfig()),
        ("shared-fcfs", MemoryConfig(sharing="shared", shared_scheduler="fcfs")),
        ("shared-fq", MemoryConfig(sharing="shared", shared_scheduler="fq")),
    )
    points = []
    for label, memory in variants:
        config = replace(
            baseline_config(n_threads=4, arbiter="vpc",
                            vpc=VPCAllocation.equal(4)),
            memory=memory,
        ).validate()
        points.append(SimPoint(
            config=config,
            traces=(("spec", "swim"),) + (("synthetic", flood),) * 3,
            warmup=warmup, measure=measure,
        ))
    rows = []
    for (label, _), result in zip(variants, run_points(points)):
        rows.append((label, result.ipcs[0],
                     sum_in_order(result.ipcs[1:]) / 3.0))
    return ExperimentResult(
        exp_id="ablation-memory",
        title="Memory-channel sharing: swim vs. three read flooders",
        headers=["channels", "subject_ipc", "mean_flooder_ipc"],
        rows=rows,
        notes=["shared-fcfs serves the channel proportionally to request "
               "rate (the flooders); shared-fq restores the subject's "
               "quarter-bandwidth guarantee, approaching private channels"],
    )


@register("ablation-fairness")
def run_fairness(fast: bool = False) -> ExperimentResult:
    """Fairness-policy comparison the paper defers (Section 4.1.3).

    Earliest-virtual-FINISH (the paper's WFQ/EDF policy) vs.
    earliest-virtual-START (SFQ) on a bursty subject: the virtual finish
    time doubles as an excess-service indicator, so WFQ penalizes a
    thread for bursts of excess consumption more promptly than SFQ.
    Both must keep every thread at its guarantee.
    """
    warmup, measure = cycle_budget(fast, warmup=40_000, measure=30_000)
    vpc = VPCAllocation([0.5, 0.5], [0.5, 0.5])
    config = baseline_config(n_threads=2, arbiter="vpc", vpc=vpc)
    selections = ("finish", "start")
    points = [
        SimPoint(config=config, traces=(("spec", "mcf"), ("stores",)),
                 warmup=warmup, measure=measure, vpc_selection=selection)
        for selection in selections
    ]
    rows = []
    for selection, result in zip(selections, run_points(points)):
        rows.append((
            "WFQ (finish)" if selection == "finish" else "SFQ (start)",
            result.ipcs[0],
            result.ipcs[1],
            result.utilizations["data"],
        ))
    return ExperimentResult(
        exp_id="ablation-fairness",
        title="Excess-bandwidth fairness policy: WFQ vs. SFQ selection",
        headers=["policy", "mcf_ipc", "stores_ipc", "data_util"],
        rows=rows,
        notes=["both meet the bandwidth guarantee; differences are in "
               "burst penalties and write-quantum sensitivity"],
    )
