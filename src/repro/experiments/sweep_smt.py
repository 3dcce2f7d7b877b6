"""SMT sweep: the same four hardware threads on fewer, wider cores.

The paper's general VPM case (Section 1.1) has multi-threaded
processors with shared L1 caches.  This sweep runs an identical
4-thread workload as 4x1 (the paper's evaluation shape), 2x2, and 1x4
SMT configurations under VPC arbitration with equal shares: the L2-side
QoS machinery is configuration-blind (every context is just a thread to
the cache), while core-side sharing (issue bandwidth, L1 capacity,
MSHR partitions) takes its own toll on per-thread IPC.
"""

from __future__ import annotations

from repro.common.config import VPCAllocation, baseline_config
from repro.common.stats import sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.parallel import SimPoint, run_points

WORKLOAD = ("gcc", "gzip", "ammp", "twolf")

SMT_DEGREES = (1, 2, 4)


@register("sweep-smt")
def run(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=30_000, measure=20_000)
    config = baseline_config(n_threads=4, arbiter="vpc",
                             vpc=VPCAllocation.equal(4))
    traces = tuple(("spec", name) for name in WORKLOAD)
    points = [
        SimPoint(config=config, traces=traces, warmup=warmup,
                 measure=measure, smt_degree=smt_degree)
        for smt_degree in SMT_DEGREES
    ]
    rows = []
    for smt_degree, result in zip(SMT_DEGREES, run_points(points)):
        cores = 4 // smt_degree
        rows.append((
            f"{cores}core x {smt_degree}way",
            sum_in_order(result.ipcs),
            min(result.ipcs),
            result.utilizations["data"],
        ))
    return ExperimentResult(
        exp_id="sweep-smt",
        title="Same 4 threads as 4x1 / 2x2 / 1x4 SMT under an L2 VPC",
        headers=["topology", "aggregate_ipc", "min_thread_ipc", "data_util"],
        rows=rows,
        notes=[
            "the cache-side VPC guarantees are topology-blind; aggregate "
            "IPC falls with SMT consolidation because issue bandwidth and "
            "the L1/MSHRs are shared inside each core",
        ],
    )
