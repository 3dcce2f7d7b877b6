"""Design-space sweep: bank count vs. thread count (Section 5.2).

The paper's bank-count choice is an explicit engineering argument:
banking is expensive ("cache banking does not scale well"), a single
thread averages ~26 % of a bank's bandwidth, so two banks serve the
common 1-2-thread case while "on a four thread workload, the cache
approaches full utilization" — and the VPC arbiters let designers
provision for the common case rather than the worst case.

This sweep regenerates that argument: aggregate IPC and data-array
utilization for 1/2/4 SPEC threads on 2/4/8-bank caches, under VPC
arbitration with equal shares.
"""

from __future__ import annotations

from repro.common.config import VPCAllocation, baseline_config
from repro.common.stats import sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.parallel import SimPoint, run_points

# A demand ladder: each added thread is a real mid-to-high consumer.
THREAD_LADDER = ("art", "mesa", "vpr", "crafty")


@register("sweep-designspace")
def run(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=30_000, measure=25_000)
    thread_counts = (1, 4) if fast else (1, 2, 4)
    bank_counts = (2, 4) if fast else (2, 4, 8)
    labels = []
    points = []
    for n_threads in thread_counts:
        benchmarks = THREAD_LADDER[:n_threads]
        for banks in bank_counts:
            config = baseline_config(
                n_threads=n_threads, banks=banks, arbiter="vpc",
                vpc=VPCAllocation.equal(n_threads),
            )
            labels.append(f"{n_threads}T/{banks}B")
            points.append(SimPoint(
                config=config,
                traces=tuple(("spec", name) for name in benchmarks),
                warmup=warmup, measure=measure,
            ))
    rows = []
    for label, result in zip(labels, run_points(points)):
        rows.append((
            label,
            sum_in_order(result.ipcs),
            result.utilizations["data"],
            result.utilizations["tag"],
        ))
    return ExperimentResult(
        exp_id="sweep-designspace",
        title="Bank-count design space: aggregate IPC and utilization",
        headers=["config", "aggregate_ipc", "data_util", "tag_util"],
        rows=rows,
        notes=[
            "Section 5.2: one thread needs ~a quarter of a bank; two banks "
            "cover 1-2 threads; four threads approach full utilization — "
            "more banks buy throughput only under multi-thread load",
        ],
    )
