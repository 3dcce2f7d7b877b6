"""Figure 6: L2 cache utilization of the SPEC stand-in benchmarks.

Each benchmark runs alone on the 2-bank baseline; the figure's series
are data-array, data-bus, and tag-array utilization, ordered by
data-array utilization (the paper's proxy for thread aggressiveness).
Shape targets: a wide spread averaging ~26 % of a bank's bandwidth;
equake/swim show tag > data (miss-dominated, write-light traffic).
"""

from __future__ import annotations

from repro.common.config import VPCAllocation, baseline_config
from repro.common.stats import sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.parallel import SimPoint, run_points
from repro.workloads.profiles import SPEC_ORDER

FAST_SUBSET = ("art", "mcf", "equake", "sixtrack")


def solo_point(name: str, warmup: int, measure: int) -> SimPoint:
    """One benchmark alone on the baseline uniprocessor configuration."""
    config = baseline_config(n_threads=1, arbiter="row-fcfs",
                             vpc=VPCAllocation([1.0], [1.0]))
    return SimPoint(config=config, traces=(("spec", name),),
                    warmup=warmup, measure=measure)


@register("fig6")
def run(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=30_000, measure=30_000)
    names = FAST_SUBSET if fast else SPEC_ORDER
    points = [solo_point(name, warmup, measure) for name in names]
    rows = []
    for name, result in zip(names, run_points(points)):
        rows.append((
            name,
            result.utilizations["data"],
            result.utilizations["bus"],
            result.utilizations["tag"],
            result.ipcs[0],
        ))
    mean_data = sum_in_order(row[1] for row in rows) / len(rows)
    return ExperimentResult(
        exp_id="fig6",
        title="L2 cache utilization of the SPEC benchmarks (solo, 2 banks)",
        headers=["benchmark", "data_array", "data_bus", "tag_array", "ipc"],
        rows=rows,
        notes=[
            f"mean data-array utilization {mean_data:.3f} "
            "(paper: a single thread consumes ~26% of bank bandwidth)",
            "benchmarks ordered by data-array utilization, as in the paper",
        ],
    )
