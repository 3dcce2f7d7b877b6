"""Figure 7: percentage of L2 requests that are writes, and the store
gathering rate, per benchmark.

Paper shape: writes average ~55 % of all L2 requests after gathering;
~80 % of stores gather (no separate L2 access); equake/swim have almost
no L2 writes.
"""

from __future__ import annotations

from repro.common.stats import sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.fig6_spec_util import FAST_SUBSET, solo_point
from repro.experiments.parallel import run_points
from repro.workloads.profiles import SPEC_ORDER


@register("fig7")
def run(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=30_000, measure=30_000)
    names = FAST_SUBSET if fast else SPEC_ORDER
    points = [solo_point(name, warmup, measure) for name in names]
    rows = []
    for name, result in zip(names, run_points(points)):
        rows.append((
            name,
            result.write_fraction,
            result.gathering_rate,
            result.l2_reads,
            result.l2_writes,
        ))
    mean_writes = sum_in_order(row[1] for row in rows) / len(rows)
    mean_gather = sum_in_order(row[2] for row in rows) / len(rows)
    return ExperimentResult(
        exp_id="fig7",
        title="L2 writes (after gathering) and store gathering rate",
        headers=["benchmark", "write_fraction", "gathering_rate",
                 "l2_reads", "l2_writes"],
        rows=rows,
        notes=[
            f"mean write fraction {mean_writes:.2f} (paper: 0.55), "
            f"mean gathering rate {mean_gather:.2f} (paper: 0.80)",
        ],
    )
