"""Headline experiment: heterogeneous 4-thread workloads, VPC vs. FCFS.

The abstract's claim: "On a CMP running heterogeneous workloads, VPCs
improve throughput by eliminating negative interference, i.e., VPCs
improve average performance by 14% (harmonic mean of normalized IPCs)
and by 25% (minimum normalized IPC)."

Each mix runs under the conventional FCFS baseline and under VPC with
equal shares (phi_i = beta_i = .25).  Every thread's IPC is normalized
to its private-machine target (phi = .25, beta = .25); the workload
metrics are the harmonic mean and the minimum of the four normalized
IPCs, and the figure reports VPC's improvement over the baseline.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import VPCAllocation, baseline_config, private_equivalent
from repro.common.stats import harmonic_mean, sum_in_order
from repro.experiments.base import ExperimentResult, register
from repro.experiments.parallel import SimPoint, run_points
from repro.system.simulator import SimulationResult
from repro.workloads.profiles import HETEROGENEOUS_MIXES

FAST_MIXES = ("mix3", "mix1")


def _target_point(name: str, warmup: int, measure: int) -> SimPoint:
    private = private_equivalent(baseline_config(n_threads=4),
                                 phi=0.25, beta=0.25)
    return SimPoint(config=private, traces=(("spec", name),),
                    warmup=warmup, measure=measure, cacheable=True)


def _mix_point(benchmarks: List[str], arbiter: str,
               warmup: int, measure: int) -> SimPoint:
    config = baseline_config(n_threads=4, arbiter=arbiter,
                             vpc=VPCAllocation.equal(4))
    # The baseline is the *conventional* cache: FCFS arbiters and a
    # thread-oblivious shared-LRU replacement; VPC brings both the FQ
    # arbiters and the quota capacity manager.
    capacity = "vpc" if arbiter == "vpc" else "lru"
    return SimPoint(
        config=config,
        traces=tuple(("spec", name) for name in benchmarks),
        warmup=warmup, measure=measure, capacity_policy=capacity,
    )


def _metrics(result: SimulationResult, targets: List[float]):
    normalized = [
        ipc / target if target > 0 else 0.0
        for ipc, target in zip(result.ipcs, targets)
    ]
    return harmonic_mean(normalized), min(normalized)


@register("fig10")
def run(fast: bool = False) -> ExperimentResult:
    # The min-normalized-IPC metric is sensitive to the measurement
    # window (one thread's worst interval defines it), so the full run
    # uses a long window for stability.
    warmup, measure = (15_000, 10_000) if fast else (40_000, 50_000)
    mixes = FAST_MIXES if fast else tuple(HETEROGENEOUS_MIXES)
    # One batch: a private target per distinct benchmark, then an FCFS
    # and a VPC shared run per mix.
    unique = []
    for mix_name in mixes:
        for name in HETEROGENEOUS_MIXES[mix_name]:
            if name not in unique:
                unique.append(name)
    points = [_target_point(name, warmup, measure) for name in unique]
    for mix_name in mixes:
        benchmarks = HETEROGENEOUS_MIXES[mix_name]
        points.append(_mix_point(benchmarks, "fcfs", warmup, measure))
        points.append(_mix_point(benchmarks, "vpc", warmup, measure))
    results = run_points(points)
    target_ipc: Dict[str, float] = {
        name: results[index].ipcs[0] for index, name in enumerate(unique)
    }
    mix_results = iter(results[len(unique):])

    rows = []
    hm_gains = []
    min_gains = []
    for mix_name in mixes:
        benchmarks = HETEROGENEOUS_MIXES[mix_name]
        targets = [target_ipc[name] for name in benchmarks]
        base_hm, base_min = _metrics(next(mix_results), targets)
        vpc_hm, vpc_min = _metrics(next(mix_results), targets)
        hm_gain = (vpc_hm / base_hm - 1.0) * 100 if base_hm else float("nan")
        min_gain = (vpc_min / base_min - 1.0) * 100 if base_min else float("nan")
        hm_gains.append(hm_gain)
        min_gains.append(min_gain)
        rows.append((
            f"{mix_name}({'+'.join(benchmarks)})",
            base_hm, vpc_hm, hm_gain, base_min, vpc_min, min_gain,
        ))
    rows.append((
        "average",
        sum_in_order(r[1] for r in rows) / len(rows),
        sum_in_order(r[2] for r in rows) / len(rows),
        sum_in_order(hm_gains) / len(hm_gains),
        sum_in_order(r[4] for r in rows) / len(rows),
        sum_in_order(r[5] for r in rows) / len(rows),
        sum_in_order(min_gains) / len(min_gains),
    ))
    return ExperimentResult(
        exp_id="fig10",
        title="Heterogeneous workloads: normalized-IPC harmonic mean and "
              "minimum, FCFS baseline vs. VPC equal shares",
        headers=["mix", "fcfs_hmean", "vpc_hmean", "hmean_gain_%",
                 "fcfs_min", "vpc_min", "min_gain_%"],
        rows=rows,
        notes=[
            "normalized to private-machine targets at phi=beta=.25",
            "paper headline: VPC improves the harmonic mean by 14% and "
            "the minimum normalized IPC by 25%",
        ],
    )
