"""Fairness/throughput frontier: FCFS vs. static VPC vs. dynamic QoS.

The paper evaluates VPC with *static* equal shares (Figure 10); the QoS
control plane (:mod:`repro.qos`) retunes shares online.  This
experiment places the policy families on one fairness/throughput
frontier, under phase-changing fig10-style mixes where a static
allocation cannot be right the whole run:

* ``fcfs`` — the conventional cache: FCFS arbiters, shared LRU;
* ``vpc`` — the paper's static VPC with equal phi/beta;
* ``lfoc`` — VPC plus the LFOC-style clustering controller
  (:class:`~repro.qos.LFOCController`);
* ``dynamic`` — VPC plus the fairness feedback controller
  (:class:`~repro.qos.FairnessController`) steering toward equalized
  slowdowns against the solo targets.

Per mix and policy the figure reports the Jain index of normalized
IPCs (fairness), the aggregate raw IPC (throughput), and the harmonic
mean / minimum of normalized IPCs (the paper's Figure-10 metrics).
The machine-readable document (``repro.policy-frontier/1``, written by
the runner's ``--figures``) is validated by
``repro.telemetry.validate`` and asserted on by CI's observe-smoke job:
the dynamic policies must beat FCFS on Jain without giving up more
than a few percent of static VPC's throughput.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import VPCAllocation, baseline_config, private_equivalent
from repro.common.stats import harmonic_mean, jain_index, sum_in_order
from repro.experiments.base import ExperimentResult, cycle_budget, register
from repro.experiments.parallel import SimPoint, run_points
from repro.system.simulator import SimulationResult
from repro.workloads import PHASED_MIXES, workload_spec

#: Schema tag on the figure document (repro.telemetry.validate).
FRONTIER_SCHEMA = "repro.policy-frontier/1"

#: Policy families on the frontier, in reporting order.
POLICY_FAMILIES = ("fcfs", "vpc", "lfoc", "dynamic")

FAST_MIXES = ("pmix1",)


def _target_point(name: str, warmup: int, measure: int) -> SimPoint:
    private = private_equivalent(baseline_config(n_threads=4),
                                 phi=0.25, beta=0.25)
    return SimPoint(config=private, traces=(workload_spec(name),),
                    warmup=warmup, measure=measure, cacheable=True)


def _mix_point(
    workloads: List[str],
    policy: str,
    warmup: int,
    measure: int,
    epoch: int,
    targets: Tuple[float, ...],
) -> SimPoint:
    traces = tuple(workload_spec(name) for name in workloads)
    if policy == "fcfs":
        config = baseline_config(n_threads=4, arbiter="fcfs")
        return SimPoint(config=config, traces=traces, warmup=warmup,
                        measure=measure, capacity_policy="lru")
    config = baseline_config(n_threads=4, arbiter="vpc",
                             vpc=VPCAllocation.equal(4))
    controller = {"vpc": None, "lfoc": "lfoc", "dynamic": "fairness"}[policy]
    return SimPoint(
        config=config, traces=traces, warmup=warmup, measure=measure,
        capacity_policy="vpc", controller=controller, epoch_cycles=epoch,
        # Only the fairness controller steers against slowdown targets;
        # LFOC classifies from raw signals alone.
        controller_targets=targets if controller == "fairness" else None,
    )


def _policy_metrics(result: SimulationResult,
                    targets: List[float]) -> Dict:
    normalized = [
        ipc / target if target > 0 else 0.0
        for ipc, target in zip(result.ipcs, targets)
    ]
    return {
        "jain": jain_index(normalized),
        "aggregate_ipc": sum_in_order(result.ipcs),
        "hmean": harmonic_mean(normalized) if all(normalized) else 0.0,
        "min": min(normalized),
        "normalized_ipcs": normalized,
        "epochs": (result.qos or {}).get("epochs", 0),
    }


@register("policy-frontier")
def run(fast: bool = False) -> ExperimentResult:
    warmup, measure = cycle_budget(fast, warmup=20_000, measure=60_000)
    epoch = 5_000
    mixes = FAST_MIXES if fast else tuple(PHASED_MIXES)

    # Batch 1: solo private-equivalent targets per distinct workload.
    unique: List[str] = []
    for mix_name in mixes:
        for name in PHASED_MIXES[mix_name]:
            if name not in unique:
                unique.append(name)
    target_results = run_points(
        [_target_point(name, warmup, measure) for name in unique])
    target_ipc = {
        name: result.ipcs[0]
        for name, result in zip(unique, target_results)
    }

    # Batch 2: each mix under every policy family (targets feed the
    # dynamic controller, so this batch depends on batch 1).
    points = []
    for mix_name in mixes:
        workloads = PHASED_MIXES[mix_name]
        targets = tuple(target_ipc[name] for name in workloads)
        for policy in POLICY_FAMILIES:
            points.append(_mix_point(workloads, policy, warmup, measure,
                                     epoch, targets))
    results = iter(run_points(points))

    rows = []
    figure_mixes = []
    sums = {policy: {"jain": 0.0, "aggregate_ipc": 0.0,
                     "hmean": 0.0, "min": 0.0}
            for policy in POLICY_FAMILIES}
    for mix_name in mixes:
        workloads = PHASED_MIXES[mix_name]
        targets = [target_ipc[name] for name in workloads]
        per_policy = {
            policy: _policy_metrics(next(results), targets)
            for policy in POLICY_FAMILIES
        }
        for policy in POLICY_FAMILIES:
            for key in sums[policy]:
                sums[policy][key] += per_policy[policy][key]
        figure_mixes.append({
            "mix": mix_name,
            "workloads": list(workloads),
            "targets": targets,
            "points": per_policy,
        })
        row = [f"{mix_name}({'+'.join(workloads)})"]
        for policy in POLICY_FAMILIES:
            row.append(per_policy[policy]["jain"])
        for policy in POLICY_FAMILIES:
            row.append(per_policy[policy]["aggregate_ipc"])
        rows.append(tuple(row))
    aggregate = {
        policy: {key: value / len(mixes)
                 for key, value in sums[policy].items()}
        for policy in POLICY_FAMILIES
    }

    figure = {
        "schema": FRONTIER_SCHEMA,
        "policies": list(POLICY_FAMILIES),
        "epoch_cycles": epoch,
        "warmup": warmup,
        "measure": measure,
        "mixes": figure_mixes,
        "aggregate": aggregate,
    }
    headers = (["mix"]
               + [f"{policy}_jain" for policy in POLICY_FAMILIES]
               + [f"{policy}_ipc" for policy in POLICY_FAMILIES])
    return ExperimentResult(
        exp_id="policy-frontier",
        title="Fairness/throughput frontier under phase-changing mixes: "
              "FCFS vs. static VPC vs. LFOC vs. dynamic fairness control",
        headers=headers,
        rows=rows,
        notes=[
            "jain over IPCs normalized to private-machine targets at "
            "phi=beta=.25; ipc is the aggregate raw IPC of the mix",
            "lfoc/dynamic retune shares through the VPC control "
            f"registers every {epoch} cycles",
        ],
        figure=figure,
    )
