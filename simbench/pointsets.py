"""The benchmark's four workloads: seeded point sets and model metrics.

Each workload is a closed loop with one client: the harness hands one
batch of :class:`~repro.experiments.parallel.SimPoint` to ``run_points``
and waits for every result.  Points are built only from the public API
the experiment modules use (``SimPoint``, ``baseline_config``,
``private_equivalent``, ``VPCAllocation``), mirroring ``fig8`` and
``fig10`` so that at :data:`PROGRAM_SEED` every point is one of the
figures' own points.

Any other seed changes the inputs but not their shape: each SPEC
stand-in is renamed ``name~seed``, a new random stream with the same
statistics (the trace generator seeds its PRNG from the profile name).
fig8's microbenchmarks are deterministic, so ``fig8_dense`` is the same
at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from repro.common.config import VPCAllocation, baseline_config, private_equivalent
from repro.common.stats import harmonic_mean
from repro.experiments.parallel import SimPoint
from repro.workloads.profiles import HETEROGENEOUS_MIXES, SPEC_ORDER, SPEC_PROFILES

#: The trace seed the program itself uses; at this seed every workload
#: reproduces its figure exactly and is checked against the golden file.
PROGRAM_SEED = 12345

FIG10_MIXES = ("mix1", "mix3", "mix5")
#: fig8_dense's VPC store shares: fig8's own 0, 1/4, 1/2 and 3/4 plus
#: the odd eighths between them.
FIG8_SHARES = tuple(k / 8 for k in range(7))
#: Paper values printed beside the model metrics (Nesbit et al., ISCA
#: 2007): fig10's +14% harmonic mean / +25% minimum normalized IPC, and
#: fig8's "FCFS gives Stores 67% of the data array" and "every VPC
#: point divides bandwidth precisely".
PAPER = {
    "vpc_hmean_gain_pct": 14.0,
    "vpc_min_gain_pct": 25.0,
    "fcfs_stores_data_share_pct": 67.0,
    "vpc_share_error_pct": 0.0,
}


@dataclass(frozen=True)
class Workload:
    """A point set, the views it runs with, and how to score it."""

    name: str
    points: Tuple[SimPoint, ...]
    #: Guaranteed bandwidth share per point and thread; a thread with a
    #: non-zero share must retire instructions (IPC > 0).
    shares: Tuple[Tuple[float, ...], ...]
    #: ``model(results) -> {metric: (value, unit)}``.
    model: Callable[[List], Dict[str, Tuple[float, str]]]
    #: Keyword arguments for ``parallel.configure`` beyond jobs/cache.
    views: Tuple[Tuple[str, object], ...] = ()

    @property
    def sim_cycles(self) -> int:
        return sum(p.warmup + p.measure for p in self.points)


def _trace(name: str, seed: int) -> Tuple:
    if seed == PROGRAM_SEED:
        return ("spec", name)
    return ("synthetic", replace(SPEC_PROFILES[name], name=f"{name}~{seed}"))


def _target(name: str, seed: int, warmup: int, measure: int) -> SimPoint:
    private = private_equivalent(baseline_config(n_threads=4),
                                 phi=0.25, beta=0.25)
    return SimPoint(config=private, traces=(_trace(name, seed),),
                    warmup=warmup, measure=measure, cacheable=True)


def _mix(benchmarks, arbiter: str, seed: int,
         warmup: int, measure: int) -> SimPoint:
    config = baseline_config(n_threads=4, arbiter=arbiter,
                             vpc=VPCAllocation.equal(4))
    return SimPoint(
        config=config,
        traces=tuple(_trace(name, seed) for name in benchmarks),
        warmup=warmup, measure=measure,
        capacity_policy="vpc" if arbiter == "vpc" else "lru",
    )


def _fig10(mixes, seed: int, warmup: int, measure: int):
    """fig10's batch: one private target per distinct benchmark, then an
    FCFS+LRU and a VPC point per mix; returns the points and a scorer
    computing fig10's "average" row."""
    unique: List[str] = []
    for mix in mixes:
        for name in HETEROGENEOUS_MIXES[mix]:
            if name not in unique:
                unique.append(name)
    points = [_target(name, seed, warmup, measure) for name in unique]
    for mix in mixes:
        for arbiter in ("fcfs", "vpc"):
            points.append(_mix(HETEROGENEOUS_MIXES[mix], arbiter, seed,
                               warmup, measure))

    def model(results) -> Dict[str, Tuple[float, str]]:
        target = {name: results[i].ipcs[0] for i, name in enumerate(unique)}
        hm_gains, min_gains = [], []
        for index, mix in enumerate(mixes):
            targets = [target[name] for name in HETEROGENEOUS_MIXES[mix]]
            base, vpc = results[len(unique) + 2 * index:][:2]
            norm_base = [ipc / t for ipc, t in zip(base.ipcs, targets)]
            norm_vpc = [ipc / t for ipc, t in zip(vpc.ipcs, targets)]
            hm_gains.append(
                (harmonic_mean(norm_vpc) / harmonic_mean(norm_base) - 1.0) * 100)
            min_gains.append((min(norm_vpc) / min(norm_base) - 1.0) * 100)
        return {
            "vpc_hmean_gain_pct": (sum(hm_gains) / len(hm_gains), "%"),
            "vpc_min_gain_pct": (sum(min_gains) / len(min_gains), "%"),
        }

    shares = tuple((1.0,) if p.config.n_threads == 1 else (0.25,) * 4
                   for p in points)
    return tuple(points), shares, model


def fig10_hetero(seed: int, warmup: int = 40_000,
                 measure: int = 50_000) -> Workload:
    points, shares, model = _fig10(FIG10_MIXES, seed, warmup, measure)
    return Workload("fig10_hetero", points, shares, model)


def fig10_observed(seed: int, warmup: int = 40_000,
                   measure: int = 50_000) -> Workload:
    from repro.telemetry.requests import load_slo

    points, shares, base_model = _fig10(("mix1",), seed, warmup, measure)

    def model(results):
        metrics = base_model(results)
        vpc = results[-1].requests
        worst = max(thread["quantiles"]["p99"] for thread in vpc["threads"])
        metrics["vpc_worst_p99_cycles"] = (float(worst), "cycles")
        return metrics

    views = (("metrics", 5000), ("cpi_stacks", True), ("requests", True),
             ("slo", tuple(load_slo("400"))))
    return Workload("fig10_observed", points, shares, model, views)


def _stores_data_share(result, config) -> float:
    """Stores' share of the data array's busy cycles.

    Loads only reads and Stores only writes, and both stay resident in
    the L2, so every data-array grant of the point is one of the two.
    """
    l2 = config.l2
    reads = result.l2_reads * l2.data_read_latency
    writes = result.l2_writes * l2.data_write_latency
    return writes / (reads + writes)


def fig8_dense(seed: int, warmup: int = 45_000,
               measure: int = 30_000) -> Workload:
    """fig8's shared Loads+Stores points: RoW-FCFS, FCFS, then VPC at
    each store share of :data:`FIG8_SHARES`.

    Only points where both threads keep the data array busy: the private
    targets and the store shares 7/8 and 1 (Loads starved, Stores nearly
    alone) let the kernel skip a fifth to two thirds of their cycles.
    Loads and Stores are deterministic and the shares are fixed, so the
    seed does not change this workload: seeded shares would mix input
    changes into the host noise of the timings.
    """
    points: List[SimPoint] = []
    shares: List[Tuple[float, ...]] = []
    for arbiter in ("row-fcfs", "fcfs"):
        config = baseline_config(n_threads=2, arbiter=arbiter,
                                 vpc=VPCAllocation.equal(2))
        points.append(SimPoint(config=config, traces=(("loads",), ("stores",)),
                               warmup=warmup, measure=measure))
        # No guaranteed share: RoW-FCFS starves Stores by design.
        shares.append((0.0, 0.0))
    for share in FIG8_SHARES:
        config = baseline_config(
            n_threads=2, arbiter="vpc",
            vpc=VPCAllocation([1.0 - share, share], [0.5, 0.5]))
        points.append(SimPoint(config=config, traces=(("loads",), ("stores",)),
                               warmup=warmup, measure=measure))
        shares.append((1.0 - share, share))

    def model(results):
        split = [_stores_data_share(result, point.config)
                 for result, point in zip(results, points)]
        error = max(abs(got - want)
                    for got, want in zip(split[2:], FIG8_SHARES))
        return {"fcfs_stores_data_share_pct": (split[1] * 100, "%"),
                "vpc_share_error_pct": (error * 100, "%")}

    return Workload("fig8_dense", tuple(points), tuple(shares), model)


def solo_stall(seed: int, warmup: int = 40_000,
               measure: int = 100_000) -> Workload:
    points = tuple(_target(name, seed, warmup, measure) for name in SPEC_ORDER)
    return Workload("solo_stall", points, ((1.0,),) * len(points),
                    lambda results: {})


#: Workload name -> function of ``(seed, warmup=..., measure=...)``.
WORKLOADS = {
    "fig10_hetero": fig10_hetero,
    "fig8_dense": fig8_dense,
    "solo_stall": solo_stall,
    "fig10_observed": fig10_observed,
}
