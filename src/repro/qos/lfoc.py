"""LFOC-style clustering allocation over the classifier taxonomy.

LFOC ("Lightweight Fair Optimal Clustering", PAPERS.md) observes that
near-optimal shared-cache partitions need only a coarse grouping of
threads: *streaming* threads gain nothing from capacity, *light*
threads need almost none, and the remaining *cache-hungry* threads are
the only ones worth dividing the cache between.  This controller maps
that insight onto the VPC register file each epoch:

* **capacity (beta)** — streaming and light threads are each pinned to
  a single way (the minimum that keeps their guarantee non-zero and
  their lines from thrashing everyone else's); the ways left over are
  split evenly among the cache-hungry cluster.  With no hungry threads
  the split is simply even.
* **bandwidth (phi)** — the fair-queuing arbiters are work-conserving,
  so phi mostly sets *insulation* rather than throughput; the policy
  keeps shares near-equal but shaves ``streaming_phi_scale`` off each
  streaming thread (they are bandwidth-elastic: their progress is
  DRAM-bound, not L2-slot-bound) and redistributes the shavings to the
  cache-hungry cluster, whose loads are latency-critical.

Decisions are only reprogrammed when the committed labels change, so
the hysteresis in :class:`~repro.qos.classifier.ThreadClassifier`
directly bounds the register-write rate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.qos.classifier import (
    LABEL_HUNGRY,
    LABEL_LIGHT,
    LABEL_STREAMING,
    EpochSignals,
)
from repro.qos.controller import QoSController


class LFOCController(QoSController):
    """Cluster threads by label; program per-cluster quotas + shares."""

    name = "lfoc"
    streaming_phi_scale = 0.85

    def __init__(
        self,
        n_threads: int,
        epoch_cycles: int = 5_000,
        baseline_ipcs: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(n_threads, epoch_cycles, baseline_ipcs)
        self.ways = 0  # bound at attach time
        self._programmed_labels: Optional[List[str]] = None

    def attach(self, system) -> "LFOCController":
        super().attach(system)
        self.ways = system.config.l2.ways
        if self.ways < self.n_threads:
            raise ValueError(
                f"LFOC clustering needs >= 1 way per thread "
                f"({self.n_threads} threads, {self.ways} ways)"
            )
        return self

    # ------------------------------------------------------------------ #
    # Cluster allocation.
    # ------------------------------------------------------------------ #

    def cluster_capacity(self, labels: List[str]) -> List[float]:
        """Per-thread beta as exact way multiples (``k / ways``)."""
        hungry = [t for t, label in enumerate(labels)
                  if label == LABEL_HUNGRY]
        if not hungry:
            return [1.0 / self.n_threads] * self.n_threads
        way_counts = [1] * self.n_threads  # streaming/light floor
        remaining = self.ways - (self.n_threads - len(hungry))
        per_hungry = remaining // len(hungry)
        for tid in hungry:
            way_counts[tid] = per_hungry
        # Leftover ways (remainder of the even split) stay unallocated —
        # the capacity manager treats them as excess, same as the
        # paper's fractional-quota remainders.
        return [count / self.ways for count in way_counts]

    def cluster_bandwidth(self, labels: List[str]) -> List[float]:
        equal = 1.0 / self.n_threads
        phi = [equal] * self.n_threads
        streaming = [t for t, label in enumerate(labels)
                     if label == LABEL_STREAMING]
        hungry = [t for t, label in enumerate(labels)
                  if label == LABEL_HUNGRY]
        if streaming and hungry:
            shaved = equal * (1.0 - self.streaming_phi_scale)
            bonus = shaved * len(streaming) / len(hungry)
            for tid in streaming:
                phi[tid] = equal - shaved
            for tid in hungry:
                phi[tid] = equal + bonus
        return phi

    def decide(
        self, signals: EpochSignals, labels: List[str]
    ) -> Optional[Tuple[List[float], List[float]]]:
        if labels == self._programmed_labels:
            return None  # clusters unchanged; keep the allocation
        self._programmed_labels = list(labels)
        return self.cluster_bandwidth(labels), self.cluster_capacity(labels)


# Re-exported label names so policy users need not import the classifier.
__all__ = [
    "LFOCController",
    "LABEL_HUNGRY",
    "LABEL_LIGHT",
    "LABEL_STREAMING",
]
