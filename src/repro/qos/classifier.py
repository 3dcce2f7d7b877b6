"""Online thread classification from windowed L2-level signals.

The LFOC policy family (PAPERS.md) starts from a coarse taxonomy of how
a thread uses the shared cache:

* **streaming** — miss-dominated traffic: the thread touches the L2
  hard but its lines see no reuse, so cache capacity is wasted on it;
* **cache-hungry** — L2-resident reuse: the thread's working set fits a
  cache share and its performance tracks how many ways it holds;
* **light** — the thread barely touches the L2 at all (its working set
  lives in the L1 or it is compute-bound).

Signals come from the epoch deltas of the run's per-thread load
counters (``CMPSystem.load_totals``) plus the driver's gauge pulls: L2
load intensity (loads per kilocycle), a miss-rate estimate derived from
mean L2 load latency (an L2 hit costs tens of cycles, a DRAM miss well
over a hundred — the same signal a hit/miss-counter register would
give, available without new hardware counters), per-thread way
occupancy, IPC, and — when solo baselines are known — slowdown.

Labels feed allocation decisions, so they must not flap when a thread
sits on a threshold: a *raw* label must persist for ``hysteresis``
consecutive epochs before the committed label switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

LABEL_STREAMING = "streaming"
LABEL_HUNGRY = "cache-hungry"
LABEL_LIGHT = "light"
LABELS = (LABEL_STREAMING, LABEL_HUNGRY, LABEL_LIGHT)


@dataclass
class EpochSignals:
    """Per-thread observations over one controller epoch."""

    cycle: int                       # epoch-end cycle
    cycles: int                      # epoch length actually observed
    ipcs: List[float]
    loads: List[int]                 # L2 loads retired this epoch
    load_latency: List[int]          # their summed latencies (cycles)
    ways: List[int]                  # L2 way occupancy at epoch end
    slowdowns: Optional[List[float]] = None   # solo/observed, if known

    def intensity(self, tid: int) -> float:
        """L2 loads per kilocycle."""
        if self.cycles <= 0:
            return 0.0
        return 1000.0 * self.loads[tid] / self.cycles

    def mean_latency(self, tid: int) -> float:
        if not self.loads[tid]:
            return 0.0
        return self.load_latency[tid] / self.loads[tid]


@dataclass
class ThreadClassifier:
    """Hysteresis-damped streaming / cache-hungry / light labelling.

    ``light_intensity`` is the L2-loads-per-kilocycle floor below which
    a thread is light regardless of latency; ``hit_latency`` /
    ``miss_latency`` anchor the latency-to-miss-rate estimate; a thread
    whose estimated miss rate reaches ``streaming_miss_rate`` is
    streaming; everything else is cache-hungry.  A raw label only
    becomes the committed label after ``hysteresis`` consecutive epochs.
    """

    # Defaults are calibrated on the baseline 4-thread configuration
    # (see tests/test_qos_control.py): under contention even an L2 hit
    # costs tens of cycles of queueing, so the anchors sit well above
    # the raw array latencies — they discriminate *relative* latency
    # (reuse captured by the L2 vs. DRAM-bound traffic), which is what
    # the taxonomy needs.
    n_threads: int
    light_intensity: float = 8.0
    streaming_miss_rate: float = 0.5
    hit_latency: float = 60.0
    miss_latency: float = 220.0
    hysteresis: int = 2
    labels: List[Optional[str]] = field(init=False)
    _pending: List[Optional[str]] = field(init=False, repr=False)
    _streak: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("need at least one thread")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1 epoch")
        if not self.hit_latency < self.miss_latency:
            raise ValueError("hit latency must undercut miss latency")
        self.labels = [None] * self.n_threads
        self._pending = [None] * self.n_threads
        self._streak = [0] * self.n_threads

    def miss_rate_estimate(self, signals: EpochSignals, tid: int) -> float:
        """Fraction of this thread's L2 loads estimated to miss,
        interpolated from its mean load latency."""
        if not signals.loads[tid]:
            return 0.0
        span = self.miss_latency - self.hit_latency
        estimate = (signals.mean_latency(tid) - self.hit_latency) / span
        return min(1.0, max(0.0, estimate))

    def raw_label(self, signals: EpochSignals, tid: int) -> str:
        """The taxonomy rule, before hysteresis."""
        if signals.intensity(tid) < self.light_intensity:
            return LABEL_LIGHT
        if self.miss_rate_estimate(signals, tid) >= self.streaming_miss_rate:
            return LABEL_STREAMING
        return LABEL_HUNGRY

    def classify(self, signals: EpochSignals) -> List[str]:
        """Update and return the committed per-thread labels."""
        for tid in range(self.n_threads):
            raw = self.raw_label(signals, tid)
            if self.labels[tid] is None:
                # First observation commits immediately; there is no
                # prior label to protect.
                self.labels[tid] = raw
                continue
            if raw == self.labels[tid]:
                self._pending[tid] = None
                self._streak[tid] = 0
            elif raw == self._pending[tid]:
                self._streak[tid] += 1
                if self._streak[tid] >= self.hysteresis:
                    self.labels[tid] = raw
                    self._pending[tid] = None
                    self._streak[tid] = 0
            else:
                self._pending[tid] = raw
                self._streak[tid] = 1
        return list(self.labels)
