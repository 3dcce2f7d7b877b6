"""The retired-read views: latency histograms and the request log.

Both are views on the lifecycle probe (:mod:`repro.telemetry.probe`),
handed each read as it retires.  :class:`LatencyHistograms`
(``--histograms``) bins each pipeline stage of every demand load into
power-of-two buckets.  It subsumes the list-building half of
``repro.analysis.latency`` — the same stage definitions
(``stage_latencies``) feed both — but with O(log max_latency) memory per
(thread, stage) population, so it can watch arbitrarily long runs.
:class:`RequestLog` (``record_requests``) keeps the stamped requests
that ``repro.analysis.latency`` reads.

Exact ``count`` / ``mean`` / ``max`` are maintained alongside the
buckets; percentiles are bucket-resolution approximations (reported as
the upper bound of the bucket containing the requested rank, i.e.
within 2x of the true value) and are printed with a ``~`` prefix to
distinguish them from the *exact* streaming quantiles that
``repro.telemetry.requests.StreamingLatencies`` computes from its
cycle-resolution counts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.latency import stage_latencies
from repro.common.records import MemoryRequest


class Histogram:
    """Power-of-two-bucket latency histogram (cycles)."""

    def __init__(self):
        self.count = 0
        self.total = 0
        self.maximum = 0
        self._buckets: Dict[int, int] = {}  # bit_length -> count

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        bucket = value.bit_length()
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` rank."""
        if not self.count:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.999999))
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                # bucket b holds values in [2**(b-1), 2**b - 1].
                return float(min(self.maximum, (1 << bucket) - 1))
        return float(self.maximum)

    def buckets(self) -> List[Tuple[int, int, int]]:
        """(low, high, count) rows, ascending, for reports/tests."""
        out = []
        for bucket in sorted(self._buckets):
            low = 0 if bucket == 0 else 1 << (bucket - 1)
            high = 0 if bucket == 0 else (1 << bucket) - 1
            out.append((low, high, self._buckets[bucket]))
        return out


class LatencyHistograms:
    """Bins every retired demand load by (thread, stage)."""

    def __init__(self):
        self.histograms: Dict[Tuple[int, str], Histogram] = {}

    def record(self, thread_id: int, request: MemoryRequest) -> None:
        """Bin one demand load, retired at its critical word."""
        for stage, latency in stage_latencies(request).items():
            key = (thread_id, stage)
            hist = self.histograms.get(key)
            if hist is None:
                hist = self.histograms[key] = Histogram()
            hist.record(latency)

    def histogram(self, thread_id: int, stage: str) -> Histogram:
        return self.histograms.get((thread_id, stage), Histogram())

    def threads(self) -> List[int]:
        return sorted({tid for tid, _ in self.histograms})

    def format_report(self) -> str:
        lines = [
            f"{'thread':>7} {'stage':>10} {'count':>7} {'mean':>8} "
            f"{'~p50':>7} {'~p95':>7} {'~p99':>7} {'max':>7}"
        ]
        for (tid, stage), hist in sorted(self.histograms.items()):
            lines.append(
                f"{tid:>7} {stage:>10} {hist.count:>7} {hist.mean:>8.1f} "
                f"{hist.percentile(0.50):>7.0f} "
                f"{hist.percentile(0.95):>7.0f} "
                f"{hist.percentile(0.99):>7.0f} {hist.maximum:>7}"
            )
        return "\n".join(lines)


class RequestLog:
    """Retired reads (demand and prefetch), in retirement order — bounded.

    Backs ``CMPSystem.request_log``: the analysis helpers
    (``repro.analysis.latency``) consume the stamped ``MemoryRequest``
    objects.  The log keeps the *first* ``capacity`` retirements (so
    results are identical to an unbounded list on any run that fits the
    bound) and counts the rest in ``dropped``.  Exact tail quantiles
    over every demand load come from request tracing
    (``repro.telemetry.requests``), not this log.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 0:
            raise ValueError("request-log capacity must be >= 0")
        self.capacity = capacity
        self.requests: List[MemoryRequest] = []
        self.dropped = 0

    def record(self, request: MemoryRequest) -> None:
        """Keep one retired read, or count it once the log is full."""
        if len(self.requests) < self.capacity:
            self.requests.append(request)
        else:
            self.dropped += 1
