"""Host-speed sampling: the benchmark's yardstick for a noisy shared host.

On a shared machine the speed of one core drifts by tens of percent
over minutes, and drops by up to 2x in episodes of a fraction of a
second to a few seconds, as other tenants load the host.  That moves
every host time the benchmark reports.  The yardstick is a fixed
pure-Python probe shaped like the simulator's hot path (slotted
objects, deque queues, a heap of timed events, dict counters) and
independent of the program, so a change to ``src/`` cannot move it.

:class:`Sampler` runs a short probe every :data:`INTERVAL_S` while a
timed block runs, from a ``SIGALRM`` handler between bytecodes of the
main thread, and once more when the block ends.  The block's host time
minus the time spent sampling, scaled by :data:`REFERENCE_S` over the
mean sample, is its time in **reference seconds**: seconds on a host
where one sample takes :data:`REFERENCE_S`.  A slowdown that hits probe
and simulator alike cancels out, even when it lasts less than a point.
Sampling costs about 3 % of the host time, which is subtracted.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from collections import deque
from typing import Callable, List, Optional

#: Cycles of one sample (about 1.2 ms).
SAMPLE_CYCLES = 1200
#: Sample time defining a "reference second": about one sample on an
#: unloaded 2-vCPU Xeon container under CPython 3.11.
REFERENCE_S = 0.00121
#: Seconds between samples while a block runs.
INTERVAL_S = 0.05


class _Unit:
    __slots__ = ("busy_until", "queue", "served", "waited")

    def __init__(self) -> None:
        self.busy_until = 0
        self.queue: deque = deque()
        self.served = 0
        self.waited = 0

    def offer(self, now: int, item: int) -> None:
        self.queue.append((now, item))

    def tick(self, now: int, events: list) -> None:
        if self.busy_until <= now and self.queue:
            issued, item = self.queue.popleft()
            self.busy_until = now + 1 + (item & 7)
            self.served += 1
            self.waited += now - issued
            heapq.heappush(events, (self.busy_until, item))


def _workload(cycles: int) -> int:
    units = [_Unit() for _ in range(4)]
    events: list = []
    lines: dict = {}
    x = 12345
    for now in range(cycles):
        for unit in units:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x & 3 == 0:
                unit.offer(now, x >> 8)
            unit.tick(now, events)
        while events and events[0][0] <= now:
            item = heapq.heappop(events)[1]
            lines[item & 1023] = lines.get(item & 1023, 0) + 1
    return sum(unit.served for unit in units) + len(lines)


def sample_s() -> float:
    """Seconds one sample takes on this host right now.

    The garbage collector is off while the sample runs.  A collection
    would walk every object the simulator left alive, so it would time
    the caller's heap, not the host: with it on, samples read anywhere
    from 1x to 5x their usual time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _workload(SAMPLE_CYCLES)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


#: The sampler whose block is running, if any.
_active: Optional["Sampler"] = None


def _on_alarm(signum, frame) -> None:
    # Stays installed: an alarm still pending when a block ends finds no
    # active sampler and does nothing.
    if _active is not None:
        _active._sample()


class Sampler:
    """Times a block in host and reference seconds::

        with Sampler() as block:
            work()
        block.host_s, block.reference_s

    ``on_sample(seconds)`` is called with each sample's duration taken
    inside the block, so a caller timing the same code can leave it out.
    Blocks do not nest.
    """

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None):
        self.on_sample = on_sample
        self.samples: List[float] = []
        self.sampling_s = 0.0
        self.host_s = 0.0
        self._busy = False
        self._start = 0.0

    def _sample(self) -> None:
        if self._busy:  # the host is so slow that alarms overlap
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(sample_s())
        took = time.perf_counter() - start
        self.sampling_s += took
        if self.on_sample is not None:
            self.on_sample(took)
        self._busy = False

    def __enter__(self) -> "Sampler":
        global _active
        _active = self
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        _active = None
        self.host_s = time.perf_counter() - self._start - self.sampling_s
        self.samples.append(sample_s())

    @property
    def reference_s(self) -> float:
        mean = sum(self.samples) / len(self.samples)
        return self.host_s * REFERENCE_S / mean
