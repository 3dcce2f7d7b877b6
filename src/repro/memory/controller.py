"""On-chip memory controller: private per-thread channels or one shared
fair-queued channel.

Table 1 (the paper's isolation setup): "1 channel per thread ... 16
transaction buffer entries per thread, 8 write buffer entries per
thread, closed page policy".  The paper interleaves requests across
channels by physical-address bits and controls the virtual-to-physical
mapping so each thread's traffic lands on its own channel; we get the
same isolation by construction — thread *i*'s requests go to channel
*i*.

With ``MemoryConfig.sharing == "shared"`` the controller instead drives
a single :class:`~repro.memory.fq_scheduler.SharedDRAMChannel`, the VPM
framework's memory-bandwidth component (FQ or FCFS scheduling).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.common.config import MemoryConfig
from repro.common.latch import NEVER
from repro.memory.dram import DRAMChannel
from repro.memory.fq_scheduler import SharedDRAMChannel


class _DelayedNotify:
    """Completion callback that adds the controller's fixed overhead.

    A module-level class (not a closure) so in-flight DRAM reads —
    which hold these callbacks in their pending entries — survive a
    checkpoint pickle (repro.resilience.snapshot).
    """

    __slots__ = ("notify", "overhead")

    def __init__(self, notify: Callable[[int], None], overhead: int) -> None:
        self.notify = notify
        self.overhead = overhead

    def __call__(self, data_cycle: int) -> None:
        self.notify(data_cycle + self.overhead)


class MemoryController:
    """Routes L2 miss/writeback traffic to DRAM channels."""

    def __init__(
        self,
        config: MemoryConfig,
        n_threads: int,
        shares: Optional[Sequence[float]] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        if config.sharing not in ("private", "shared"):
            raise ValueError(f"unknown memory sharing mode {config.sharing!r}")
        self.config = config
        self.n_threads = n_threads
        # A fixed on-chip traversal cost each way (controller queues,
        # request/response wiring) on top of DRAM timing.
        self.overhead_cycles = 4

        self._shared: Optional[SharedDRAMChannel] = None
        if config.sharing == "shared":
            self._shared = SharedDRAMChannel(
                config, n_threads, policy=config.shared_scheduler,
                shares=shares,
            )
            self.channels: List = [self._shared]
        else:
            per_thread = config.channels_per_thread
            self.channels = [
                DRAMChannel(config, thread_id=index // per_thread)
                for index in range(n_threads * per_thread)
            ]
            for index, channel in enumerate(self.channels):
                channel.trace_name = f"dram.ch{index}"

    def _channel(self, thread_id: int) -> DRAMChannel:
        if not 0 <= thread_id < self.n_threads:
            raise ValueError(f"thread {thread_id} out of range")
        return self.channels[thread_id * self.config.channels_per_thread]

    def can_accept_read(self, thread_id: int) -> bool:
        if self._shared is not None:
            return self._shared.can_accept_read(thread_id)
        return self._channel(thread_id).can_accept_read()

    def can_accept_write(self, thread_id: int) -> bool:
        if self._shared is not None:
            return self._shared.can_accept_write(thread_id)
        return self._channel(thread_id).can_accept_write()

    def enqueue_read(
        self,
        thread_id: int,
        line: int,
        notify: Callable[[int], None],
        now: int,
        tracked: bool = False,
    ) -> None:
        overhead = self.overhead_cycles
        delayed_notify = _DelayedNotify(notify, overhead)
        if self._shared is not None:
            self._shared.enqueue_read(thread_id, line, delayed_notify,
                                      now + overhead, tracked=tracked)
        else:
            self._channel(thread_id).enqueue_read(
                line, delayed_notify, now + overhead, tracked=tracked
            )

    def enqueue_write(self, thread_id: int, line: int, now: int) -> None:
        if self._shared is not None:
            self._shared.enqueue_write(thread_id, line, now + self.overhead_cycles)
        else:
            self._channel(thread_id).enqueue_write(line, now + self.overhead_cycles)

    def tick(self, now: int) -> None:
        for channel in self.channels:
            if channel.pending:
                channel.tick(now)

    def busy(self) -> bool:
        return any(channel.pending for channel in self.channels)

    def next_event(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which any channel could issue."""
        nxt = NEVER
        for channel in self.channels:
            if channel.pending:
                ready = channel.next_event(now)
                if ready <= now:
                    return now
                if ready < nxt:
                    nxt = ready
        return nxt

    def idle_read_latency(self) -> int:
        """Unloaded L2-miss DRAM latency in processor cycles."""
        return self.channels[0].idle_latency() + 2 * self.overhead_cycles
