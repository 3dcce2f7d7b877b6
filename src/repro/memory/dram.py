"""DDR2-800 channel timing model, closed-page policy (paper Table 1).

Each channel has ``ranks * banks`` DRAM banks and one shared data bus.
Closed-page means every access pays the full activate -> column ->
precharge sequence; the model tracks per-bank availability and data-bus
occupancy, which yields realistic bank-level parallelism and queueing
under bursts without simulating individual DRAM commands.

The paper gives each thread a *private* channel (isolating cache-sharing
effects), so no inter-thread scheduling policy is needed here — reads
are simply prioritized over writes within a channel, FCFS within class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.common.config import MemoryConfig
from repro.common.latch import NEVER


@dataclass
class _PendingAccess:
    line: int
    notify: Optional[Callable[[int], None]]   # called with data-return cycle
    enqueued: int
    tracked: bool = False  # a read the lifecycle probe follows (probe.py)


class DRAMChannel:
    """One private DDR2 channel with banked timing."""

    def __init__(self, config: MemoryConfig, thread_id: int = -1) -> None:
        self.config = config
        # The private channel's owning thread (set by the controller).
        self.thread_id = thread_id
        self.n_banks = config.ranks_per_channel * config.banks_per_rank
        self._bank_free = [0] * self.n_banks
        self._bus_free = 0
        self._reads: Deque[_PendingAccess] = deque()
        self._writes: Deque[_PendingAccess] = deque()
        self.reads_done = 0
        self.writes_done = 0
        self.bus_busy_cycles = 0
        self.trace_name = "dram"
        # Lifecycle probe (repro.telemetry.probe): None = disabled = free.
        self._probe = None

    # ------------------------------------------------------------------ #
    # Admission (capacity checks model the controller's buffers).
    # ------------------------------------------------------------------ #

    def can_accept_read(self) -> bool:
        return len(self._reads) < self.config.transaction_buffer

    def can_accept_write(self) -> bool:
        return len(self._writes) < self.config.write_buffer

    def enqueue_read(
        self, line: int, notify: Callable[[int], None], now: int,
        tracked: bool = False,
    ) -> None:
        if not self.can_accept_read():
            raise RuntimeError("read enqueued on a full transaction buffer")
        self._reads.append(_PendingAccess(line, notify, now, tracked))

    def enqueue_write(self, line: int, now: int) -> None:
        if not self.can_accept_write():
            raise RuntimeError("write enqueued on a full write buffer")
        self._writes.append(_PendingAccess(line, None, now))

    # ------------------------------------------------------------------ #
    # Per-cycle issue (at most one command start per processor cycle —
    # far below the DRAM command-bus limit, so never the bottleneck).
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        # Reads before writes; within a class, the oldest request whose
        # DRAM bank is available issues first (bank-level parallelism).
        for index, access in enumerate(self._reads):
            if self._try_issue(access, now, is_write=False):
                del self._reads[index]
                self.reads_done += 1
                return
        for index, access in enumerate(self._writes):
            if self._try_issue(access, now, is_write=True):
                del self._writes[index]
                self.writes_done += 1
                return

    def _bank_of(self, line: int) -> int:
        return line % self.n_banks

    def _try_issue(self, access: _PendingAccess, now: int, is_write: bool) -> bool:
        if access.enqueued > now:
            return False  # still in flight to the controller
        bank = self._bank_of(access.line)
        if self._bank_free[bank] > now:
            return False
        cfg = self.config
        d = cfg.clock_divider
        column_delay = (cfg.t_rcd + (cfg.t_wl if is_write else cfg.t_cl)) * d
        data_start = max(now + column_delay, self._bus_free)
        data_end = data_start + cfg.burst_cycles * d
        self._bank_free[bank] = data_end + cfg.t_rp * d
        self._bus_free = data_end
        self.bus_busy_cycles += cfg.burst_cycles * d
        if self._probe is not None:
            self._probe.dram_issued(self.trace_name, self.thread_id,
                                    access.line, is_write, bank,
                                    access.tracked, data_start,
                                    cfg.burst_cycles * d, now)
        if access.notify is not None:
            access.notify(data_end)
        return True

    @property
    def pending(self) -> int:
        return len(self._reads) + len(self._writes)

    def next_event(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which an access could issue.

        An access is issuable once it has arrived (``enqueued``) and its
        DRAM bank is free; ``_try_issue`` mutates nothing on failure, so
        cycles before this bound are provable no-ops.
        """
        nxt = NEVER
        bank_free = self._bank_free
        n_banks = self.n_banks
        for queue in (self._reads, self._writes):
            for access in queue:
                ready = bank_free[access.line % n_banks]
                if ready < access.enqueued:
                    ready = access.enqueued
                if ready <= now:
                    return now
                if ready < nxt:
                    nxt = ready
        return nxt

    def idle_latency(self) -> int:
        """Unloaded read latency in processor cycles (for tests/docs)."""
        cfg = self.config
        return (cfg.t_rcd + cfg.t_cl + cfg.burst_cycles) * cfg.clock_divider
