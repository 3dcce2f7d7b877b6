"""Shared DRAM channel with a fair-queuing scheduler.

The paper's VPM framework (Section 1.1, Figure 1) covers *all* shared
memory-system resources; the cache experiments isolate cache effects by
giving threads private channels, but the framework's memory-bandwidth
component is the FQ memory controller of Nesbit et al. [18] that
Section 2.1 builds on.  This module provides that substrate: a single
DDR2 channel shared by every thread, scheduled either

* ``"fcfs"`` — conventional first-come first-serve (reads before
  writes), the interference-prone baseline; or
* ``"fq"``   — per-thread queues with virtual start/finish times (the
  same Eqs. 1-2 algebra as the VPC arbiters, service time = one line
  transfer), earliest-virtual-finish-first across threads.

It exposes the same interface as :class:`repro.memory.dram.DRAMChannel`
plus a ``thread_id`` on each enqueue, so the controller can swap it in
when ``MemoryConfig.sharing == "shared"``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from repro.common.config import MemoryConfig
from repro.common.latch import NEVER
from repro.telemetry.events import CAT_DRAM, PH_COMPLETE, TraceEvent


@dataclass
class _PendingAccess:
    thread_id: int
    line: int
    notify: Optional[Callable[[int], None]]
    enqueued: int
    is_write: bool
    tracked: bool = False  # a read the lifecycle probe follows (probe.py)


class SharedDRAMChannel:
    """One DDR2 channel multiplexed across threads."""

    def __init__(
        self,
        config: MemoryConfig,
        n_threads: int,
        policy: str = "fq",
        shares: Optional[Sequence[float]] = None,
    ) -> None:
        if policy not in ("fq", "fcfs"):
            raise ValueError(f"unknown shared-channel policy {policy!r}")
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.config = config
        self.policy = policy
        self.n_threads = n_threads
        if shares is None:
            shares = [1.0 / n_threads] * n_threads
        if len(shares) != n_threads:
            raise ValueError("one share per thread required")
        if sum(shares) > 1.0 + 1e-9 or any(s < 0 for s in shares):
            raise ValueError(f"infeasible channel shares: {list(shares)}")
        self.shares = list(shares)

        self.n_banks = config.ranks_per_channel * config.banks_per_rank
        self._bank_free = [0] * self.n_banks
        self._bus_free = 0
        self._queues: List[Deque[_PendingAccess]] = [
            deque() for _ in range(n_threads)
        ]
        # Virtual-time registers, one per thread (R.S analogue).  The
        # service quantum is one line transfer on the channel data bus.
        self._service_time = config.burst_cycles * config.clock_divider
        self._r_s = [0.0] * n_threads
        self.reads_done = 0
        self.writes_done = 0
        self.service_granted = [0] * n_threads
        # Telemetry (repro.telemetry): None = disabled = free.
        self._trace = None
        self.trace_name = "dram.shared"
        # Lifecycle probe (repro.telemetry.probe); the shared channel
        # charges each access to its own thread.
        self._probe = None

    # ------------------------------------------------------------------ #
    # Admission: the per-thread transaction/write buffers still apply.
    # ------------------------------------------------------------------ #

    def _counts(self, thread_id: int):
        reads = sum(1 for a in self._queues[thread_id] if not a.is_write)
        writes = len(self._queues[thread_id]) - reads
        return reads, writes

    def can_accept_read(self, thread_id: int) -> bool:
        return self._counts(thread_id)[0] < self.config.transaction_buffer

    def can_accept_write(self, thread_id: int) -> bool:
        return self._counts(thread_id)[1] < self.config.write_buffer

    def enqueue_read(
        self, thread_id: int, line: int, notify: Callable[[int], None],
        now: int, tracked: bool = False,
    ) -> None:
        self._admit(thread_id, line, notify, now, is_write=False,
                    tracked=tracked)

    def enqueue_write(self, thread_id: int, line: int, now: int) -> None:
        self._admit(thread_id, line, None, now, is_write=True)

    def _admit(self, thread_id, line, notify, now, is_write,
               tracked=False) -> None:
        if not 0 <= thread_id < self.n_threads:
            raise ValueError(f"thread {thread_id} out of range")
        queue = self._queues[thread_id]
        if not queue and self._r_s[thread_id] <= now:
            self._r_s[thread_id] = float(now)  # Eq. 6 analogue
        queue.append(
            _PendingAccess(thread_id, line, notify, now, is_write, tracked)
        )

    # ------------------------------------------------------------------ #
    # Scheduling.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        chosen = self._select(now)
        if chosen is None:
            return
        thread_id, index = chosen
        access = self._queues[thread_id][index]
        if not self._try_issue(access, now):
            return
        del self._queues[thread_id][index]
        if access.is_write:
            self.writes_done += 1
        else:
            self.reads_done += 1
        if self.shares[thread_id] > 0:
            self._r_s[thread_id] = max(self._r_s[thread_id], float(now)) + \
                self._service_time / self.shares[thread_id]
        self.service_granted[thread_id] += self._service_time

    def _select(self, now: int):
        """Pick (thread, queue index) of the next issuable access."""
        if self.policy == "fcfs":
            best = None
            best_key = (1, math.inf)  # (is_write, enqueue time): reads first
            for tid, queue in enumerate(self._queues):
                for index, access in enumerate(queue):
                    if not self._issuable(access, now):
                        continue
                    key = (1 if access.is_write else 0, access.enqueued)
                    if key < best_key:
                        best_key = key
                        best = (tid, index)
            return best
        # FQ: earliest virtual finish among threads with issuable work;
        # within a thread, reads before writes (intra-thread reordering,
        # legal for the same reason as in the VPC arbiter).
        best = None
        best_finish = math.inf
        for tid, queue in enumerate(self._queues):
            index = self._intra_thread_pick(queue, now)
            if index is None:
                continue
            share = self.shares[tid]
            finish = (
                self._r_s[tid] + self._service_time / share
                if share > 0 else math.inf
            )
            tie_break = queue[index].enqueued
            key = (finish, tie_break)
            if best is None or key < (best_finish, best_tie):
                best = (tid, index)
                best_finish, best_tie = key
        return best

    def _intra_thread_pick(self, queue, now) -> Optional[int]:
        fallback = None
        for index, access in enumerate(queue):
            if not self._issuable(access, now):
                continue
            if not access.is_write:
                return index
            if fallback is None:
                fallback = index
        return fallback

    def _issuable(self, access: _PendingAccess, now: int) -> bool:
        if access.enqueued > now:
            return False
        return self._bank_free[access.line % self.n_banks] <= now

    def _try_issue(self, access: _PendingAccess, now: int) -> bool:
        if not self._issuable(access, now):
            return False
        cfg = self.config
        d = cfg.clock_divider
        column = (cfg.t_rcd + (cfg.t_wl if access.is_write else cfg.t_cl)) * d
        data_start = max(now + column, self._bus_free)
        data_end = data_start + cfg.burst_cycles * d
        self._bank_free[access.line % self.n_banks] = data_end + cfg.t_rp * d
        self._bus_free = data_end
        if self._trace is not None:
            self._trace.emit(TraceEvent(
                ts=data_start, phase=PH_COMPLETE, category=CAT_DRAM,
                name="write" if access.is_write else "read",
                track=self.trace_name, tid=access.thread_id,
                dur=cfg.burst_cycles * d,
                args={"line": access.line},
            ))
        if self._probe is not None:
            self._probe.dram_issued(self.trace_name, access.thread_id,
                                    access.line, access.tracked, data_start,
                                    cfg.burst_cycles * d, now)
        if access.notify is not None:
            access.notify(data_end)
        return True

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def next_event(self, now: int) -> int:
        """Earliest cycle >= ``now`` with an issuable access (see
        :meth:`repro.memory.dram.DRAMChannel.next_event`); ``_select``
        and ``_try_issue`` mutate nothing while nothing is issuable."""
        nxt = NEVER
        bank_free = self._bank_free
        n_banks = self.n_banks
        for queue in self._queues:
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
        cfg = self.config
        return (cfg.t_rcd + cfg.t_cl + cfg.burst_cycles) * cfg.clock_divider
