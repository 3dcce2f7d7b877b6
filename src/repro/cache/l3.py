"""Optional shared L3 cache, "shared in a similar manner" (Section 1.1).

The paper notes the VPC structure applies unchanged to an L3: shared
bandwidth (here one arbitrated access port) and shared capacity (the
same quota replacement policy).  :class:`SharedL3` implements the exact
memory-side interface the L2 banks use (``can_accept_read`` /
``enqueue_read`` / ``enqueue_write`` / ``tick`` / ``busy``), so it
drops between the L2 and the memory controller without touching either.

Timing model: a unified tag+data access occupies the port for
``port_occupancy`` cycles and returns data after ``latency`` cycles; a
miss forwards to the backing memory and fills on return (dirty victims
write back).  The port is arbitrated by any
:class:`~repro.core.arbiter.Arbiter` — FCFS for a conventional L3, a
:class:`~repro.core.vpc_arbiter.VPCArbiter` for a virtual private L3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from repro.cache.cache_array import CacheArray
from repro.cache.replacement import ReplacementPolicy
from repro.common.latch import NEVER, VariableDelayQueue
from repro.common.stats import Counters, UtilizationMeter
from repro.core.arbiter import Arbiter, ArbiterEntry

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class L3Config:
    """Geometry and timing of the optional shared L3."""

    size_bytes: int = 64 * MIB
    ways: int = 32
    line_size: int = 64
    latency: int = 20            # access latency (tag + data, unified)
    port_occupancy: int = 10     # new access every `port_occupancy` cycles
    pending_per_thread: int = 16

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


@dataclass
class _L3Access:
    thread_id: int
    line: int
    notify: Optional[Callable[[int], None]]
    is_write: bool


_PORT_DONE = 0
_MEM_DATA = 1


class _MemDataCallback:
    """Memory-completion callback for one in-flight L3 miss; a
    module-level class (not a closure) so in-flight misses survive a
    checkpoint pickle (repro.resilience.snapshot)."""

    __slots__ = ("l3", "access")

    def __init__(self, l3: "SharedL3", access: "_L3Access") -> None:
        self.l3 = l3
        self.access = access

    def __call__(self, cycle: int) -> None:
        self.l3._events.push_at(cycle, (_MEM_DATA, self.access))


class SharedL3:
    """A shared L3 implementing the L2 banks' memory-side interface."""

    def __init__(
        self,
        config: L3Config,
        n_threads: int,
        arbiter: Arbiter,
        policy: ReplacementPolicy,
        memory,
    ) -> None:
        self.config = config
        self.n_threads = n_threads
        self.arbiter = arbiter
        self.memory = memory
        self.array = CacheArray(config.sets, config.ways, policy)
        self.port = UtilizationMeter("l3-port")
        self.counters = Counters()
        self._events: VariableDelayQueue = VariableDelayQueue()
        self._pending_count = [0] * n_threads
        self._mem_wait: Deque[_L3Access] = deque()
        self._wb_wait: Deque[Tuple[int, int]] = deque()  # (thread, victim line)
        # Lifecycle probe (repro.telemetry.probe): None = disabled =
        # free.  The port arbiter's enqueues and grants feed the
        # arbiter-level views; the port is not a lifecycle stage.
        self._probe = None

    # ------------------------------------------------------------------ #
    # Memory-side interface (what the L2 banks call).
    # ------------------------------------------------------------------ #

    def can_accept_read(self, thread_id: int) -> bool:
        return self._pending_count[thread_id] < self.config.pending_per_thread

    def can_accept_write(self, thread_id: int) -> bool:
        return self._pending_count[thread_id] < self.config.pending_per_thread

    def enqueue_read(
        self, thread_id: int, line: int,
        notify: Callable[[int], None], now: int, tracked: bool = False,
    ) -> None:
        # ``tracked`` (the lifecycle probe) is accepted for interface
        # parity with the memory controller and ignored: with an L3
        # configured, all below-L2 time is one dram_queue stage.
        self._admit(_L3Access(thread_id, line, notify, False), now)

    def enqueue_write(self, thread_id: int, line: int, now: int) -> None:
        self._admit(_L3Access(thread_id, line, None, True), now)

    def _admit(self, access: _L3Access, now: int) -> None:
        if self._pending_count[access.thread_id] >= self.config.pending_per_thread:
            raise RuntimeError("L3 admission without a capacity check")
        self._pending_count[access.thread_id] += 1
        self.arbiter.enqueue(
            ArbiterEntry(
                thread_id=access.thread_id,
                payload=access,
                is_write=access.is_write,
            ),
            now,
        )
        if self._probe is not None:
            tid = access.thread_id
            self._probe.arbiter_enqueued(self.arbiter.trace_name, tid, now,
                                         self.arbiter.pending_for(tid))

    # ------------------------------------------------------------------ #
    # Per-cycle advance.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        for kind, payload in self._events.pop_ready(now):
            if kind == _PORT_DONE:
                self._port_done(payload, now)
            else:
                self._memory_data(payload, now)
        self._drain_writebacks(now)
        if self.port.is_free(now) and len(self.arbiter):
            entry = self.arbiter.select(now)
            if entry is not None:
                if self._probe is not None:
                    self._report_grant(entry, now)
                self.port.mark_busy(now, self.config.port_occupancy)
                self._events.push_at(
                    now + self.config.latency, (_PORT_DONE, entry.payload)
                )

    def _report_grant(self, entry: ArbiterEntry, now: int) -> None:
        """Tell the probe the port arbiter granted ``entry``."""
        arbiter = self.arbiter
        tid = entry.thread_id
        self._probe.arbiter_granted(
            arbiter.trace_name, tid, now,
            entry.service_quanta * arbiter.service_latency,
            arbiter.pending_for(tid))

    def _port_done(self, access: _L3Access, now: int) -> None:
        hit = self.array.lookup(access.line)
        if access.is_write:
            # Writeback from the L2: install (write-allocate) and dirty.
            self.counters.add("write_hits" if hit else "write_misses")
            if not hit:
                self._install(access.line, access.thread_id)
            self.array.set_dirty(access.line)
            self._finish(access, now)
            return
        if hit:
            self.counters.add("read_hits")
            access.notify(now)
            self._finish(access, now)
            return
        self.counters.add("read_misses")
        if self.memory.can_accept_read(access.thread_id):
            self._forward_to_memory(access, now)
        else:
            self._mem_wait.append(access)

    def _forward_to_memory(self, access: _L3Access, now: int) -> None:
        self.memory.enqueue_read(access.thread_id, access.line,
                                 _MemDataCallback(self, access), now)

    def _memory_data(self, access: _L3Access, now: int) -> None:
        self._install(access.line, access.thread_id)
        self.counters.add("fills")
        access.notify(now)
        self._finish(access, now)

    def _install(self, line: int, thread_id: int) -> None:
        eviction = self.array.insert(line, thread_id)
        if eviction.victim_dirty:
            self.counters.add("writebacks")
            self._wb_wait.append((thread_id, eviction.victim_line))

    def _drain_writebacks(self, now: int) -> None:
        while self._mem_wait and self.memory.can_accept_read(
            self._mem_wait[0].thread_id
        ):
            self._forward_to_memory(self._mem_wait.popleft(), now)
        while self._wb_wait:
            thread_id, line = self._wb_wait[0]
            if not self.memory.can_accept_write(thread_id):
                break
            self._wb_wait.popleft()
            self.memory.enqueue_write(thread_id, line, now)

    def _finish(self, access: _L3Access, now: int) -> None:
        self._pending_count[access.thread_id] -= 1

    def busy(self) -> bool:
        return bool(
            len(self._events) or len(self.arbiter) or self._mem_wait
            or self._wb_wait or any(self._pending_count)
        )

    def next_event(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``tick`` could change state.

        Exact for the skipped cycles: the port arbiter's ``select`` is
        only invoked while the port meter is free, so jumping to
        ``busy_until`` drops no arbitration decisions.
        """
        if self._mem_wait or self._wb_wait:
            return now  # retried against the memory interface every cycle
        nxt = NEVER
        head = self._events.next_ready_cycle()
        if head >= 0:
            nxt = max(now, head)
        if len(self.arbiter):
            nxt = min(nxt, max(now, self.port.busy_until))
        return nxt

    def utilization(self, cycles: int, since_busy: int = 0) -> float:
        return self.port.utilization(cycles, since_busy)

