"""One shared L2 cache bank (paper Figure 2b).

The bank contains, per thread: a store gathering buffer and an input
load queue; and shared: cache-controller state machines (8 per thread),
the tag array, the data array, and the bank data bus.  Each shared
resource has an arbiter (FCFS, RoW-FCFS, or VPC — injected by the L2).

Request flows (timings from Table 1, processor cycles):

* read hit:   tag(4) -> data array(8) -> data bus(8/line, critical word
  after the first 2-cycle beat) -> response to core.
* read miss:  tag(4) -> DRAM -> data bus(8, from-memory path; the bus
  arbiter resolves collisions with array data) -> fill: tag update(4),
  [victim writeback read(8) if dirty], line install write(8).
* write hit:  tag(4) -> data array write(16 — two back-to-back ECC
  accesses, modelled as service_quanta=2) -> line dirty.
* write miss: tag(4) -> DRAM fetch -> fill tag(4) -> [writeback read]
  -> fill-and-merge write(16) -> dirty.

All internal accesses (fill tag updates, fill writes, writeback reads)
go through the same arbiters, charged to the thread that caused them —
a missing thread spends its own bandwidth allocation on its fills, which
is what lets the VPC bandwidth guarantee hold under miss-heavy threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum, auto
from typing import Callable, Deque, Dict, List, Optional

from repro.cache.cache_array import CacheArray, Eviction
from repro.cache.store_gather import StoreGatherBuffer
from repro.common.config import L2Config
from repro.common.latch import VariableDelayQueue
from repro.common.records import AccessType, MemoryRequest
from repro.common.stats import Counters, UtilizationMeter
from repro.core.arbiter import Arbiter, ArbiterEntry


class SMState(IntEnum):
    TAG_WAIT = auto()
    TAG_BUSY = auto()
    MISSTAG_WAIT = auto()
    MISSTAG_BUSY = auto()
    DATA_WAIT = auto()
    DATA_BUSY = auto()
    BUS_WAIT = auto()
    BUS_BUSY = auto()
    MEM_WAIT = auto()
    MEM_PENDING = auto()
    FILLTAG_WAIT = auto()
    FILLTAG_BUSY = auto()
    WBDATA_WAIT = auto()
    WBDATA_BUSY = auto()
    FILLDATA_WAIT = auto()
    FILLDATA_BUSY = auto()
    WBMEM_WAIT = auto()
    DONE = auto()


@dataclass(slots=True)
class StateMachine:
    """A cache-controller state machine tracking one in-flight request."""

    sm_id: int
    request: MemoryRequest
    state: SMState = SMState.TAG_WAIT
    hit: bool = False
    eviction: Optional[Eviction] = None
    victim_line: Optional[int] = None


# Hot-path bindings.  On CPython 3.11 an enum member read
# (``SMState.TAG_WAIT``) costs several module-global reads, and every
# state-machine stage makes a few; the stage code below reads these
# instead (docs/ARCHITECTURE.md, "Performance notes").
_READ = AccessType.READ
_WRITE = AccessType.WRITE
_TAG_WAIT = SMState.TAG_WAIT
_TAG_BUSY = SMState.TAG_BUSY
_MISSTAG_WAIT = SMState.MISSTAG_WAIT
_MISSTAG_BUSY = SMState.MISSTAG_BUSY
_DATA_WAIT = SMState.DATA_WAIT
_DATA_BUSY = SMState.DATA_BUSY
_BUS_WAIT = SMState.BUS_WAIT
_BUS_BUSY = SMState.BUS_BUSY
_MEM_WAIT = SMState.MEM_WAIT
_MEM_PENDING = SMState.MEM_PENDING
_FILLTAG_WAIT = SMState.FILLTAG_WAIT
_FILLTAG_BUSY = SMState.FILLTAG_BUSY
_WBDATA_WAIT = SMState.WBDATA_WAIT
_WBDATA_BUSY = SMState.WBDATA_BUSY
_FILLDATA_WAIT = SMState.FILLDATA_WAIT
_FILLDATA_BUSY = SMState.FILLDATA_BUSY
_WBMEM_WAIT = SMState.WBMEM_WAIT
_SM_DONE = SMState.DONE

# Event kinds scheduled in the bank's event queue.
_TAG_DONE = 0
_DATA_DONE = 1
_BUS_DONE = 2
_RESPOND = 3
_FILLTAG_DONE = 4
_WBDATA_DONE = 5
_FILLDATA_DONE = 6
_MEM_DATA = 7
_MISSTAG_DONE = 8


class _MemDataCallback:
    """Memory-completion callback for one in-flight miss.

    A module-level class (not a closure) so banks with outstanding DRAM
    reads survive a checkpoint pickle (repro.resilience.snapshot).
    """

    __slots__ = ("bank", "sm")

    def __init__(self, bank: "CacheBank", sm: "StateMachine") -> None:
        self.bank = bank
        self.sm = sm

    def __call__(self, cycle: int) -> None:
        self.bank._events.push_at(cycle, (_MEM_DATA, self.sm))


class _Resource:
    """A shared resource: arbiter + busy window + utilization meter.
    ``track`` names its busy timeline ("bank<id>.<name>")."""

    def __init__(self, name: str, arbiter: Arbiter, base_latency: int,
                 track: str) -> None:
        self.name = name
        self.arbiter = arbiter
        self.base_latency = base_latency
        self.track = track
        self.meter = UtilizationMeter(name)

    def free(self, now: int) -> bool:
        return self.meter.is_free(now)

    def grant(self, now: int) -> Optional[ArbiterEntry]:
        if not self.free(now) or len(self.arbiter) == 0:
            return None
        entry = self.arbiter.select(now)
        if entry is None:
            return None
        self.meter.mark_busy(now, self.base_latency * entry.service_quanta)
        return entry


class CacheBank:
    """One bank of the shared L2 cache."""

    def __init__(
        self,
        bank_id: int,
        n_threads: int,
        config: L2Config,
        array: CacheArray,
        arbiter_factory: Callable[[str, int], Arbiter],
        respond: Callable[[MemoryRequest, int], None],
        memory,
    ) -> None:
        self.bank_id = bank_id
        self.n_threads = n_threads
        self.config = config
        self.array = array
        self.respond = respond
        self.memory = memory

        self.tag = _Resource("tag", arbiter_factory("tag", config.tag_latency),
                             config.tag_latency, f"bank{bank_id}.tag")
        self.data = _Resource("data", arbiter_factory("data", config.data_read_latency),
                              config.data_read_latency, f"bank{bank_id}.data")
        self.bus = _Resource("bus", arbiter_factory("bus", config.bus_line_cycles),
                             config.bus_line_cycles, f"bank{bank_id}.bus")
        self.resources = (self.tag, self.data, self.bus)

        self.sgbs = [
            StoreGatherBuffer(config.sgb_entries, config.sgb_high_water)
            for _ in range(n_threads)
        ]
        self._pending_stores: List[Deque[MemoryRequest]] = [
            deque() for _ in range(n_threads)
        ]
        self._load_q: List[Deque[MemoryRequest]] = [deque() for _ in range(n_threads)]

        self._sms: Dict[int, StateMachine] = {}
        self._next_sm_id = 0
        self._sm_count = [0] * n_threads
        self._active_lines: Dict[int, int] = {}
        self._rr_pointer = n_threads - 1  # round-robin admission pointer

        self._events: VariableDelayQueue = VariableDelayQueue()
        self._mem_wait: Deque[StateMachine] = deque()
        self._wbmem_wait: Deque[StateMachine] = deque()

        self.counters = Counters()
        # Lifecycle probe (repro.telemetry.probe): None = disabled =
        # free.  The bank holds the state machines, so it reports
        # request arrivals, store merges, and arbiter queue entries and
        # grants.
        self._probe = None

    # ------------------------------------------------------------------ #
    # Input side (called by the L2 when the crossbar delivers a request).
    # ------------------------------------------------------------------ #

    def accept(self, request: MemoryRequest, now: int) -> None:
        request.arrived_bank_cycle = now
        if self._probe is not None:
            self._probe.accepted(request, self.bank_id, now)
        if request.access is _WRITE:
            self._pending_stores[request.thread_id].append(request)
        else:
            self._load_q[request.thread_id].append(request)

    # ------------------------------------------------------------------ #
    # Per-cycle advance.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        for event in self._events.pop_ready(now):
            self._handle_event(event[0], event[1], now)
        self._admit_stores(now)
        self._admit_to_controller(now)
        self._retry_memory(now)
        for resource in self.resources:
            self._grant(resource, now)

    def busy(self) -> bool:
        """True while any work is in flight (used to drain simulations)."""
        if self._sms or len(self._events) or self._mem_wait or self._wbmem_wait:
            return True
        if any(self._pending_stores) or any(self._load_q):
            return True
        return any(sgb.occupancy for sgb in self.sgbs)

    # ------------------------------------------------------------------ #
    # Store gathering admission.
    # ------------------------------------------------------------------ #

    def _admit_stores(self, now: int) -> None:
        for tid in range(self.n_threads):
            pending = self._pending_stores[tid]
            sgb = self.sgbs[tid]
            while pending:
                outcome = sgb.try_add_store(pending[0])
                if outcome == "full":
                    break
                request = pending.popleft()
                # Acknowledge so the core releases a store-queue slot.
                self.respond(request, now)
                self.counters.add("stores_received")
                if outcome == "merged":
                    self.counters.add("stores_gathered")
                    if self._probe is not None:
                        self._probe.gathered(self.bank_id, tid,
                                             request.line, now)

    # ------------------------------------------------------------------ #
    # Controller admission (round-robin across threads, Section 3.1).
    # ------------------------------------------------------------------ #

    def _thread_candidate(self, tid: int):
        """The next request thread ``tid`` offers the controller:
        bypassing loads first (RoW), else a retiring store."""
        sgb = self.sgbs[tid]
        loads = self._load_q[tid]
        if loads:
            line = loads[0].line
            if sgb.load_may_bypass(line):
                return loads[0], "load"
            # Partial flush: a same-line store (and its elders) must
            # retire before this load may proceed.
            sgb.request_flush(line)
        if sgb.wants_retire():
            retiring = sgb.peek_retire()
            if retiring is not None:
                return retiring, "store"
        return None, ""

    def _admit_to_controller(self, now: int) -> bool:
        """Admit at most one request; True when one was admitted."""
        for _ in range(self.n_threads):
            self._rr_pointer = (self._rr_pointer + 1) % self.n_threads
            tid = self._rr_pointer
            if self._sm_count[tid] >= self.config.state_machines_per_thread:
                continue
            request, kind = self._thread_candidate(tid)
            if request is None or request.line in self._active_lines:
                continue
            if kind == "load":
                self._load_q[tid].popleft()
            else:
                self.sgbs[tid].pop_retire()
                self.counters.add("writes_admitted")
            self._start_sm(request, now)
            return True  # one admission per cycle per bank
        return False

    def _start_sm(self, request: MemoryRequest, now: int) -> None:
        sm_id = self._next_sm_id
        sm = StateMachine(sm_id, request)
        self._next_sm_id = sm_id + 1
        self._sms[sm_id] = sm
        self._sm_count[request.thread_id] += 1
        line = request.line
        active = self._active_lines
        active[line] = active.get(line, 0) + 1
        request.entered_arbitration_cycle = now
        self.counters.add("requests")
        if request.access is _WRITE:
            self.counters.add("write_requests")
        else:
            self.counters.add("read_requests")
        self._enqueue(self.tag, sm, now)

    def _free_sm(self, sm: StateMachine, now: int) -> None:
        sm.state = _SM_DONE
        request = sm.request
        request.completed_cycle = now
        del self._sms[sm.sm_id]
        self._sm_count[request.thread_id] -= 1
        line = request.line
        active = self._active_lines
        count = active[line]
        if count == 1:
            del active[line]
        else:
            active[line] = count - 1

    # ------------------------------------------------------------------ #
    # Resource arbitration.
    # ------------------------------------------------------------------ #

    def _enqueue(self, resource: _Resource, sm: StateMachine, now: int) -> None:
        request = sm.request
        is_write_access = False
        quanta = 1
        if resource is self.data:
            state = sm.state
            if (state is _TAG_BUSY or state is _DATA_WAIT) and (
                request.access is _WRITE
            ):
                # Store hit: ECC read-merge-write pair (Eq. 4's 2*R.L case).
                is_write_access = True
                quanta = 2
                sm.state = _DATA_WAIT
            elif state is _FILLDATA_WAIT:
                # Line install: full-line write; a write-miss fill also
                # merges the store data, costing the ECC pair.
                is_write_access = True
                quanta = 2 if request.access is _WRITE else 1
            elif state is _WBDATA_WAIT:
                quanta = 1  # victim read-out for writeback
            else:
                sm.state = _DATA_WAIT
        entry = ArbiterEntry(request.thread_id, sm, is_write_access,
                             request.is_prefetch, quanta)
        resource.arbiter.enqueue(entry, now)
        if self._probe is not None:
            self._probe.queued(resource, sm, now)

    def _grant(self, resource: _Resource, now: int) -> None:
        entry = resource.grant(now)
        if entry is None:
            return
        self._apply_grant(resource, entry, now)

    def _apply_grant(self, resource: _Resource, entry: ArbiterEntry,
                     now: int) -> None:
        """Stage transitions for a granted entry.  Split from ``_grant``
        so the batch kernel — which proves the resource free and the
        arbiter non-empty before selecting — can skip ``grant``'s
        re-checks while sharing this logic verbatim."""
        sm: StateMachine = entry.payload
        duration = resource.base_latency * entry.service_quanta
        if self._probe is not None:
            self._probe.granted(resource, sm, duration, now)
        push_at = self._events.push_at
        state = sm.state
        if resource is self.tag:
            if state is _TAG_WAIT:
                sm.state = _TAG_BUSY
                push_at(now + duration, (_TAG_DONE, sm))
            elif state is _MISSTAG_WAIT:
                sm.state = _MISSTAG_BUSY
                push_at(now + duration, (_MISSTAG_DONE, sm))
            else:  # fill tag update
                sm.state = _FILLTAG_BUSY
                push_at(now + duration, (_FILLTAG_DONE, sm))
        elif resource is self.data:
            if state is _DATA_WAIT:
                sm.state = _DATA_BUSY
                push_at(now + duration, (_DATA_DONE, sm))
            elif state is _WBDATA_WAIT:
                sm.state = _WBDATA_BUSY
                push_at(now + duration, (_WBDATA_DONE, sm))
            else:  # FILLDATA_WAIT
                sm.state = _FILLDATA_BUSY
                push_at(now + duration, (_FILLDATA_DONE, sm))
        else:  # data bus
            sm.state = _BUS_BUSY
            critical = now + self.config.bus_beat_cycles
            sm.request.critical_word_cycle = critical
            push_at(critical, (_RESPOND, sm))
            push_at(now + duration, (_BUS_DONE, sm))

    # ------------------------------------------------------------------ #
    # Event handling (stage completions).
    # ------------------------------------------------------------------ #

    def _handle_event(self, kind: int, sm: StateMachine, now: int) -> None:
        if kind == _TAG_DONE:
            self._tag_done(sm, now)
        elif kind == _DATA_DONE:
            self._data_done(sm, now)
        elif kind == _RESPOND:
            self.respond(sm.request, now)
        elif kind == _BUS_DONE:
            self._bus_done(sm, now)
        elif kind == _FILLTAG_DONE:
            self._filltag_done(sm, now)
        elif kind == _WBDATA_DONE:
            self._wbdata_done(sm, now)
        elif kind == _FILLDATA_DONE:
            self._filldata_done(sm, now)
        elif kind == _MEM_DATA:
            self._memory_data(sm, now)
        elif kind == _MISSTAG_DONE:
            sm.state = _MEM_WAIT
            self._mem_wait.append(sm)
            if self._probe is not None and sm.request.access is _READ:
                self._probe.mem_queued(sm.request, now)
        else:
            raise RuntimeError(f"unknown bank event kind {kind}")

    def _tag_done(self, sm: StateMachine, now: int) -> None:
        request = sm.request
        request.tag_done_cycle = now
        write = request.access is _WRITE
        sm.hit = self.array.lookup(request.line)
        if sm.hit:
            self.counters.add("write_hits" if write else "read_hits")
            sm.state = _DATA_WAIT
            self._enqueue(self.data, sm, now)
            return
        self.counters.add("write_misses" if write else "read_misses")
        if self.config.miss_status_tag_access:
            # Miss-status / castout lookup: a second tag-array access
            # before the request leaves for memory (Section 5.2).
            sm.state = _MISSTAG_WAIT
            self._enqueue(self.tag, sm, now)
        else:
            sm.state = _MEM_WAIT
            self._mem_wait.append(sm)
            if self._probe is not None and request.access is _READ:
                self._probe.mem_queued(request, now)

    def _data_done(self, sm: StateMachine, now: int) -> None:
        request = sm.request
        request.data_done_cycle = now
        if request.access is _WRITE:
            self.array.set_dirty(request.line)
            self._free_sm(sm, now)
            return
        sm.state = _BUS_WAIT
        self._enqueue(self.bus, sm, now)

    def _bus_done(self, sm: StateMachine, now: int) -> None:
        if sm.hit:
            self._free_sm(sm, now)
            return
        # Miss path: the line just streamed to the processor from memory;
        # now install it (tag update, then possibly writeback, then write).
        sm.state = _FILLTAG_WAIT
        self._enqueue(self.tag, sm, now)

    def _memory_data(self, sm: StateMachine, now: int) -> None:
        if sm.request.access is _READ:
            sm.state = _BUS_WAIT
            self._enqueue(self.bus, sm, now)
        else:
            sm.state = _FILLTAG_WAIT
            self._enqueue(self.tag, sm, now)

    def _filltag_done(self, sm: StateMachine, now: int) -> None:
        request = sm.request
        sm.eviction = eviction = self.array.insert(request.line,
                                                   request.thread_id)
        self.counters.add("fills")
        if eviction.victim_dirty:
            sm.victim_line = eviction.victim_line
            self.counters.add("writebacks")
            sm.state = _WBDATA_WAIT
        else:
            sm.state = _FILLDATA_WAIT
        self._enqueue(self.data, sm, now)

    def _wbdata_done(self, sm: StateMachine, now: int) -> None:
        sm.state = _WBMEM_WAIT
        self._wbmem_wait.append(sm)

    def _filldata_done(self, sm: StateMachine, now: int) -> None:
        request = sm.request
        if request.access is _WRITE:
            self.array.set_dirty(request.line)
        self._free_sm(sm, now)

    # ------------------------------------------------------------------ #
    # Memory interface.
    # ------------------------------------------------------------------ #

    def _retry_memory(self, now: int) -> None:
        while self._mem_wait:
            sm = self._mem_wait[0]
            request = sm.request
            if not self.memory.can_accept_read(request.thread_id):
                break
            self._mem_wait.popleft()
            sm.state = _MEM_PENDING
            self.memory.enqueue_read(
                request.thread_id,
                request.line,
                notify=self._make_mem_callback(sm),
                now=now,
                tracked=request.access is _READ,
            )
        while self._wbmem_wait:
            sm = self._wbmem_wait[0]
            if not self.memory.can_accept_write(sm.request.thread_id):
                break
            self._wbmem_wait.popleft()
            assert sm.victim_line is not None
            self.memory.enqueue_write(sm.request.thread_id, sm.victim_line,
                                      now=now)
            sm.state = _FILLDATA_WAIT
            self._enqueue(self.data, sm, now)

    def _make_mem_callback(self, sm: StateMachine):
        return _MemDataCallback(self, sm)

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    def utilizations(self, cycles: int, snapshots=None) -> Dict[str, float]:
        """Per-resource utilization over ``cycles`` (optionally since a
        snapshot dict produced by :meth:`utilization_snapshot`)."""
        snapshots = snapshots or {}
        return {
            res.name: res.meter.utilization(cycles, snapshots.get(res.name, 0))
            for res in self.resources
        }

    def utilization_snapshot(self) -> Dict[str, int]:
        return {res.name: res.meter.snapshot() for res in self.resources}
