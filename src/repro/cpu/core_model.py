"""Window/MLP-limited core model.

A deliberately simple out-of-order core abstraction that preserves the
levers the paper's evaluation turns on (see DESIGN.md):

* **dispatch width** — up to ``issue_width`` instructions per cycle;
* **instruction window** — dispatch may run at most ``window_size``
  instructions past the oldest incomplete load (reorder-buffer stall);
* **MSHRs** — at most ``l1.mshrs`` outstanding L2 load lines, with
  secondary-miss coalescing;
* **dependent loads** — a load flagged ``dependent`` waits for all
  earlier loads (low-MLP / pointer-chasing behaviour);
* **store queue** — at most ``store_queue`` stores in flight to the L2
  store gathering buffers; the SGB's acknowledgement returns the credit,
  so SGB back-pressure propagates into core stalls.

Non-memory instructions retire at dispatch (their short latencies are
far inside the window); the L1's 2-cycle hit latency is likewise folded
into the window approximation.  IPC is dispatched instructions per
cycle, which over any sustained interval equals retirement rate.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Set

from repro.cache.l1 import L1Cache
from repro.cache.mshr import MSHRFile
from repro.common.config import CoreConfig, L1Config
from repro.common.records import AccessType, MemoryRequest, make_request
from repro.cpu.isa import LOAD, NONMEM, STORE, TraceItem
from repro.telemetry.cycles import R_IDLE, R_LOAD, R_MSHR, R_STORE

# Bound once: on CPython 3.11 an enum member read inside a function
# costs several module-global reads, and every memory operation makes
# one (docs/ARCHITECTURE.md, "Performance notes").
_READ = AccessType.READ
_WRITE = AccessType.WRITE


class CoreModel:
    """One hardware thread executing a segment trace."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        l1_config: L1Config,
        trace: Iterator[TraceItem],
        send_request: Callable[[int, MemoryRequest, int], None],
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.l1 = L1Cache(l1_config)
        self.mshrs = MSHRFile(l1_config.mshrs, thread_id=core_id)
        self._trace = iter(trace)
        self._send = send_request
        self._line_size = l1_config.line_size

        self.dispatched = 0            # == committed instructions (see module doc)
        self.cycles = 0
        self._outstanding_loads: Set[int] = set()   # seqs of incomplete loads
        self._oldest_load = -1                       # cached min of the set
        self._outstanding_stores = 0
        self._current: Optional[TraceItem] = None
        self._nonmem_left = 0
        self.done = False
        self.stall_cycles = 0
        # Memoized quiescent() verdict.  A True verdict is sticky: every
        # quiescent state can only be left via on_response (which clears
        # this), so repeated per-cycle checks cost one attribute read.
        self._quiet = False
        # Lifecycle probe (None when disabled; see telemetry.probe).
        self._probe = None
        # Prefetch statistics (prefetching is off unless configured).
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        """Dispatch up to ``issue_width`` instructions at cycle ``now``.

        One flat loop over locals: the window headroom is computed
        inline, the next item comes from the stash or straight from the
        trace iterator, and L1-hit loads and stores dispatch in place;
        only an L1 miss leaves the loop, for ``_dispatch_miss``.  A
        dependent load, an MSHR-blocked load and a store-queue-blocked
        store are stashed for the next tick.  An item pulled while the
        window is full is dropped, not stashed (a known model defect,
        ROADMAP item 3).  The trace running out mid-tick sets ``done``.
        """
        self.cycles += 1
        if self.done:
            return
        config = self.config
        window = config.window_size
        outstanding = self._outstanding_loads
        budget = config.issue_width
        dispatched = self.dispatched
        nonmem_left = self._nonmem_left
        progressed = False
        while budget > 0:
            if outstanding:
                headroom = window - (dispatched - self._oldest_load)
            else:
                headroom = window
            if nonmem_left:
                take = budget if budget < nonmem_left else nonmem_left
                if headroom < take:
                    take = headroom
                if take <= 0:
                    break
                nonmem_left -= take
                dispatched += take
                budget -= take
                progressed = True
                continue
            item = self._current
            if item is None:
                try:
                    item = next(self._trace)
                except StopIteration:
                    self.done = True
                    break
            else:
                self._current = None
            kind = item[0]
            if kind == NONMEM:
                nonmem_left = item[1]
                continue
            if headroom <= 0:
                break  # the pulled item is dropped (see above)
            if kind == LOAD:
                if item[2] and outstanding:
                    self._current = item  # waits for every earlier load
                    break
                if not self.l1.load(item[1]) and not self._dispatch_miss(
                    item, dispatched, now
                ):
                    break
            elif kind == STORE:
                if self._outstanding_stores >= config.store_queue:
                    self._current = item
                    break
                addr = item[1]
                self.l1.store(addr)
                self._outstanding_stores += 1
                core_id = self.core_id
                self._send(core_id, make_request(
                    core_id, addr, _WRITE, self._line_size, dispatched, now,
                ), now)
            else:
                raise RuntimeError(f"unknown trace item {item}")
            dispatched += 1
            budget -= 1
            progressed = True
        self.dispatched = dispatched
        self._nonmem_left = nonmem_left
        if not progressed and not self.done:
            self.stall_cycles += 1
        if self._probe is not None:
            if progressed:
                self._probe.progress(self.core_id, now, self._stall_reason())
            else:
                self._probe.stall(self.core_id, now, self._stall_reason())

    def _stall_reason(self) -> int:
        """Classify why the *next* tick would stall (mirrors ``tick``'s
        break conditions exactly — including the stash-drop on a window
        stall, which must classify as a load stall, not idle)."""
        if self.done:
            return R_IDLE
        if self._nonmem_left:
            return R_LOAD  # window stall: waiting on the oldest load
        if self._outstanding_loads and self._window_headroom() <= 0:
            return R_LOAD  # window stall (a stashed item would be dropped)
        item = self._current
        if item is None:
            return R_IDLE  # next tick pulls fresh trace work
        kind = item[0]
        if kind == LOAD:
            if item[2] and self._outstanding_loads:
                return R_LOAD  # dependence stall
            line = item[1] // self._line_size
            if self.l1.array.contains(line):
                return R_LOAD  # retry would hit; transiently blocked
            if not self.mshrs.can_allocate(line):
                return R_MSHR
            return R_LOAD
        if kind == STORE:
            return R_STORE
        return R_IDLE

    def _window_headroom(self) -> int:
        if not self._outstanding_loads:
            return self.config.window_size
        return self.config.window_size - (self.dispatched - self._oldest_load)

    def _dispatch_miss(self, item: TraceItem, seq: int, now: int) -> bool:
        """Dispatch a load that missed the L1 as instruction ``seq``:
        allocate (or join) an MSHR and send a primary miss to the L2.
        With no MSHR free, stash the load and return False."""
        addr = item[1]
        line = addr // self._line_size
        mshrs = self.mshrs
        if not mshrs.can_allocate(line):
            self._current = item
            return False
        primary = mshrs.allocate(line, seq, now=now)
        outstanding = self._outstanding_loads
        if not outstanding:
            self._oldest_load = seq
        outstanding.add(seq)
        if primary:
            core_id = self.core_id
            self._send(core_id, make_request(
                core_id, addr, _READ, self._line_size, seq, now,
            ), now)
            if self.config.prefetch_enabled:
                self._issue_prefetches(line, now)
        return True

    def _issue_prefetches(self, miss_line: int, now: int) -> None:
        """Next-line prefetcher: on a demand miss to ``miss_line``, fetch
        the following ``prefetch_degree`` lines.  Prefetches consume MSHRs
        (the contention/pollution mechanism of Section 4.3's monotonicity
        discussion) but never block the instruction window."""
        for degree in range(1, self.config.prefetch_degree + 1):
            line = miss_line + degree
            addr = line * self._line_size
            if self.l1.array.contains(line):
                continue
            if line in self.mshrs or not self.mshrs.can_allocate(line):
                continue
            self.mshrs.allocate(line, seq=-1, is_prefetch=True, now=now)
            request = make_request(
                self.core_id, addr, _READ, self._line_size, -1, now
            )
            request.is_prefetch = True
            self._send(self.core_id, request, now)
            self.prefetches_issued += 1

    # ------------------------------------------------------------------ #
    # Skip-ahead support (batch kernel).
    #
    # ``quiescent`` answers: would ``tick`` leave every piece of state
    # untouched except ``cycles``/``stall_cycles`` and — in the
    # MSHR-blocked probing state — the L1 miss counters bumped by the
    # per-cycle retry probe?  Only ``on_response`` can change the answer,
    # so between now and the next crossbar delivery the core may be
    # fast-forwarded with ``fast_forward``.  The predicate must be exact:
    # a false positive would diverge from the cycle-by-cycle kernel.
    # ------------------------------------------------------------------ #

    def _blocked_probing(self) -> bool:
        """True when the stalled state re-probes the L1 every cycle
        (stashed load, not dependence-blocked, missing with full MSHRs)."""
        if self._nonmem_left:
            return False
        item = self._current
        if item is None or item[0] != LOAD:
            return False
        if item[2] and self._outstanding_loads:
            return False  # dependence stall: no L1 probe happens
        return True

    def quiescent(self) -> bool:
        if self._quiet:
            return True
        verdict = self._quiescent_now()
        if verdict:
            self._quiet = True
        return verdict

    def _quiescent_now(self) -> bool:
        if self.done:
            return True
        if self._nonmem_left:
            # Dispatch of buffered non-memory work stalls only on the
            # window; any headroom would dispatch instructions.
            return self._window_headroom() <= 0
        item = self._current
        if item is None:
            # Next tick pulls from the trace — never skippable (the pull
            # itself is a state change, and under a window stall the
            # pulled item is consumed).
            return False
        if self._window_headroom() <= 0:
            # Window-stall with a stashed item: the tick would *drop*
            # the stash (see ``tick``: the headroom check precedes
            # re-stashing).  That is a state change; do not skip.
            return False
        kind = item[0]
        if kind == LOAD:
            if item[2] and self._outstanding_loads:
                return True  # dependence stall, broken only by a response
            line = item[1] // self._line_size
            # The retry probe would hit (dispatch) or find MSHR room.
            if self.l1.array.contains(line):
                return False
            return not self.mshrs.can_allocate(line)
        if kind == STORE:
            return self._outstanding_stores >= self.config.store_queue
        return False

    def fast_forward(self, delta: int, now: int) -> None:
        """Account ``delta`` skipped ticks of a quiescent core exactly."""
        self.cycles += delta
        if self.done:
            return
        self.stall_cycles += delta
        if self._blocked_probing():
            # Each skipped tick would have retried ``l1.load`` and missed
            # (``lookup`` on a miss touches only the miss counters).
            self.l1.load_misses += delta
            self.l1.array.misses += delta

    # ------------------------------------------------------------------ #
    # Response side (wired to the crossbar's response lane).
    # ------------------------------------------------------------------ #

    def on_response(self, request: MemoryRequest, now: int) -> None:
        self._quiet = False  # a response can wake any quiescent state
        if request.access is _WRITE:
            # Store-gathering-buffer acknowledgement: credit returned.
            if self._outstanding_stores <= 0:
                raise RuntimeError("store ack with no store outstanding")
            self._outstanding_stores -= 1
            return
        entry = self.mshrs.complete(request.line, now=now)
        if entry.is_prefetch and entry.demand_joined:
            self.prefetches_useful += 1
        for seq in [entry.primary_seq] + entry.waiters:
            self._outstanding_loads.discard(seq)
        self.l1.fill(request.addr, self.core_id)
        if self._outstanding_loads:
            self._oldest_load = min(self._outstanding_loads)

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    @property
    def outstanding_loads(self) -> int:
        return len(self._outstanding_loads)

    @property
    def outstanding_stores(self) -> int:
        return self._outstanding_stores

    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches a demand load coalesced onto."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    def ipc(self, cycles: Optional[int] = None) -> float:
        denom = cycles if cycles is not None else self.cycles
        return self.dispatched / denom if denom else 0.0
