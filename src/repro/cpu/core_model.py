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
        self.mshrs = MSHRFile(l1_config.mshrs)
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
        # Cycle-accounting sink (None when disabled; see telemetry.cycles).
        self._acct = None
        # Request-scope tracer (None when disabled; telemetry.requests).
        self._rtrace = None
        # Prefetch statistics (prefetching is off unless configured).
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        self.cycles += 1
        if self.done:
            return
        budget = self.config.issue_width
        progressed = False
        while budget > 0:
            if self._nonmem_left:
                take = min(budget, self._nonmem_left, self._window_headroom())
                if take <= 0:
                    break
                self._nonmem_left -= take
                self.dispatched += take
                budget -= take
                progressed = True
                continue
            item = self._next_item()
            if item is None:
                break
            kind = item[0]
            if kind == NONMEM:
                self._nonmem_left = item[1]
                continue
            if self._window_headroom() <= 0:
                break
            if kind == LOAD:
                if not self._dispatch_load(item[1], item[2], now):
                    break
            elif kind == STORE:
                if not self._dispatch_store(item[1], now):
                    break
            else:
                raise RuntimeError(f"unknown trace item {item}")
            budget -= 1
            progressed = True
        if not progressed and not self.done:
            self.stall_cycles += 1
        if self._acct is not None:
            if progressed:
                self._acct.progress(self.core_id, now, self._stall_reason())
            else:
                self._acct.stall(self.core_id, now, self._stall_reason())

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

    def _next_item(self) -> Optional[TraceItem]:
        if self._current is not None:
            item, self._current = self._current, None
            return item
        try:
            return next(self._trace)
        except StopIteration:
            self.done = True
            return None

    def _stash(self, item: TraceItem) -> None:
        self._current = item

    def _window_headroom(self) -> int:
        if not self._outstanding_loads:
            return self.config.window_size
        return self.config.window_size - (self.dispatched - self._oldest_load)

    def _dispatch_load(self, addr: int, dependent: bool, now: int) -> bool:
        if dependent and self._outstanding_loads:
            self._stash((LOAD, addr, dependent))
            return False
        if self.l1.load(addr):
            self.dispatched += 1
            return True
        line = addr // self._line_size
        if not self.mshrs.can_allocate(line):
            self._stash((LOAD, addr, dependent))
            return False
        seq = self.dispatched
        primary = self.mshrs.allocate(line, seq, now=now)
        self._track_load(seq)
        self.dispatched += 1
        if primary:
            request = make_request(
                self.core_id, addr, AccessType.READ, self._line_size, seq, now
            )
            if self._rtrace is not None:
                self._rtrace.issued(request, now)
            self._send(self.core_id, request, now)
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
                self.core_id, addr, AccessType.READ, self._line_size, -1, now
            )
            request.is_prefetch = True
            self._send(self.core_id, request, now)
            self.prefetches_issued += 1

    def _dispatch_store(self, addr: int, now: int) -> bool:
        if self._outstanding_stores >= self.config.store_queue:
            self._stash((STORE, addr))
            return False
        self.l1.store(addr)
        self._outstanding_stores += 1
        self.dispatched += 1
        request = make_request(
            self.core_id, addr, AccessType.WRITE, self._line_size,
            self.dispatched - 1, now,
        )
        self._send(self.core_id, request, now)
        return True

    def _track_load(self, seq: int) -> None:
        if not self._outstanding_loads:
            self._oldest_load = seq
        self._outstanding_loads.add(seq)

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
        if request.access is AccessType.WRITE:
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
