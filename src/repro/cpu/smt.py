"""SMT core: multiple hardware threads sharing one pipeline and L1.

The paper's general VPM case has "multi-threaded processors with shared
L1 caches" (Section 1.1), though its evaluation uses single-threaded
cores.  This module supplies the general case: an
:class:`SMTCoreModel` hosts several hardware-thread contexts that share
the core's issue bandwidth (round-robin, ICOUNT-flavoured), the
write-through L1, and the MSHR file.  Each context keeps its own
instruction window, store-queue credits, and trace.

Every L2 request carries the *global* hardware-thread id, so the VPC
arbiters and capacity manager see SMT contexts exactly like physical
cores — the point of the VPM abstraction.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Set

from repro.cache.l1 import L1Cache
from repro.cache.mshr import MSHRFile
from repro.common.config import CoreConfig, L1Config
from repro.common.records import AccessType, MemoryRequest, make_request
from repro.cpu.isa import LOAD, NONMEM, STORE, TraceItem

# Bound once: enum member reads are slow on CPython 3.11 (see
# repro.cpu.core_model).
_READ = AccessType.READ
_WRITE = AccessType.WRITE


class _ThreadContext:
    """Architectural state private to one hardware thread."""

    def __init__(self, thread_id: int, trace: Iterator[TraceItem]) -> None:
        self.thread_id = thread_id
        self.trace = iter(trace)
        self.dispatched = 0
        self.outstanding_loads: Set[int] = set()
        self.oldest_load = -1
        self.outstanding_stores = 0
        self.stashed: Optional[TraceItem] = None
        self.nonmem_left = 0
        self.done = False

    def next_item(self) -> Optional[TraceItem]:
        if self.stashed is not None:
            item, self.stashed = self.stashed, None
            return item
        try:
            return next(self.trace)
        except StopIteration:
            self.done = True
            return None

    def window_headroom(self, window_size: int) -> int:
        if not self.outstanding_loads:
            return window_size
        return window_size - (self.dispatched - self.oldest_load)

    def track_load(self, seq: int) -> None:
        if not self.outstanding_loads:
            self.oldest_load = seq
        self.outstanding_loads.add(seq)


class SMTCoreModel:
    """A core running several hardware threads over shared resources.

    ``thread_ids`` are the global ids the contexts expose to the memory
    system; ``traces`` supplies one trace per context.  Fetch policy:
    round-robin over ready contexts each cycle, with the whole
    ``issue_width`` available to whichever contexts can use it (the
    rotation start advances every cycle so no context gets a structural
    priority).
    """

    def __init__(
        self,
        thread_ids: List[int],
        config: CoreConfig,
        l1_config: L1Config,
        traces: List[Iterator[TraceItem]],
        send_request: Callable[[int, MemoryRequest, int], None],
    ) -> None:
        if not thread_ids:
            raise ValueError("SMT core needs at least one hardware thread")
        if len(thread_ids) != len(traces):
            raise ValueError("one trace per hardware thread required")
        self.thread_ids = list(thread_ids)
        self.config = config
        self.l1 = L1Cache(l1_config)
        self.mshrs = MSHRFile(l1_config.mshrs)
        self._send = send_request
        self._line_size = l1_config.line_size
        self._contexts = {
            tid: _ThreadContext(tid, trace)
            for tid, trace in zip(thread_ids, traces)
        }
        self._rotate = 0
        self.cycles = 0
        # MSHRs are hard-partitioned between contexts.  Without the
        # quota, a deterministic lockstep lets one context monopolize
        # the whole file and starve its sibling indefinitely — the
        # intra-core analogue of the paper's shared-cache starvation,
        # and the reason real SMT designs partition miss resources.
        self._mshr_quota = max(1, l1_config.mshrs // len(thread_ids))
        self._mshr_in_use = {tid: 0 for tid in thread_ids}
        # Memoized quiescent() verdict.  While every context is blocked
        # no tick dispatches anything, so the aggregate verdict can only
        # flip back via on_response (which clears this).
        self._quiet = False

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        self.cycles += 1
        budget = self.config.issue_width
        order = (
            self.thread_ids[self._rotate:] + self.thread_ids[:self._rotate]
        )
        self._rotate = (self._rotate + 1) % len(self.thread_ids)
        # Each context dispatches until it stalls, then the next takes
        # the remaining budget (a coarse but fair ICOUNT stand-in).
        for tid in order:
            if budget <= 0:
                break
            budget = self._dispatch_from(self._contexts[tid], budget, now)

    def _dispatch_from(self, ctx: _ThreadContext, budget: int, now: int) -> int:
        while budget > 0 and not ctx.done:
            if ctx.nonmem_left:
                take = min(budget, ctx.nonmem_left,
                           ctx.window_headroom(self.config.window_size))
                if take <= 0:
                    break
                ctx.nonmem_left -= take
                ctx.dispatched += take
                budget -= take
                continue
            item = ctx.next_item()
            if item is None:
                break
            kind = item[0]
            if kind == NONMEM:
                ctx.nonmem_left = item[1]
                continue
            if ctx.window_headroom(self.config.window_size) <= 0:
                ctx.stashed = item
                break
            if kind == LOAD:
                if not self._dispatch_load(ctx, item, now):
                    break
            elif kind == STORE:
                if not self._dispatch_store(ctx, item, now):
                    break
            else:
                raise RuntimeError(f"unknown trace item {item}")
            budget -= 1
        return budget

    def _dispatch_load(self, ctx: _ThreadContext, item, now: int) -> bool:
        addr, dependent = item[1], item[2]
        if dependent and ctx.outstanding_loads:
            ctx.stashed = item
            return False
        if self.l1.load(addr):
            ctx.dispatched += 1
            return True
        line = addr // self._line_size
        needs_primary = line not in self.mshrs
        if needs_primary and (
            not self.mshrs.can_allocate(line)
            or self._mshr_in_use[ctx.thread_id] >= self._mshr_quota
        ):
            ctx.stashed = item
            return False
        seq = ctx.dispatched
        # Coalescing can cross hardware threads, but a context only
        # waits on its own sequence numbers.
        primary = self.mshrs.allocate(line, self._tagged_seq(ctx, seq), now=now)
        if primary:
            self._mshr_in_use[ctx.thread_id] += 1
        ctx.track_load(seq)
        ctx.dispatched += 1
        if primary:
            request = make_request(
                ctx.thread_id, addr, _READ, self._line_size, seq, now
            )
            self._send(ctx.thread_id, request, now)
        return True

    def _dispatch_store(self, ctx: _ThreadContext, item, now: int) -> bool:
        addr = item[1]
        if ctx.outstanding_stores >= self.config.store_queue:
            ctx.stashed = item
            return False
        self.l1.store(addr)
        ctx.outstanding_stores += 1
        ctx.dispatched += 1
        request = make_request(
            ctx.thread_id, addr, _WRITE, self._line_size,
            ctx.dispatched - 1, now,
        )
        self._send(ctx.thread_id, request, now)
        return True

    def _tagged_seq(self, ctx: _ThreadContext, seq: int) -> int:
        """Disambiguate per-context sequence numbers in the shared MSHRs."""
        return seq * 64 + self.thread_ids.index(ctx.thread_id)

    # ------------------------------------------------------------------ #
    # Skip-ahead support (batch kernel).
    # ------------------------------------------------------------------ #

    def _ctx_blocked(self, ctx: _ThreadContext) -> bool:
        """Would ``_dispatch_from(ctx)`` provably dispatch nothing and
        leave all state unchanged (modulo the L1 retry-probe counters)?"""
        if ctx.done:
            return True
        window = self.config.window_size
        if ctx.nonmem_left:
            return ctx.window_headroom(window) <= 0
        item = ctx.stashed
        if item is None:
            return False  # would pull from the trace: a state change
        if ctx.window_headroom(window) <= 0:
            return True  # clean re-stash (unlike CoreModel, nothing drops)
        kind = item[0]
        if kind == LOAD:
            if item[2] and ctx.outstanding_loads:
                return True  # dependence stall
            line = item[1] // self._line_size
            if self.l1.array.contains(line):
                return False  # retry would hit and dispatch
            if line in self.mshrs:
                return False  # retry would coalesce as a secondary miss
            return (
                not self.mshrs.can_allocate(line)
                or self._mshr_in_use[ctx.thread_id] >= self._mshr_quota
            )
        if kind == STORE:
            return ctx.outstanding_stores >= self.config.store_queue
        return False

    def _ctx_probing(self, ctx: _ThreadContext) -> bool:
        """A blocked context that still probes the shared L1 each tick
        (stashed load, headroom available, not dependence-blocked)."""
        if ctx.done or ctx.nonmem_left:
            return False
        item = ctx.stashed
        if item is None or item[0] != LOAD:
            return False
        if ctx.window_headroom(self.config.window_size) <= 0:
            return False  # re-stashed before the L1 probe
        return not (item[2] and ctx.outstanding_loads)

    def quiescent(self) -> bool:
        if self._quiet:
            return True
        verdict = all(
            self._ctx_blocked(ctx) for ctx in self._contexts.values()
        )
        if verdict:
            self._quiet = True
        return verdict

    def fast_forward(self, delta: int, now: int) -> None:
        """Account ``delta`` skipped ticks of a quiescent core exactly."""
        self.cycles += delta
        self._rotate = (self._rotate + delta) % len(self.thread_ids)
        for ctx in self._contexts.values():
            if self._ctx_probing(ctx):
                self.l1.load_misses += delta
                self.l1.array.misses += delta

    # ------------------------------------------------------------------ #
    # Response side.
    # ------------------------------------------------------------------ #

    def on_response(self, request: MemoryRequest, now: int) -> None:
        self._quiet = False  # a response can wake any blocked context
        ctx = self._contexts[request.thread_id]
        if request.access is _WRITE:
            if ctx.outstanding_stores <= 0:
                raise RuntimeError("store ack with no store outstanding")
            ctx.outstanding_stores -= 1
            return
        entry = self.mshrs.complete(request.line, now=now)
        primary_owner = self.thread_ids[entry.primary_seq % 64]
        self._mshr_in_use[primary_owner] -= 1
        for tagged in [entry.primary_seq] + entry.waiters:
            owner = self._contexts[self.thread_ids[tagged % 64]]
            owner.outstanding_loads.discard(tagged // 64)
            if owner.outstanding_loads:
                owner.oldest_load = min(owner.outstanding_loads)
        self.l1.fill(request.addr, request.thread_id)

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    def dispatched_of(self, thread_id: int) -> int:
        return self._contexts[thread_id].dispatched

    def ipc_of(self, thread_id: int, cycles: Optional[int] = None) -> float:
        denom = cycles if cycles is not None else self.cycles
        return self._contexts[thread_id].dispatched / denom if denom else 0.0

    @property
    def done(self) -> bool:
        return all(ctx.done for ctx in self._contexts.values())
