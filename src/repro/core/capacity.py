"""The VPC Capacity Manager (paper Section 4.2).

A thread-aware replacement policy that guarantees each thread at least
``beta_i * ways`` ways in every set (same set count as the shared
cache), preserving performance monotonicity (Section 4.3).  Victim
selection:

* **Condition 1** — evict the LRU line owned by *another* thread ``j``
  that currently occupies more than its quota of ways in the set.
  Taking that line cannot push ``j`` below its guarantee, and the line
  would not have been resident in ``j``'s equivalent private cache.
* **Condition 2** — otherwise every thread holds exactly its quota, so
  evict the requesting thread's own LRU line (the same line its private
  cache would have replaced).

**Fairness refinement** (the paper leaves this open; see DESIGN.md):
when several threads exceed their quotas we victimize the *most*
over-quota thread, breaking ties by global recency (least recent first).
Excess capacity therefore drains from whoever holds the most of it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.replacement import ReplacementPolicy, SetView
from repro.telemetry.events import (
    CAT_CACHE,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
)


def ways_quota(capacity_shares: Sequence[float], ways: int) -> List[int]:
    """Per-thread guaranteed way counts: ``floor(beta_i * ways)``.

    The guarantee is "at least beta_i * ways"; flooring leaves any
    fractional remainder as unallocated (excess) capacity, matching the
    paper's treatment of left-over resources.
    """
    if any(share < 0 for share in capacity_shares):
        raise ValueError(f"negative capacity share in {list(capacity_shares)}")
    if sum(capacity_shares) > 1.0 + 1e-9:
        raise ValueError(f"capacity shares over-allocate: {list(capacity_shares)}")
    quotas = [int(share * ways + 1e-9) for share in capacity_shares]
    if sum(quotas) > ways:
        raise ValueError(
            f"quotas {quotas} exceed {ways} ways (shares {list(capacity_shares)})"
        )
    return quotas


class VPCCapacityManager(ReplacementPolicy):
    """Way-quota thread-aware replacement (Section 4.2)."""

    def __init__(self, capacity_shares: Sequence[float], ways: int) -> None:
        self.quotas = ways_quota(capacity_shares, ways)
        self.n_threads = len(self.quotas)
        self.ways = ways
        # Instrumentation for the fairness analysis.
        self.condition1_evictions = 0
        self.condition2_evictions = 0

    def set_quotas(self, capacity_shares: Sequence[float]) -> List[int]:
        """Reprogram the per-thread way quotas in place (no cache rebuild).

        The runtime path behind ``VPCControlRegisters.write_capacity``:
        resident lines are untouched, only the victim-selection quotas
        change, so the next insert in each set starts draining whoever
        the new allocation leaves over quota.  Raises (leaving the old
        quotas in force) if the shares over-allocate or change thread
        count.  Returns the new quota vector.
        """
        if len(capacity_shares) != self.n_threads:
            raise ValueError(
                f"expected {self.n_threads} capacity shares, "
                f"got {len(capacity_shares)}"
            )
        self.quotas = ways_quota(capacity_shares, self.ways)
        return self.quotas

    def choose_victim(self, set_view: SetView, requester: int) -> int:
        if not 0 <= requester < self.n_threads:
            raise ValueError(f"unknown requester thread {requester}")
        occupancy = [set_view.occupancy(t) for t in range(self.n_threads)]
        lru_ways = set_view.valid_lru_ways()
        if not lru_ways:
            raise RuntimeError("choose_victim called on a set with no valid lines")

        # Condition 1: LRU line of an over-quota *other* thread; among
        # several over-quota threads prefer the most over-quota one.
        best_way = -1
        best_excess = 0
        for way in lru_ways:  # LRU-first: the first hit per thread is its LRU line
            owner = set_view.owners[way]
            if owner == requester or not 0 <= owner < self.n_threads:
                continue
            excess = occupancy[owner] - self.quotas[owner]
            if excess > best_excess:
                best_excess = excess
                best_way = way
        if best_way >= 0:
            self.condition1_evictions += 1
            if self._trace is not None:
                self._emit(set_view, requester, "cond1", best_way,
                           occupancy, excess=best_excess)
            if self._probe is not None:
                self._probe.victimized("cond1", requester, self.clock())
            return best_way

        # Condition 2: the requester's own LRU line.
        for way in lru_ways:
            if set_view.owners[way] == requester:
                self.condition2_evictions += 1
                if self._trace is not None:
                    self._emit(set_view, requester, "cond2", way, occupancy)
                if self._probe is not None:
                    self._probe.victimized("cond2", requester, self.clock())
                return way

        # The requester owns nothing in the set and nobody else is over
        # quota.  This can only happen when some capacity is unallocated
        # or owned by retired threads; fall back to global LRU so the
        # insert can proceed (the guarantee of every quota-holding thread
        # is still respected because none of them is over quota by <= 0).
        self.condition2_evictions += 1
        if self._trace is not None:
            self._emit(set_view, requester, "cond2", lru_ways[0], occupancy)
        if self._probe is not None:
            self._probe.victimized("cond2", requester, self.clock())
        return lru_ways[0]

    def _emit(
        self,
        set_view: SetView,
        requester: int,
        condition: str,
        way: int,
        occupancy: List[int],
        excess: int = 0,
    ) -> None:
        """One victimization: a condition instant plus the set's per-
        thread way-occupancy as a counter sample (a Perfetto counter
        track per set).  Occupancy is pre-eviction — the state the
        decision was made against."""
        now = self.clock() if self.clock is not None else 0
        self._trace.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_CACHE,
            name=condition, track=self.trace_name, tid=requester,
            args={"set": set_view.index, "way": way,
                  "victim": set_view.owners[way], "excess": excess},
        ))
        self._trace.emit(TraceEvent(
            ts=now, phase=PH_COUNTER, category=CAT_CACHE,
            name="ways", track=f"{self.trace_name}.set{set_view.index}",
            args={f"t{tid}": occupancy[tid]
                  for tid in range(self.n_threads)},
        ))

    def guarantees_respected(self, set_view: SetView) -> bool:
        """Audit helper: no thread below quota while another is above.

        A thread can be *below* its quota only because it has not yet
        inserted enough lines — the policy never evicts a thread below
        quota to benefit another.  This checks the invariant the tests
        rely on: a thread at-or-over quota never loses a line to an
        under-quota requester via Condition 1.
        """
        for thread_id in range(self.n_threads):
            occupancy = set_view.occupancy(thread_id)
            if occupancy > self.ways:
                return False
        return True
