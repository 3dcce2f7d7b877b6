"""Per-thread store gathering buffer (paper Section 3.1).

Write-through L1s make every store visible at the L2; the store
gathering buffer makes that affordable:

* an incoming store **merges** into an existing entry for the same line,
  otherwise it **allocates** a new entry (buffer full -> back-pressure);
* loads **bypass** buffered stores (Read-over-Write) after a dependence
  check; a load that hits a buffered store's line triggers a **partial
  flush** — that store and all older entries retire to the L2 first;
* when occupancy reaches the high-water mark ``n`` the buffer starts
  retiring stores (**retire-at-n**) and loads stop bypassing (**RoW
  inversion**) until occupancy drops below the mark.

The paper's configuration (Table 1): 8 entries, retire-at-6,
read bypassing, partial flush on read conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.common.records import AccessType, MemoryRequest

_WRITE = AccessType.WRITE  # bound once: read on every store


@dataclass
class _GatherEntry:
    line: int
    request: MemoryRequest   # representative request; gathered_stores counts merges
    must_flush: bool = False


class StoreGatherBuffer:
    """One thread's store gathering buffer at one L2 bank."""

    def __init__(self, entries: int = 8, high_water: int = 6) -> None:
        if entries < 1:
            raise ValueError("buffer needs at least one entry")
        if not 1 <= high_water <= entries:
            raise ValueError(
                f"high water {high_water} out of range for {entries} entries"
            )
        self.capacity = entries
        self.high_water = high_water
        self._entries: List[_GatherEntry] = []   # age order, oldest first
        # Merging keeps at most one entry per line, so a line index gives
        # O(1) merge/dependence lookups (these sit on per-cycle paths).
        self._by_line: dict = {}
        self._flush_count = 0  # entries currently marked must_flush
        # Instrumentation (Figure 7).
        self.stores_received = 0
        self.stores_merged = 0
        self.stores_retired = 0

    # ------------------------------------------------------------------ #
    # Store side.
    # ------------------------------------------------------------------ #

    def try_add_store(self, request: MemoryRequest) -> str:
        """Insert a store.  Returns "merged", "allocated", or "full"."""
        if request.access is not _WRITE:
            raise ValueError("store gathering buffer only accepts writes")
        entry = self._by_line.get(request.line)
        if entry is not None:
            entry.request.gathered_stores += 1
            self.stores_received += 1
            self.stores_merged += 1
            return "merged"
        if len(self._entries) >= self.capacity:
            return "full"
        line = request.line
        entry = _GatherEntry(line, request)
        self._entries.append(entry)
        self._by_line[line] = entry
        self.stores_received += 1
        return "allocated"

    # ------------------------------------------------------------------ #
    # Load side.
    # ------------------------------------------------------------------ #

    def has_line(self, line: int) -> bool:
        return line in self._by_line

    def load_may_bypass(self, line: int) -> bool:
        """True when a load to ``line`` may be issued ahead of the stores:
        no same-line entry (dependence) and occupancy below the high-water
        mark (RoW inversion)."""
        if len(self._entries) >= self.high_water:
            return False
        return not self.has_line(line)

    def request_flush(self, line: int) -> bool:
        """Partial flush: mark the conflicting entry and all older ones
        for retirement.  Returns True when a conflict existed."""
        for index, entry in enumerate(self._entries):
            if entry.line == line:
                for older in self._entries[: index + 1]:
                    if not older.must_flush:
                        older.must_flush = True
                        self._flush_count += 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Retirement side.
    # ------------------------------------------------------------------ #

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def wants_retire(self) -> bool:
        """Retire-at-n: drain while at/over the high-water mark, and
        always drain entries tagged by a partial flush."""
        return len(self._entries) >= self.high_water or self._flush_count > 0

    def peek_retire(self) -> Optional[MemoryRequest]:
        """The write request retirement would send next (oldest entry)."""
        if not self._entries:
            return None
        return self._entries[0].request

    def pop_retire(self) -> MemoryRequest:
        if not self._entries:
            raise RuntimeError("pop_retire on an empty buffer")
        entry = self._entries.pop(0)
        del self._by_line[entry.line]
        if entry.must_flush:
            self._flush_count -= 1
        self.stores_retired += 1
        return entry.request

    def gathering_rate(self) -> float:
        """Fraction of stores absorbed by merging (Figure 7 metric)."""
        if not self.stores_received:
            return 0.0
        return self.stores_merged / self.stores_received
