"""Miss-status holding registers with secondary-miss coalescing.

Used by the core model to bound outstanding L2 loads (Table 1: 16 D-cache
MSHRs).  A load to a line that already has an MSHR allocated coalesces
into it (a *secondary* miss) and completes when the primary does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.events import CAT_MSHR, PH_COUNTER, TraceEvent


@dataclass
class MSHREntry:
    line: int
    primary_seq: int
    waiters: List[int] = field(default_factory=list)  # coalesced load seqs
    is_prefetch: bool = False      # primary was a hardware prefetch
    demand_joined: bool = False    # a demand load coalesced onto it


class MSHRFile:
    """Fixed-capacity MSHR file keyed by line address."""

    def __init__(self, capacity: int, thread_id: int = -1) -> None:
        if capacity < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        self.primary_misses = 0
        self.secondary_misses = 0
        # Telemetry (repro.telemetry): None = disabled = free.
        self._trace = None
        self.trace_name = "mshrs"
        # Lifecycle probe (repro.telemetry.probe): the owning thread's
        # reads enter the lifecycle at primary allocate and leave it at
        # complete; both change the file's occupancy.
        self._probe = None
        self.thread_id = thread_id

    def _emit_occupancy(self, now: int, what: str, line: int) -> None:
        # Counter events carry numeric series only (Perfetto renders each
        # args key as one counter series; strings would corrupt the
        # track).  ``what``/``line`` detail belongs to request spans.
        self._trace.emit(TraceEvent(
            ts=now, phase=PH_COUNTER, category=CAT_MSHR,
            name=self.trace_name, track=self.trace_name,
            args={"outstanding": len(self._entries)},
        ))

    def lookup(self, line: int) -> Optional[MSHREntry]:
        return self._entries.get(line)

    def can_allocate(self, line: int) -> bool:
        """True when a miss to ``line`` can proceed (coalesce or allocate)."""
        return line in self._entries or len(self._entries) < self.capacity

    def allocate(
        self, line: int, seq: int, is_prefetch: bool = False, now: int = -1
    ) -> bool:
        """Register a miss.  Returns True for a primary miss (issue to L2),
        False for a secondary miss (coalesced, nothing to issue).

        A demand load coalescing onto an in-flight prefetch marks the
        prefetch *useful* (the coverage metric of the prefetch study).
        """
        entry = self._entries.get(line)
        if entry is not None:
            entry.waiters.append(seq)
            self.secondary_misses += 1
            if entry.is_prefetch and not is_prefetch:
                entry.demand_joined = True
            return False
        if len(self._entries) >= self.capacity:
            raise RuntimeError("MSHR allocate with no free entry; call can_allocate")
        self._entries[line] = MSHREntry(
            line=line, primary_seq=seq, is_prefetch=is_prefetch
        )
        self.primary_misses += 1
        if self._trace is not None and now >= 0:
            self._emit_occupancy(now, "allocate", line)
        if self._probe is not None and now >= 0:
            self._probe.mshr_allocated(self.thread_id, self.trace_name,
                                       len(self._entries), now)
        return True

    def complete(self, line: int, now: int = -1) -> "MSHREntry":
        """Retire the MSHR for ``line``; returns the retired entry (its
        ``primary_seq`` + ``waiters`` are every waiting load seq)."""
        entry = self._entries.pop(line, None)
        if entry is None:
            raise KeyError(f"no MSHR outstanding for line {line:#x}")
        if self._trace is not None and now >= 0:
            self._emit_occupancy(now, "retire", line)
        if self._probe is not None and now >= 0:
            self._probe.mshr_completed(self.thread_id, self.trace_name,
                                       len(self._entries), now)
        return entry

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    def __contains__(self, line: int) -> bool:
        return line in self._entries
