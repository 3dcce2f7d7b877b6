"""Replacement-policy interface and the plain LRU baseline.

Policies see a :class:`SetView` — a snapshot of one set's ownership,
validity, and recency — and return the way to victimize.  The VPC
Capacity Manager (:mod:`repro.core.capacity`) implements this interface
with the paper's thread-aware quota policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class SetView:
    """Snapshot of a cache set handed to replacement policies.

    ``lru_order`` lists way indices least-recently-used first, covering
    every way (valid or not); policies must only pick valid ways.
    ``index`` is the set's position in its array (-1 for synthetic views
    built directly in tests) — instrumented policies use it to name
    per-set occupancy counter tracks.
    """

    ways: int
    owners: List[int]
    valid: List[bool]
    lru_order: List[int]
    index: int = -1

    def valid_lru_ways(self) -> List[int]:
        return [w for w in self.lru_order if self.valid[w]]

    def occupancy(self, thread_id: int) -> int:
        return sum(
            1 for w in range(self.ways) if self.valid[w] and self.owners[w] == thread_id
        )


class ReplacementPolicy(ABC):
    """Chooses a victim way when a set is full.

    Instrumentation follows the engine-wide contract: ``_trace`` (the
    telemetry bus) and ``_probe`` (the lifecycle probe) are ``None``
    until the system points them at a bus or a metrics view (one
    ``is not None`` test each per victimization when disabled).
    ``clock`` supplies the current simulated cycle — ``choose_victim``
    itself is timing-free by design, so the system wires in its clock at
    construction rather than widening the policy interface.
    """

    _trace = None
    _probe = None
    trace_name = "capacity"
    clock = None

    @abstractmethod
    def choose_victim(self, set_view: SetView, requester: int) -> int:
        """Return the way to evict for ``requester``'s incoming line."""


class LRUPolicy(ReplacementPolicy):
    """Thread-oblivious global LRU — the conventional baseline."""

    def choose_victim(self, set_view: SetView, requester: int) -> int:
        candidates = set_view.valid_lru_ways()
        if not candidates:
            raise RuntimeError("choose_victim called on a set with no valid lines")
        return candidates[0]
