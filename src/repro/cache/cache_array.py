"""Set-associative tag-state array with pluggable replacement.

This models the *state* of a cache (tags, owners, LRU stacks, dirty
bits); timing lives in :mod:`repro.cache.bank`.  Every line remembers the
thread that owns it — the paper's thread-aware replacement policies
(Section 4.2) key on ownership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.replacement import ReplacementPolicy, SetView


@dataclass(frozen=True, slots=True)
class Eviction:
    """Result of an insert: where the line went and what it displaced."""

    way: int
    victim_line: Optional[int]
    victim_owner: int
    victim_dirty: bool


class CacheSet:
    """One cache set: tags, per-way metadata, and an MRU-first stack."""

    __slots__ = ("ways", "index", "line_of", "owner", "valid", "dirty",
                 "lru", "_where")

    def __init__(self, ways: int, index: int = -1) -> None:
        self.ways = ways
        self.index = index
        self.line_of: List[int] = [-1] * ways
        self.owner: List[int] = [-1] * ways
        self.valid: List[bool] = [False] * ways
        self.dirty: List[bool] = [False] * ways
        self.lru: List[int] = list(range(ways))  # MRU first
        self._where: Dict[int, int] = {}          # line -> way

    def find(self, line: int) -> Optional[int]:
        return self._where.get(line)

    def touch(self, way: int) -> None:
        """Move ``way`` to the MRU position."""
        lru = self.lru
        if lru[0] != way:
            lru.remove(way)
            lru.insert(0, way)

    def free_way(self) -> Optional[int]:
        for way in range(self.ways):
            if not self.valid[way]:
                return way
        return None

    def occupancy(self, thread_id: int) -> int:
        return sum(
            1
            for way in range(self.ways)
            if self.valid[way] and self.owner[way] == thread_id
        )

    def view(self) -> SetView:
        return SetView(
            ways=self.ways,
            owners=list(self.owner),
            valid=list(self.valid),
            lru_order=[w for w in reversed(self.lru)],  # LRU first for policies
            index=self.index,
        )

    def install(self, way: int, line: int, thread_id: int) -> None:
        if self.valid[way]:
            del self._where[self.line_of[way]]
        self.line_of[way] = line
        self.owner[way] = thread_id
        self.valid[way] = True
        self.dirty[way] = False
        self._where[line] = way
        self.touch(way)

    def invalidate(self, way: int) -> None:
        if self.valid[way]:
            del self._where[self.line_of[way]]
        self.valid[way] = False
        self.dirty[way] = False
        self.line_of[way] = -1
        self.owner[way] = -1


class CacheArray:
    """A full set-associative array addressed by line number.

    ``index_stride`` lets a banked cache map its slice of the address
    space: bank *b* of *N* sees lines where ``line % N == b``, so the set
    index is ``(line // N) % sets``.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        policy: ReplacementPolicy,
        index_stride: int = 1,
    ) -> None:
        if sets <= 0 or (sets & (sets - 1)):
            raise ValueError(f"set count must be a positive power of two: {sets}")
        if ways <= 0:
            raise ValueError(f"way count must be positive: {ways}")
        self.sets = sets
        self.ways = ways
        self.policy = policy
        self.index_stride = index_stride
        self._sets: List[CacheSet] = [
            CacheSet(ways, index) for index in range(sets)
        ]
        # Valid lines per owner thread, kept current by insert and
        # invalidate (the only ownership changes), so occupancy reads
        # never scan the array.
        self._owned: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def set_index(self, line: int) -> int:
        return (line // self.index_stride) % self.sets

    def _set(self, line: int) -> CacheSet:
        return self._sets[self.set_index(line)]

    def lookup(self, line: int, update_lru: bool = True) -> bool:
        """Tag probe.  Updates hit/miss counters and (on hit) recency."""
        cset = self._set(line)
        way = cset.find(line)
        if way is None:
            self.misses += 1
            return False
        self.hits += 1
        if update_lru:
            cset.touch(way)
        return True

    def contains(self, line: int) -> bool:
        """Pure probe with no side effects (for assertions/tests)."""
        return self._set(line).find(line) is not None

    def insert(self, line: int, thread_id: int) -> Eviction:
        """Install ``line`` for ``thread_id``, evicting if necessary."""
        cset = self._set(line)
        owned = self._owned
        existing = cset.find(line)
        if existing is not None:
            # Refetch of a present line (e.g. racing fills); just refresh.
            owned[cset.owner[existing]] -= 1
            owned[thread_id] = owned.get(thread_id, 0) + 1
            cset.owner[existing] = thread_id
            cset.touch(existing)
            return Eviction(existing, None, -1, False)
        way = cset.free_way()
        if way is not None:
            cset.install(way, line, thread_id)
            evicted = Eviction(way, None, -1, False)
        else:
            victim = self.policy.choose_victim(cset.view(), thread_id)
            if not cset.valid[victim]:
                raise RuntimeError(
                    "policy chose an invalid way with none free")
            evicted = Eviction(
                way=victim,
                victim_line=cset.line_of[victim],
                victim_owner=cset.owner[victim],
                victim_dirty=cset.dirty[victim],
            )
            owned[evicted.victim_owner] -= 1
            cset.install(victim, line, thread_id)
        owned[thread_id] = owned.get(thread_id, 0) + 1
        return evicted

    def set_dirty(self, line: int, dirty: bool = True) -> None:
        cset = self._set(line)
        way = cset.find(line)
        if way is None:
            raise KeyError(f"line {line:#x} not present")
        cset.dirty[way] = dirty

    def is_dirty(self, line: int) -> bool:
        cset = self._set(line)
        way = cset.find(line)
        return way is not None and cset.dirty[way]

    def invalidate(self, line: int) -> None:
        cset = self._set(line)
        way = cset.find(line)
        if way is not None:
            self._owned[cset.owner[way]] -= 1
            cset.invalidate(way)

    def occupancy_by_thread(self, n_threads: int) -> List[int]:
        """Valid lines owned by each of threads ``0..n_threads-1``."""
        owned = self._owned
        return [owned.get(tid, 0) for tid in range(n_threads)]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
