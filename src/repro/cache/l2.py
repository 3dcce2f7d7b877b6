"""The banked shared L2 cache as a single component.

Wraps the per-bank pipelines (:class:`repro.cache.bank.CacheBank`) with
line-address interleaving (bank = line mod N, Section 3.1's
address-interleaved banking) and aggregate reporting.  The CMP assembly
talks to this object; tests can also drive it directly without cores.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cache.bank import CacheBank
from repro.cache.cache_array import CacheArray
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import L2Config
from repro.common.records import MemoryRequest
from repro.core.arbiter import Arbiter


class SharedL2:
    """A multi-bank shared L2 cache."""

    def __init__(
        self,
        config: L2Config,
        n_threads: int,
        arbiter_factory: Callable[[str, int], Arbiter],
        policy_factory: Callable[[], ReplacementPolicy],
        respond: Callable[[MemoryRequest, int], None],
        memory,
    ) -> None:
        self.config = config
        self.banks: List[CacheBank] = []
        for bank_id in range(config.banks):
            array = CacheArray(
                sets=config.sets,
                ways=config.ways,
                policy=policy_factory(),
                index_stride=config.banks,
            )
            self.banks.append(
                CacheBank(
                    bank_id=bank_id,
                    n_threads=n_threads,
                    config=config,
                    array=array,
                    arbiter_factory=arbiter_factory,
                    respond=respond,
                    memory=memory,
                )
            )

    def bank_of(self, line: int) -> int:
        """Address-interleaved bank selection (line mod banks)."""
        return line % self.config.banks

    def accept(self, request: MemoryRequest, now: int) -> None:
        self.banks[self.bank_of(request.line)].accept(request, now)

    def tick(self, now: int) -> None:
        for bank in self.banks:
            bank.tick(now)

    def busy(self) -> bool:
        return any(bank.busy() for bank in self.banks)

    # ------------------------------------------------------------------ #
    # Aggregate reporting.
    # ------------------------------------------------------------------ #

    def utilizations(self, cycles: int, snapshots=None) -> Dict[str, float]:
        """Per-resource utilization averaged over banks."""
        snapshots = snapshots or [None] * len(self.banks)
        totals = {"tag": 0.0, "data": 0.0, "bus": 0.0}
        for bank, snap in zip(self.banks, snapshots):
            for name, value in bank.utilizations(cycles, snapshots=snap).items():
                totals[name] += value
        return {name: value / len(self.banks) for name, value in totals.items()}

    def utilization_snapshot(self) -> List[Dict[str, int]]:
        return [bank.utilization_snapshot() for bank in self.banks]

    def counter_total(self, name: str) -> int:
        return sum(bank.counters.get(name) for bank in self.banks)

    def occupancy_by_thread(self, n_threads: int) -> List[int]:
        totals = [0] * n_threads
        for bank in self.banks:
            for tid, count in enumerate(bank.array.occupancy_by_thread(n_threads)):
                totals[tid] += count
        return totals
