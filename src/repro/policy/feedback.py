"""Software allocation policy: feedback control of VPC shares.

The paper is explicit about the division of labour: "the policies that
determine the actual allocations are beyond our scope ... presumably
through a combination of application and system software, and our job
is to assure that the requested allocations are provided" (Section 1).
This module supplies the missing software half for users of the
library: a small feedback controller that periodically reads a target
thread's achieved IPC and reprograms the VPC control registers until
the target is met with the *smallest sufficient* share — releasing the
remainder for the fairness policy to distribute.

The controller only ever touches the architected interface
(:class:`~repro.core.registers.VPCControlRegisters`), exactly as real
system software would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.system.cmp import CMPSystem
from repro.telemetry.events import (
    CAT_QOS,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
)


@dataclass
class AllocationDecision:
    """One controller epoch: what was observed and what was programmed."""

    cycle: int
    observed_ipc: float
    target_ipc: float
    share_before: float
    share_after: float


class FeedbackAllocator:
    """Drives one thread's bandwidth share toward an IPC target.

    Multiplicative-increase / multiplicative-decrease on the subject's
    share; whatever the subject does not need is split equally among the
    other threads.  ``min_share`` / ``max_share`` bound the subject so
    other threads always keep some guaranteed service.
    """

    def __init__(
        self,
        system: CMPSystem,
        thread_id: int,
        target_ipc: float,
        epoch_cycles: int = 5_000,
        increase: float = 1.25,
        decrease: float = 0.9,
        min_share: float = 0.05,
        max_share: float = 0.95,
        deadband: float = 0.03,
    ) -> None:
        if system.config.arbiter != "vpc":
            raise ValueError("feedback allocation requires VPC arbiters")
        if not 0 <= thread_id < system.config.n_threads:
            raise ValueError(f"thread {thread_id} out of range")
        if target_ipc <= 0:
            raise ValueError("target IPC must be positive")
        if epoch_cycles < 1:
            raise ValueError("epoch must be >= 1 cycle")
        if not 0 < min_share < max_share <= 1.0:
            raise ValueError("need 0 < min_share < max_share <= 1")
        if increase <= 1.0 or not 0 < decrease < 1.0:
            raise ValueError("increase must exceed 1 and decrease be in (0,1)")
        self.system = system
        self.thread_id = thread_id
        self.target_ipc = target_ipc
        self.epoch_cycles = epoch_cycles
        self.increase = increase
        self.decrease = decrease
        self.min_share = min_share
        self.max_share = max_share
        self.deadband = deadband
        self.decisions: List[AllocationDecision] = []
        self._epoch_start_cycle = system.cycle
        self._epoch_start_insts = system.cores[thread_id].dispatched

    @property
    def current_share(self) -> float:
        return self.system.registers.bandwidth["data"][self.thread_id]

    def _program(self, share: float) -> None:
        """Write the subject's share and split the rest equally.

        Shrinking writes must precede growing ones: the register file
        rejects transient over-allocation.
        """
        n = self.system.config.n_threads
        others = (1.0 - share) / (n - 1) if n > 1 else 0.0
        registers = self.system.registers
        writes = [(self.thread_id, share)] + [
            (tid, others) for tid in range(n) if tid != self.thread_id
        ]
        current = registers.bandwidth["data"]
        for tid, value in sorted(writes, key=lambda w: w[1] - current[w[0]]):
            registers.write_bandwidth(tid, value)

    def epoch(self) -> AllocationDecision:
        """Run one epoch and adjust the allocation."""
        self.system.run(self.epoch_cycles)
        core = self.system.cores[self.thread_id]
        insts = core.dispatched - self._epoch_start_insts
        observed = insts / self.epoch_cycles
        before = self.current_share

        after = before
        if observed < self.target_ipc * (1.0 - self.deadband):
            after = min(self.max_share, before * self.increase)
        elif observed > self.target_ipc * (1.0 + self.deadband):
            after = max(self.min_share, before * self.decrease)
        if after != before:
            self._program(after)

        decision = AllocationDecision(
            cycle=self.system.cycle,
            observed_ipc=observed,
            target_ipc=self.target_ipc,
            share_before=before,
            share_after=after,
        )
        self.decisions.append(decision)
        self._emit(decision)
        self._epoch_start_cycle = self.system.cycle
        self._epoch_start_insts = core.dispatched
        return decision

    def _emit(self, decision: AllocationDecision) -> None:
        """Mirror the decision into the trace sink (when attached):
        an instant on the shared ``qos.controller`` track plus the
        subject's share as a counter, so feedback epochs line up with
        the rest of the trace in Perfetto."""
        bus = self.system.telemetry
        if bus is None:
            return
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_INSTANT, category=CAT_QOS,
            name="feedback", track="qos.controller", tid=self.thread_id,
            args={
                "observed_ipc": decision.observed_ipc,
                "target_ipc": decision.target_ipc,
                "share_before": decision.share_before,
                "share_after": decision.share_after,
            },
        ))
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_COUNTER, category=CAT_QOS,
            name="phi", track="qos.shares",
            args={f"t{self.thread_id}": decision.share_after},
        ))

    def run(self, epochs: int) -> List[AllocationDecision]:
        return [self.epoch() for _ in range(epochs)]

    def converged(self, last: int = 3) -> bool:
        """Target met (within the deadband) for the ``last`` epochs,
        or the subject is pinned at ``max_share`` (infeasible target)."""
        if len(self.decisions) < last:
            return False
        recent = self.decisions[-last:]
        if all(d.share_after >= self.max_share for d in recent):
            return True
        return all(
            d.observed_ipc >= d.target_ipc * (1.0 - 2 * self.deadband)
            for d in recent
        )
