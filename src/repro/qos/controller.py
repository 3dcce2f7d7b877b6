"""The QoS control plane: epoch-driven share retuning over the
architected register file.

The paper ends where system software begins: VPC gives software a set
of control registers (phi_i bandwidth shares, beta_i capacity shares)
and deliberately leaves the allocation *policy* to the OS (Section 4,
"the mechanisms are policy-free").  This module is that missing policy
layer — a controller invoked at fixed epoch boundaries by the
simulation driver, observing each thread through the run's counters
and reprogramming the shares **only** through
:class:`~repro.core.registers.VPCControlRegisters`.  The control plane
never touches an arbiter or a capacity manager directly; if a decision
cannot be expressed as register writes, it cannot be made.

:class:`QoSController` is the harness: it diffs the run's cumulative
per-thread load counters (``CMPSystem.load_totals``, kept by the
lifecycle probe) and committed-instruction counts at each epoch
boundary into :class:`~repro.qos.classifier.EpochSignals`, runs the
:class:`~repro.qos.classifier.ThreadClassifier`, and delegates the
actual allocation to a subclass ``decide`` hook.  Programming is
transactional (``load_allocation``), every epoch is audited for quota
conservation, and every decision is recorded in memory (the
``repro.qos-decisions/1`` document) and, when a trace bus is attached,
on it as instants plus ``qos.*`` counter tracks.

Subclasses shipped with the repo:

* :class:`FairnessController` (here) — multi-thread generalization of
  :class:`~repro.policy.feedback.FeedbackAllocator`: retunes all phi_i
  toward equalized slowdowns (maximizing the Jain index);
* :class:`~repro.qos.lfoc.LFOCController` — LFOC-style clustering on
  the classifier's taxonomy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.stats import jain_index
from repro.core.capacity import ways_quota
from repro.qos.classifier import EpochSignals, ThreadClassifier
from repro.telemetry.events import (
    CAT_QOS,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
)

#: Schema tag on exported decision logs (repro.telemetry.validate).
QOS_DECISIONS_SCHEMA = "repro.qos-decisions/1"


@dataclass
class QoSDecision:
    """One epoch's observation + allocation, as logged."""

    epoch: int
    cycle: int
    cycles: int                      # epoch length actually observed
    ipcs: List[float]
    loads: List[int]
    labels: List[str]
    phi: List[float]                 # bandwidth shares now in force
    beta: List[float]                # capacity shares now in force
    jain: float                      # of (normalized) epoch throughput
    programmed: bool                 # False = deadband/no-op epoch
    slowdowns: Optional[List[float]] = None


class QoSController:
    """Base epoch harness; subclasses implement :meth:`decide`."""

    #: Policy name recorded in decision documents; subclasses override.
    name = "static"

    def __init__(
        self,
        n_threads: int,
        epoch_cycles: int = 5_000,
        baseline_ipcs: Optional[Sequence[float]] = None,
        classifier: Optional[ThreadClassifier] = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("controller needs at least one thread")
        if epoch_cycles < 1:
            raise ValueError("epoch must be >= 1 cycle")
        self.n_threads = n_threads
        self.epoch_cycles = epoch_cycles
        self.baseline_ipcs = (
            list(baseline_ipcs) if baseline_ipcs is not None else None
        )
        if self.baseline_ipcs is not None and len(
                self.baseline_ipcs) != n_threads:
            raise ValueError("baseline IPC count mismatch")
        self.classifier = classifier or ThreadClassifier(n_threads)
        self.decisions: List[QoSDecision] = []
        self.epochs = 0
        self.system = None
        # Epoch-diff cursors (absolute counts at the last boundary).
        self._last_cycle = 0
        self._last_dispatched = [0] * n_threads
        self._last_loads = [0] * n_threads
        self._last_latency = [0] * n_threads

    # ------------------------------------------------------------------ #
    # Lifecycle (driven by repro.system.simulator).
    # ------------------------------------------------------------------ #

    def attach(self, system) -> "QoSController":
        """Bind to a live system (called by
        ``CMPSystem.attach_qos_controller``; the probe already exists)."""
        if system.config.n_threads != self.n_threads:
            raise ValueError(
                f"controller sized for {self.n_threads} threads, system "
                f"has {system.config.n_threads}"
            )
        self.system = system
        self.rebase(system)
        return self

    def rebase(self, system) -> None:
        """Zero the epoch cursors at the current cycle (end of warmup):
        the first measured epoch must not see warmup-phase traffic."""
        self._last_cycle = system.cycle
        self._last_dispatched = [
            system.thread_dispatched(tid) for tid in range(self.n_threads)
        ]
        totals = system.load_totals()
        self._last_loads = totals["loads"]
        self._last_latency = totals["load_latency"]

    # ------------------------------------------------------------------ #
    # The epoch tick.
    # ------------------------------------------------------------------ #

    def observe(self, system) -> EpochSignals:
        """Diff the cumulative series into this epoch's signals and
        advance the cursors."""
        cycle = system.cycle
        cycles = cycle - self._last_cycle
        dispatched = [
            system.thread_dispatched(tid) for tid in range(self.n_threads)
        ]
        totals = system.load_totals()
        ipcs = [
            (dispatched[tid] - self._last_dispatched[tid]) / cycles
            if cycles else 0.0
            for tid in range(self.n_threads)
        ]
        loads = [
            totals["loads"][tid] - self._last_loads[tid]
            for tid in range(self.n_threads)
        ]
        latency = [
            totals["load_latency"][tid] - self._last_latency[tid]
            for tid in range(self.n_threads)
        ]
        slowdowns = None
        if self.baseline_ipcs is not None:
            # Capped so idle epochs stay JSON-finite.
            slowdowns = [
                min(1e6, base / ipc) if ipc > 0 else 1e6
                for base, ipc in zip(self.baseline_ipcs, ipcs)
            ]
        self._last_cycle = cycle
        self._last_dispatched = dispatched
        self._last_loads = totals["loads"]
        self._last_latency = totals["load_latency"]
        return EpochSignals(
            cycle=cycle,
            cycles=cycles,
            ipcs=ipcs,
            loads=loads,
            load_latency=latency,
            ways=list(system.l2.occupancy_by_thread(self.n_threads)),
            slowdowns=slowdowns,
        )

    def decide(
        self, signals: EpochSignals, labels: List[str]
    ) -> Optional[Tuple[List[float], List[float]]]:
        """Return ``(phi, beta)`` share vectors to program, or ``None``
        to leave the current allocation in force this epoch."""
        return None

    def on_epoch(self, system) -> QoSDecision:
        """One control-loop iteration: observe, classify, decide,
        program through the registers, audit, and log."""
        signals = self.observe(system)
        labels = self.classifier.classify(signals)
        allocation = self.decide(signals, labels)
        programmed = allocation is not None
        if programmed:
            phi, beta = allocation
            # Transactional whole-vector programming: the register file
            # validates the sums before any share changes, so a bad
            # decision cannot leave a half-written allocation.
            system.registers.load_allocation(phi, beta)
        self.audit(system)
        throughput = list(signals.ipcs)
        if self.baseline_ipcs is not None:
            throughput = [
                ipc / base if base > 0 else 0.0
                for ipc, base in zip(throughput, self.baseline_ipcs)
            ]
        decision = QoSDecision(
            epoch=self.epochs,
            cycle=signals.cycle,
            cycles=signals.cycles,
            ipcs=signals.ipcs,
            loads=signals.loads,
            labels=labels,
            phi=list(system.registers.bandwidth["data"]),
            beta=list(system.registers.capacity),
            jain=jain_index(throughput),
            programmed=programmed,
            slowdowns=signals.slowdowns,
        )
        self.decisions.append(decision)
        self.epochs += 1
        self._emit(system, decision)
        return decision

    def audit(self, system) -> None:
        """Quota-conservation invariant, checked every epoch: every
        bank's live quotas are exactly what the architected capacity
        registers imply, and never over-allocate the ways."""
        shares = system.registers.capacity
        if sum(shares) > 1.0 + 1e-9:
            raise RuntimeError(
                f"capacity registers over-allocate: {shares}"
            )
        for index, bank in enumerate(system.banks):
            policy = bank.array.policy
            quotas = getattr(policy, "quotas", None)
            if quotas is None:
                continue
            expected = ways_quota(shares, policy.ways)
            if quotas != expected:
                raise RuntimeError(
                    f"bank{index} quotas {quotas} drifted from registers "
                    f"(expected {expected})"
                )
            if sum(quotas) > policy.ways:
                raise RuntimeError(
                    f"bank{index} quotas {quotas} over-allocate "
                    f"{policy.ways} ways"
                )

    def _emit(self, system, decision: QoSDecision) -> None:
        bus = system.telemetry
        if bus is None:
            return
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_INSTANT, category=CAT_QOS,
            name="decision", track="qos.controller",
            args={
                "epoch": decision.epoch,
                "policy": self.name,
                "programmed": int(decision.programmed),
                "jain": decision.jain,
                "labels": ",".join(decision.labels),
            },
        ))
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_COUNTER, category=CAT_QOS,
            name="phi", track="qos.shares",
            args={f"t{tid}": decision.phi[tid]
                  for tid in range(self.n_threads)},
        ))
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_COUNTER, category=CAT_QOS,
            name="beta", track="qos.capacity",
            args={f"t{tid}": decision.beta[tid]
                  for tid in range(self.n_threads)},
        ))
        bus.emit(TraceEvent(
            ts=decision.cycle, phase=PH_COUNTER, category=CAT_QOS,
            name="jain", track="qos.fairness",
            args={"jain": decision.jain},
        ))

    # ------------------------------------------------------------------ #
    # Export.
    # ------------------------------------------------------------------ #

    def decisions_document(self) -> Dict:
        """The JSON-able ``repro.qos-decisions/1`` log."""
        out: Dict = {
            "schema": QOS_DECISIONS_SCHEMA,
            "policy": self.name,
            "epoch_cycles": self.epoch_cycles,
            "n_threads": self.n_threads,
            "epochs": self.epochs,
            "decisions": [asdict(decision) for decision in self.decisions],
        }
        if self.baseline_ipcs is not None:
            out["baseline_ipcs"] = list(self.baseline_ipcs)
        if self.decisions:
            last = self.decisions[-1]
            out["final"] = {
                "phi": last.phi,
                "beta": last.beta,
                "labels": last.labels,
                "jain": last.jain,
            }
        return out


class FairnessController(QoSController):
    """Epoch-retuned bandwidth shares toward equalized slowdowns.

    The multi-thread generalization of
    :class:`~repro.policy.feedback.FeedbackAllocator`: instead of
    steering one thread's phi against a fixed IPC target, every epoch
    scales each thread's share by how far its slowdown sits from the
    pack's mean (``(slowdown_i / mean)**gamma``), clamps to
    ``[phi_min, phi_max]``, renormalizes, and programs the whole vector
    transactionally.  With solo baselines the slowdown is the paper's
    definition; without them raw inverse IPC is used, which equalizes
    IPCs instead.  Capacity shares are left as configured.
    """

    name = "fairness"

    def __init__(
        self,
        n_threads: int,
        epoch_cycles: int = 5_000,
        baseline_ipcs: Optional[Sequence[float]] = None,
        gamma: float = 0.5,
        phi_min: float = 0.05,
        phi_max: float = 0.60,
        deadband: float = 1.05,
        classifier: Optional[ThreadClassifier] = None,
    ) -> None:
        super().__init__(n_threads, epoch_cycles, baseline_ipcs, classifier)
        if not 0.0 < gamma <= 2.0:
            raise ValueError("gamma must be in (0, 2]")
        if not 0.0 < phi_min < phi_max <= 1.0:
            raise ValueError("need 0 < phi_min < phi_max <= 1")
        if deadband < 1.0:
            raise ValueError("deadband is a max/min slowdown ratio >= 1")
        self.gamma = gamma
        self.phi_min = phi_min
        self.phi_max = phi_max
        self.deadband = deadband

    def decide(
        self, signals: EpochSignals, labels: List[str]
    ) -> Optional[Tuple[List[float], List[float]]]:
        if signals.slowdowns is not None:
            slowdowns = list(signals.slowdowns)
        else:
            # No baselines: equalize raw IPCs (slowdown proxy 1/ipc).
            slowdowns = [
                min(1e6, 1.0 / ipc) if ipc > 0 else 1e6
                for ipc in signals.ipcs
            ]
        positive = [s for s in slowdowns if s > 0]
        if not positive:
            return None
        if max(positive) / min(positive) < self.deadband:
            return None  # already even; avoid churn
        mean = sum(slowdowns) / len(slowdowns)
        if mean <= 0:
            return None
        current = self.system.registers.bandwidth["data"]
        scaled = [
            min(self.phi_max, max(
                self.phi_min,
                current[tid] * (slowdowns[tid] / mean) ** self.gamma,
            ))
            for tid in range(self.n_threads)
        ]
        total = sum(scaled)
        phi = [share / total for share in scaled]
        beta = list(self.system.registers.capacity)
        return phi, beta
