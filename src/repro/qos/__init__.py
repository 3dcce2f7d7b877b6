"""Dynamic QoS control plane over the VPC register file.

Online thread classification (:mod:`repro.qos.classifier`), the epoch
harness with its IPC-target and fairness retuners
(:mod:`repro.qos.controller`), and the LFOC-style clustering policy
(:mod:`repro.qos.lfoc`).  Everything here programs the cache
exclusively through :class:`~repro.core.registers.VPCControlRegisters`
— the control plane is software running *on* the paper's architected
interface, not a backdoor into the simulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.qos.classifier import (
    LABEL_HUNGRY,
    LABEL_LIGHT,
    LABEL_STREAMING,
    LABELS,
    EpochSignals,
    ThreadClassifier,
)
from repro.qos.controller import (
    QOS_DECISIONS_SCHEMA,
    FairnessController,
    QoSController,
    QoSDecision,
    TargetController,
)
from repro.qos.lfoc import LFOCController

#: Controller names accepted by the CLIs and the experiment runner
#: (``TargetController`` needs a subject thread and target, which no
#: CLI takes, so it is built directly).
CONTROLLERS = ("lfoc", "fairness")


def make_controller(
    name: str,
    n_threads: int,
    epoch_cycles: int = 5_000,
    baseline_ipcs: Optional[Sequence[float]] = None,
) -> QoSController:
    """Build a controller by CLI name (not yet attached to a system)."""
    if name == "lfoc":
        return LFOCController(n_threads, epoch_cycles, baseline_ipcs)
    if name == "fairness":
        return FairnessController(n_threads, epoch_cycles, baseline_ipcs)
    raise ValueError(
        f"unknown QoS controller {name!r}; choose from {CONTROLLERS}"
    )


__all__ = [
    "CONTROLLERS",
    "EpochSignals",
    "FairnessController",
    "LABELS",
    "LABEL_HUNGRY",
    "LABEL_LIGHT",
    "LABEL_STREAMING",
    "LFOCController",
    "QOS_DECISIONS_SCHEMA",
    "QoSController",
    "QoSDecision",
    "TargetController",
    "ThreadClassifier",
    "make_controller",
]
