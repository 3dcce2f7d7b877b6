"""Resilience subsystem: checkpoint/restore, crash-safe experiment
journal, and fault-injecting chaos harness.

Three pillars (docs/ARCHITECTURE.md "Resilience"):

* :mod:`repro.resilience.snapshot` — versioned, integrity-checked
  checkpoints of a full mid-measurement simulation; resuming one is
  bit-identical to never having stopped.
* :mod:`repro.resilience.journal` — an append-only JSONL journal per
  experiment run that makes ``--resume`` skip completed points and
  restart half-done ones from their last checkpoint.
* :mod:`repro.resilience.chaos` — seeded fault injection (worker kills,
  hangs, delays, checkpoint corruption) used by the tests and the CI
  chaos-smoke job to prove the other two pillars actually work.
"""

from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.fleet import (
    FleetAborted,
    PointsExcludedError,
    ResilienceConfig,
)
from repro.resilience.journal import (
    JournalError,
    JournalState,
    RunJournal,
    replay,
)
from repro.resilience.snapshot import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    Checkpointer,
    ResumableTrace,
    ResumedRun,
    load_checkpoint,
    open_checkpoint,
    read_checkpoint_header,
    resume_simulation,
    write_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "ChaosConfig",
    "ChaosInjector",
    "CheckpointError",
    "FleetAborted",
    "JournalError",
    "JournalState",
    "PointsExcludedError",
    "ResilienceConfig",
    "RunJournal",
    "replay",
    "Checkpointer",
    "ResumableTrace",
    "ResumedRun",
    "load_checkpoint",
    "open_checkpoint",
    "read_checkpoint_header",
    "resume_simulation",
    "write_checkpoint",
]
