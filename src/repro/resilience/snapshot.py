"""Checkpoint/restore: versioned, integrity-checked snapshots of a full
simulation.

A checkpoint captures everything a mid-measurement run needs to continue
bit-identically in a *different process on a different day*:

* the entire :class:`~repro.system.cmp.CMPSystem` object graph — caches,
  MSHRs, arbiter virtual-time registers, in-flight requests, the kernel
  name — via one ``pickle`` (shared references, e.g. the lifecycle
  probe and the views attached to it, are preserved by the pickle memo;
  kernels keep no state of their own between ``run()`` calls);
* every workload cursor: traces are wrapped in :class:`ResumableTrace`,
  which records its declarative spec plus the number of items consumed
  and replays the seeded generator forward on unpickle (generators
  themselves cannot be pickled, but the streams are deterministic);
* the two module-global id counters (``ArbiterEntry.order`` is a
  behavioral tie-break key in the VPC arbiter; ``MemoryRequest.req_id``
  is telemetry-only) so entries created after a restore still sort
  after entries that were in flight at snapshot time;
* the measurement bookkeeping of :func:`~repro.system.simulator
  .run_simulation` (interval snapshots, cycles remaining).

File format (see docs/ARCHITECTURE.md "Resilience")::

    REPRO-CKPT\\n
    {json header: schema, cycle, point_key, payload_bytes, sha256}\\n
    <zlib-compressed pickle payload>

The header checksum makes corruption (truncated writes, the chaos
harness's bit flips) a detected :class:`CheckpointError`, never a
silently wrong resume; writes are atomic (tmp + rename).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import zlib
from pathlib import Path
from typing import Optional

from repro.workloads import build_trace

#: Bump whenever the payload layout or any pickled class changes shape
#: incompatibly; stale checkpoints then fail header validation instead
#: of unpickling garbage.  2: the lifecycle probe replaced the arbiters'
#: per-view hook slots (a schema-1 arbiter cannot unpickle).  3: the
#: metrics collector, attributor and QoS monitor moved from the
#: telemetry bus onto the probe, the QoS controller lost its private
#: collector, and cache arrays count lines per owner (a schema-2 graph
#: would resume with its views detached).  4: the trace became a view on
#: the probe, so arbiters and every other component lost their
#: ``_trace`` slot (a schema-3 arbiter cannot unpickle).
CHECKPOINT_SCHEMA_VERSION = 4

_MAGIC = b"REPRO-CKPT\n"


class CheckpointError(Exception):
    """A checkpoint file is missing, corrupt, or from another run."""


class ResumableTrace:
    """Picklable trace iterator: a declarative spec plus a cursor.

    Wraps the seeded generator :func:`repro.workloads.build_trace`
    produces and counts consumed items.  Pickling stores only
    ``(spec, thread_id, count)``; unpickling rebuilds the generator and
    replays ``count`` items — deterministic streams make the replayed
    cursor exactly the suspended one.
    """

    __slots__ = ("spec", "thread_id", "count", "_next")

    def __init__(self, spec, thread_id: int, _skip: int = 0):
        self.spec = spec
        self.thread_id = thread_id
        self.count = _skip
        iterator = build_trace(spec, thread_id)
        step = iterator.__next__
        for _ in range(_skip):
            step()
        self._next = step

    def __iter__(self) -> "ResumableTrace":
        return self

    def __next__(self):
        item = self._next()
        self.count += 1
        return item

    def __reduce__(self):
        return (ResumableTrace, (self.spec, self.thread_id, self.count))


# --------------------------------------------------------------------- #
# Module-global id counters.
# --------------------------------------------------------------------- #

def _count_value(counter) -> int:
    """Current value of an ``itertools.count`` (its repr is value-complete)."""
    return int(repr(counter)[len("count("):-1])


def _counter_state() -> dict:
    from repro.common import records
    from repro.core import arbiter
    return {
        "entry_order": _count_value(arbiter._entry_order),
        "request_ids": _count_value(records._request_ids),
    }


def _install_counters(state: dict) -> None:
    """Advance the global id counters to at least the checkpointed
    values.  ``max`` with the live value: never move a counter backwards
    in a process that has since created entries of its own (absolute
    values are meaningless — only monotonicity matters for the VPC
    tie-break)."""
    from repro.common import records
    from repro.core import arbiter
    arbiter._entry_order = itertools.count(
        max(_count_value(arbiter._entry_order), state["entry_order"]))
    records._request_ids = itertools.count(
        max(_count_value(records._request_ids), state["request_ids"]))


# --------------------------------------------------------------------- #
# File format.
# --------------------------------------------------------------------- #

def write_checkpoint(path, system, state, point_key: str = "") -> None:
    """Atomically write one checkpoint file for a mid-measurement run.

    ``state`` is the simulator's :class:`~repro.system.simulator
    .MeasureState`; the attached metrics collector/attributor (if any)
    ride along inside the pickled system's lifecycle probe.
    """
    payload = pickle.dumps({
        "system": system,
        "state": state,
        "counters": _counter_state(),
    }, protocol=pickle.HIGHEST_PROTOCOL)
    compressed = zlib.compress(payload, level=1)
    header = {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "cycle": system.cycle,
        "point_key": point_key,
        "payload_bytes": len(compressed),
        "sha256": hashlib.sha256(compressed).hexdigest(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(compressed)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)


def read_checkpoint_header(path) -> dict:
    """Parse and validate only the header (cheap existence/metadata probe)."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise CheckpointError(f"{path}: bad magic")
            header = json.loads(fh.readline().decode())
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if header.get("schema") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema {header.get('schema')} != "
            f"{CHECKPOINT_SCHEMA_VERSION}")
    return header


def load_checkpoint(path, expect_key: Optional[str] = None) -> dict:
    """Load, verify, and unpickle a checkpoint payload.

    Returns the payload dict (``system``, ``state``, ``counters``) with
    the global id counters already reinstalled.  Raises
    :class:`CheckpointError` on any integrity failure — callers fall
    back to a from-scratch run.
    """
    header = read_checkpoint_header(path)
    if expect_key is not None and header["point_key"] != expect_key:
        raise CheckpointError(
            f"{path}: checkpoint is for point {header['point_key']!r}, "
            f"not {expect_key!r}")
    try:
        with open(path, "rb") as fh:
            fh.read(len(_MAGIC))
            fh.readline()
            compressed = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(compressed) != header["payload_bytes"]:
        raise CheckpointError(
            f"{path}: truncated payload "
            f"({len(compressed)}/{header['payload_bytes']} bytes)")
    if hashlib.sha256(compressed).hexdigest() != header["sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    try:
        payload = pickle.loads(zlib.decompress(compressed))
    except (zlib.error, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError) as exc:
        raise CheckpointError(f"{path}: unpicklable payload: {exc}") from exc
    _install_counters(payload["counters"])
    return payload


class Checkpointer:
    """Cadence + destination for checkpoints during a measurement.

    Passed to :func:`repro.system.simulator.run_simulation` (or carried
    across a resume); the simulator calls :meth:`maybe` at every chunk
    boundary.  ``every`` is in simulated cycles; with a metrics
    collector attached, saves land on the first window boundary at or
    past the cadence so window sampling stays aligned with an
    uninterrupted run.  ``chaos`` is an optional
    :class:`repro.resilience.chaos.ChaosInjector` given a chance to
    misbehave at each boundary (kill the process, corrupt the file just
    written) — the test/CI hook that proves recovery works.
    """

    def __init__(self, path, every: int, point_key: str = "",
                 chaos=None) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.point_key = point_key
        self.chaos = chaos
        self.saved = 0
        # Optional hook fired (with the checkpointed cycle) after each
        # save lands — the fleet worker journals through it.
        self.on_saved = None

    def maybe(self, system, state) -> bool:
        """Save if the cadence has elapsed; called at chunk boundaries."""
        if self.chaos is not None:
            self.chaos.at_boundary(system.cycle)
        if state.since_checkpoint < self.every or state.remaining <= 0:
            return False
        state.since_checkpoint = 0
        write_checkpoint(self.path, system, state, point_key=self.point_key)
        self.saved += 1
        if self.on_saved is not None:
            self.on_saved(system.cycle)
        if self.chaos is not None:
            self.chaos.maybe_corrupt(self.path)
        return True


class ResumedRun:
    """A loaded checkpoint, ready to continue.

    Exposes the revived ``system``/``state`` plus the metrics collector
    and interference attributor (``None`` when off) the revived system
    carries on its lifecycle probe, so callers can rewire observation
    hooks (live feeds) before calling :meth:`run`.
    """

    def __init__(self, payload: dict) -> None:
        self.system = payload["system"]
        self.state = payload["state"]
        self.metrics = self.system.metrics_collector
        self.attributor = self.system.attributor

    @property
    def cycle(self) -> int:
        return self.system.cycle

    def run(self, checkpointer: Optional[Checkpointer] = None,
            on_window=None):
        """Continue to the end of the measurement; returns the same
        :class:`~repro.system.simulator.SimulationResult` an
        uninterrupted run would have produced (bit-identical)."""
        from repro.system.simulator import continue_measurement
        return continue_measurement(
            self.system, self.state, metrics=self.metrics,
            on_window=on_window, checkpoint=checkpointer,
        )


def open_checkpoint(path, expect_key: Optional[str] = None) -> ResumedRun:
    """Load a checkpoint into a :class:`ResumedRun`."""
    return ResumedRun(load_checkpoint(path, expect_key=expect_key))


def resume_simulation(path, checkpointer: Optional[Checkpointer] = None,
                      on_window=None):
    """One-call resume: load ``path`` and run the measurement tail.

    The returned :class:`~repro.system.simulator.SimulationResult` is
    bit-identical to what the original, uninterrupted ``run_simulation``
    call would have returned (guarded by tests/test_resilience.py).
    """
    return open_checkpoint(path).run(checkpointer=checkpointer,
                                     on_window=on_window)
