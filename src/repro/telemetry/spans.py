"""Wall-clock span tracing for the orchestration layer.

Simulated time has had first-class observability since PR 2 — every
arbiter grant and request lifecycle lands on a cycle-stamped track.
The *host* side of a run was invisible: point scheduling, worker
spawns, retry backoffs, checkpoint writes and cache hits happened
between the trace's frames.  This module gives the orchestration layer
the same treatment in wall-clock time:

* a :class:`SpanTracer` opens/closes named spans and instants on
  ``host.*`` tracks, assigning every span a process-unique id under one
  run-wide trace id;
* spans double as :class:`~repro.telemetry.events.TraceEvent`s
  (category :data:`~repro.telemetry.events.CAT_HOST`) when the tracer
  shares the run's ``--trace`` sink, so the Perfetto exporter renders
  them as a dedicated "host orchestration" process next to the
  simulated-cycle tracks — one trace file, both time bases;
* a :class:`SpanContext` propagates ``(trace_id, parent span,
  unix epoch)`` parent -> worker as a plain picklable tuple, and worker
  spans travel home over the existing feed-tuple channel as
  ``("span", point_index, worker_pid, record)`` — the same wire that
  carries window snapshots (see :meth:`repro.telemetry.server.
  LiveRun.put`);
* :func:`write_spans` serializes the collected spans as a validatable
  ``repro.spans/1`` document (``--spans PATH`` on both CLIs).

Timestamps are microseconds since the tracer's unix epoch
(``time.time``-based, not monotonic, precisely so parent and worker
processes share one timeline; heartbeat *liveness* keeps using the
parent's monotonic clock — see server.py).  The producers follow the
telemetry layer's None-guard contract: with no tracer configured the
orchestration hot paths pay one ``is not None`` test (enforced by
``benchmarks/test_bench_engine.py::
test_disabled_overhead_under_two_percent[spans-alerts]``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .events import CAT_HOST, PH_COMPLETE, PH_INSTANT, TraceEvent

SPANS_SCHEMA = "repro.spans/1"

# The span taxonomy: every orchestration span lands on one of these
# tracks (docs/ARCHITECTURE.md "Fleet observability" documents which
# producer emits what on each).
TRACK_RUN = "host.run"            # experiment / batch lifecycles
TRACK_SCHED = "host.sched"        # point scheduling + cache hit/miss
TRACK_WORKER = "host.worker"      # worker spawn -> exit, point attempts
TRACK_CKPT = "host.checkpoint"    # checkpoint write/load
TRACK_JOURNAL = "host.journal"    # journal appends + replay
TRACK_RETRY = "host.retry"        # retry/backoff + exclusions

SPAN_KINDS = ("span", "instant")

# Process-global id allocator: ids must be unique per *process*, not per
# tracer — in serial (jobs=1) runs the worker tracer lives in the same
# process as the parent, and per-tracer counters would collide on
# ``pid.1``.
_ids = itertools.count(1)


@dataclass(frozen=True)
class SpanContext:
    """The picklable cross-process propagation triple.

    ``epoch_unix_us`` anchors the child tracer to the parent's
    timeline; ``parent_id`` makes the worker's spans children of the
    parent-side span that scheduled them.
    """

    trace_id: str
    parent_id: str
    epoch_unix_us: int


@dataclass
class Span:
    """An open span handle (returned by :meth:`SpanTracer.begin`)."""

    span_id: str
    parent_id: str
    name: str
    track: str
    start_us: int
    args: Dict


class SpanTracer:
    """Collects host-time spans; optionally mirrors them onto a sink/feed.

    ``sink`` is anything with ``emit(TraceEvent)`` — the run's
    ``--trace`` sink (a :class:`~repro.telemetry.bus.RingBufferSink` or
    :class:`~repro.telemetry.bus.JsonlSink`), shared with the simulated
    system — and every closed span/instant is mirrored there as a
    ``CAT_HOST`` event so it lands in Perfetto exports.
    ``feed``/``index`` make this a *worker* tracer: closed records are
    additionally shipped home as ``("span", index, pid, record)``
    tuples.  ``context`` adopts a parent's trace id and epoch (see
    :meth:`child_context`).

    All methods are thread-safe; ids are ``pid.counter`` so concurrent
    processes can never collide.
    """

    def __init__(
        self,
        sink=None,
        feed=None,
        index: Optional[int] = None,
        context: Optional[SpanContext] = None,
        clock=time.time,
    ) -> None:
        self._sink = sink
        self._feed = feed
        self._index = index
        self._clock = clock
        self._lock = threading.Lock()
        if context is not None:
            self.trace_id = context.trace_id
            self.root_id = context.parent_id
            self.epoch_unix_us = context.epoch_unix_us
        else:
            self.epoch_unix_us = int(clock() * 1e6)
            self.trace_id = f"{os.getpid():x}-{self.epoch_unix_us:x}"
            self.root_id = ""
        self.records: List[Dict] = []

    # ------------------------------------------------------------------ #
    # Time and identity.
    # ------------------------------------------------------------------ #

    def now_us(self) -> int:
        """Microseconds since the trace epoch (clamped non-negative, so
        cross-process clock skew can never produce a negative stamp)."""
        return max(0, int(self._clock() * 1e6) - self.epoch_unix_us)

    def _new_id(self) -> str:
        return f"{os.getpid():x}.{next(_ids):x}"

    def child_context(self, parent: Optional[Span] = None) -> SpanContext:
        """The propagation triple a worker tracer is constructed from."""
        return SpanContext(
            trace_id=self.trace_id,
            parent_id=parent.span_id if parent is not None else self.root_id,
            epoch_unix_us=self.epoch_unix_us,
        )

    # ------------------------------------------------------------------ #
    # Producing spans.
    # ------------------------------------------------------------------ #

    def begin(self, name: str, track: str = TRACK_RUN,
              parent: Optional[Span] = None, **args) -> Span:
        """Open a span; close it with :meth:`end` (non-lexical scopes:
        a worker spawn ends in a different callback than it began)."""
        return Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else self.root_id,
            name=name,
            track=track,
            start_us=self.now_us(),
            args=dict(args),
        )

    def end(self, span: Span, **extra_args) -> Dict:
        if extra_args:
            span.args.update(extra_args)
        record = {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "track": span.track,
            "ts_us": span.start_us,
            "dur_us": max(0, self.now_us() - span.start_us),
            "args": span.args,
        }
        self._record(record)
        return record

    class _SpanScope:
        __slots__ = ("tracer", "span")

        def __init__(self, tracer: "SpanTracer", span: Span) -> None:
            self.tracer = tracer
            self.span = span

        def __enter__(self) -> Span:
            return self.span

        def __exit__(self, exc_type, *exc) -> None:
            if exc_type is not None:
                self.span.args.setdefault("error", exc_type.__name__)
            self.tracer.end(self.span)

    def span(self, name: str, track: str = TRACK_RUN,
             parent: Optional[Span] = None, **args) -> "_SpanScope":
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        return self._SpanScope(self, self.begin(name, track, parent, **args))

    def instant(self, name: str, track: str = TRACK_RUN,
                parent: Optional[Span] = None, **args) -> Dict:
        record = {
            "kind": "instant",
            "trace_id": self.trace_id,
            "span_id": self._new_id(),
            "parent_id": (parent.span_id if parent is not None
                          else self.root_id),
            "name": name,
            "track": track,
            "ts_us": self.now_us(),
            "dur_us": 0,
            "args": dict(args),
        }
        self._record(record)
        return record

    # ------------------------------------------------------------------ #
    # Record fan-out.
    # ------------------------------------------------------------------ #

    def _record(self, record: Dict) -> None:
        with self._lock:
            self.records.append(record)
        if self._sink is not None:
            self._sink.emit(self._to_event(record))
        if self._feed is not None:
            self._feed.put(("span", self._index, os.getpid(), record))

    def ingest(self, record: Dict) -> None:
        """Adopt a record produced by a worker tracer (it arrived over
        the feed channel); mirrored onto this tracer's sink so worker
        spans land in the parent's Perfetto export too."""
        if not isinstance(record, dict) or "span_id" not in record:
            return
        with self._lock:
            self.records.append(record)
        if self._sink is not None:
            self._sink.emit(self._to_event(record))

    @staticmethod
    def _to_event(record: Dict) -> TraceEvent:
        instant = record["kind"] == "instant"
        args = {"trace_id": record["trace_id"],
                "span_id": record["span_id"]}
        if record["parent_id"]:
            args["parent_id"] = record["parent_id"]
        args.update(record["args"])
        return TraceEvent(
            ts=record["ts_us"],
            phase=PH_INSTANT if instant else PH_COMPLETE,
            category=CAT_HOST,
            name=record["name"],
            track=record["track"],
            dur=0 if instant else record["dur_us"],
            id=record["span_id"],
            args=args,
        )

    # ------------------------------------------------------------------ #
    # The repro.spans/1 artifact.
    # ------------------------------------------------------------------ #

    def document(self) -> Dict:
        """The serializable span document (sorted by timestamp, then id,
        so a document is deterministic for a given set of records)."""
        with self._lock:
            spans = sorted(self.records,
                           key=lambda r: (r["ts_us"], r["span_id"]))
        return {
            "schema": SPANS_SCHEMA,
            "trace_id": self.trace_id,
            "epoch_unix_us": self.epoch_unix_us,
            "spans": spans,
        }


def write_spans(path, tracer: SpanTracer) -> int:
    """Write the tracer's ``repro.spans/1`` document; returns the span
    count."""
    from repro.telemetry.manifest import write_document
    document = tracer.document()
    write_document(path, document)
    return len(document["spans"])
