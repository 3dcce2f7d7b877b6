"""The telemetry bus and the sinks that subscribe to it.

Design contract (see docs/ARCHITECTURE.md "Observability"):

* **Zero overhead when disabled.**  Components hold a ``_trace``
  attribute that is ``None`` by default; every instrumentation point is
  guarded by ``if self._trace is not None``.  No bus object, no event
  object, no call is constructed on the disabled path — the cost is one
  attribute load and an identity test, and only on *request-level*
  paths (grants, allocations, retirements), never inside per-cycle
  inner loops.
* **Sinks are dumb.**  A sink implements ``emit(event)`` (the
  ``TraceSink`` protocol) and may implement ``close()``.  Fan-out,
  filtering and buffering policy live in the sink, not the producers.
* **Producers never format.**  They emit ``TraceEvent`` records;
  rendering (Perfetto JSON, JSONL, histograms) happens in
  sinks/exporters after the fact.

The bus serves trace sinks and the legacy request log only; the
aggregating views (metrics, attribution, the QoS audit) count through
the lifecycle probe (:mod:`repro.telemetry.probe`) without events.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable, List, Optional, Protocol, runtime_checkable

from .events import TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive telemetry events."""

    def emit(self, event: TraceEvent) -> None: ...


class TelemetryBus:
    """Fans every emitted event out to the attached sinks.

    The bus itself satisfies ``TraceSink``, so buses can be chained and
    components only ever see the one ``emit`` entry point.
    """

    def __init__(self, sinks: Optional[Iterable[TraceSink]] = None):
        self.sinks: List[TraceSink] = list(sinks) if sinks else []

    def attach(self, sink: TraceSink) -> TraceSink:
        self.sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        self.sinks.remove(sink)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    The default sink for interactive runs: bounded memory, and the
    whole buffer can be handed to the Perfetto exporter afterwards.
    """

    def __init__(self, capacity: int = 1_000_000):
        self.events: deque = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class JsonlSink:
    """Streams events to a file as one JSON object per line.

    For runs too long to buffer: constant memory, crash-safe up to the
    last flushed line.  Non-JSON-serializable ``args`` values (e.g. the
    live ``MemoryRequest`` attached to retirement events) degrade to
    ``repr`` rather than failing the run.
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file: IO = path_or_file
            self._owns = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True

    def emit(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), default=repr))
        self._file.write("\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


class RequestLogSink:
    """Collects retired read requests, in retirement order — bounded.

    Backs the legacy ``CMPSystem.request_log`` API: the analysis helpers
    (`repro.analysis.latency`) consume the stamped ``MemoryRequest``
    objects that ride on request-end events.  The log keeps the *first*
    ``capacity`` retirements (so results are identical to the old
    unbounded list on any run that fits the bound) and counts the rest
    in ``dropped``.  Exact tail quantiles over every demand load come
    from request tracing (``repro.telemetry.requests``), not this log.
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 0:
            raise ValueError("request-log capacity must be >= 0")
        self.capacity = capacity
        self.requests: list = []
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if event.category != "request" or event.phase != "e":
            return
        args = event.args
        if args is None:
            return
        request = args.get("request")
        if request is None or not request.is_read:
            return
        if len(self.requests) < self.capacity:
            self.requests.append(request)
        else:
            self.dropped += 1
