"""The trace sinks: where ``--trace`` events land.

Design contract (see docs/ARCHITECTURE.md "Observability"):

* **One sink, one slot.**  A run hands its sink to
  ``CMPSystem(telemetry=...)``, which attaches it to the lifecycle
  probe (:mod:`repro.telemetry.probe`) like any other view.  The probe
  builds every simulated :class:`~repro.telemetry.events.TraceEvent`
  from what its hooks receive; no component knows the trace format,
  and an untraced run builds no event at all.  QoS controller
  decisions, CPI counter tracks, runner orchestration events and host
  spans (``SpanTracer(sink=...)``) emit to the same sink.
* **Sinks are dumb.**  A sink implements ``emit(event)`` and may
  implement ``close()``.  Buffering policy lives in the sink, not the
  producers.
* **Producers never format.**  Rendering (Perfetto JSON, JSONL)
  happens in sinks/exporters after the fact.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO

from .events import TraceEvent


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
