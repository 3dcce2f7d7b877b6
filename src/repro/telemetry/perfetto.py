"""Chrome/Perfetto ``trace_event`` JSON exporter.

Renders a captured event stream (typically a ``RingBufferSink``) into
the JSON Array Format understood by ``ui.perfetto.dev`` and
``chrome://tracing``:

* **process 1 — "hardware threads"**: one timeline row per hardware
  thread (``t0``, ``t1``, ...) carrying async begin/end spans for every
  memory-request lifecycle plus the crossbar transport slices.
* **process 2 — "shared resources"**: one row per contended resource
  (``bank0.tag``, ``bank0.data``, ``bank0.bus``, ``dram.ch*``, SGB and
  MSHR tracks) carrying occupancy slices and arbiter grant markers.
* **process 3 — "kernel"**: skip-ahead markers and counter tracks.
* **process 4 — "host orchestration"**: wall-clock spans from the
  orchestration layer (``CAT_RUN`` point/cache markers and ``CAT_HOST``
  spans from :mod:`repro.telemetry.spans`) on ``host.*`` tracks — one
  trace file shows simulated cycles and host time side by side.

Timestamps are simulated cycles reported as microseconds (1 cycle =
1 us) — Perfetto needs *some* time unit and the ratio view is what
matters for a simulator.  Host-orchestration events are genuine
wall-clock microseconds; the separate process keeps the two time bases
visually apart.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from .events import (
    CAT_HOST,
    CAT_KERNEL,
    CAT_REQUEST,
    CAT_RUN,
    CAT_XBAR,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
    TraceEvent,
)

PID_THREADS = 1
PID_RESOURCES = 2
PID_KERNEL = 3
PID_HOST = 4

# Flow phases (request-waterfall exemplars, repro.telemetry.requests):
# arrows linking a request's issue point on the thread timeline to its
# per-stage waterfall on the ``req.t<tid>`` track.
_PH_FLOW = ("s", "t", "f")

_PROCESS_NAMES = {
    PID_THREADS: "hardware threads",
    PID_RESOURCES: "shared resources",
    PID_KERNEL: "kernel",
    PID_HOST: "host orchestration",
}


def _pid_for(event: TraceEvent) -> int:
    if event.category in (CAT_RUN, CAT_HOST):
        return PID_HOST
    if event.category in (CAT_REQUEST, CAT_XBAR):
        return PID_THREADS
    if event.category == CAT_KERNEL or event.phase == PH_COUNTER:
        return PID_KERNEL
    return PID_RESOURCES


class _TrackIds:
    """Stable, first-seen-ordered track -> tid numbering per process."""

    def __init__(self):
        self._ids: Dict[int, Dict[str, int]] = {}

    def tid(self, pid: int, track: str) -> int:
        tracks = self._ids.setdefault(pid, {})
        if track not in tracks:
            tracks[track] = len(tracks)
        return tracks[track]

    def metadata(self) -> List[dict]:
        out = []
        for pid, name in sorted(_PROCESS_NAMES.items()):
            if pid not in self._ids:
                continue
            out.append({
                "ph": "M", "pid": pid, "tid": 0,
                "name": "process_name", "args": {"name": name},
            })
            for track, tid in self._ids[pid].items():
                out.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": track},
                })
        return out


def _json_args(args: dict) -> dict:
    """trace_event args must be JSON values; degrade objects to repr."""
    out = {}
    for key, value in args.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def _counter_args(args: dict) -> dict:
    """Counter ('C') args: every key is a numeric series — drop the
    rest, or Perfetto renders the track as garbage."""
    return {
        key: value for key, value in args.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def chrome_trace(events: Iterable[TraceEvent]) -> List[dict]:
    """Convert an event stream to a trace_event list (JSON-ready).

    Async begin/end spans are balanced on the way out: a request still in
    flight when capture stops gets a synthetic end (marked
    ``truncated``) at the last observed simulated timestamp — host
    events (``CAT_RUN``, ``CAT_HOST``) run on the wall clock, so they
    never advance it — and an end whose begin predates capture
    (ring-buffer eviction) gets a synthetic begin.  Perfetto renders
    unbalanced async events as garbage, and the schema validator treats
    them as errors, so the exporter never emits them.
    """
    tracks = _TrackIds()
    out: List[dict] = []
    open_spans: Dict[tuple, dict] = {}
    last_ts = 0
    for event in events:
        pid = _pid_for(event)
        tid = tracks.tid(pid, event.track)
        record: dict = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            "ts": event.ts,
            "pid": pid,
            "tid": tid,
        }
        if event.phase in (PH_BEGIN, PH_END):
            record["id"] = str(event.id)
        elif event.phase in _PH_FLOW:
            record["id"] = str(event.id)
            if event.phase == "f":
                record["bp"] = "e"  # bind to enclosing slice
        elif event.phase == PH_COMPLETE:
            record["dur"] = event.dur
        elif event.phase == PH_INSTANT:
            record["s"] = "t"
        if event.args:
            record["args"] = (_counter_args(event.args)
                              if event.phase == PH_COUNTER
                              else _json_args(event.args))
        if pid != PID_HOST and event.ts + event.dur > last_ts:
            last_ts = event.ts + event.dur
        if event.phase == PH_BEGIN:
            open_spans[(event.category, record["id"])] = record
        elif event.phase == PH_END:
            begun = open_spans.pop((event.category, record["id"]), None)
            if begun is None:
                out.append({
                    "name": event.name, "cat": event.category,
                    "ph": PH_BEGIN, "ts": event.ts, "pid": pid,
                    "tid": tid, "id": record["id"],
                    "args": {"truncated": True},
                })
        out.append(record)
    for (category, span_id), begun in open_spans.items():
        out.append({
            "name": begun["name"], "cat": category, "ph": PH_END,
            "ts": last_ts, "pid": begun["pid"], "tid": begun["tid"],
            "id": span_id, "args": {"truncated": True},
        })
    return tracks.metadata() + out


def write_chrome_trace(path, events: Iterable[TraceEvent]) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    records = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": records, "displayTimeUnit": "ms"}, fh)
    return len(records)
