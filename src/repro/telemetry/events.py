"""The structured event record every telemetry producer emits.

One event type serves every instrumentation point in the simulator —
arbiter grants, resource occupancy, request lifecycles, DRAM issues,
kernel skip decisions — so sinks can be written once and subscribe by
``category``.  The field vocabulary deliberately mirrors the Chrome
``trace_event`` format (phase letters, timestamps, durations) so the
Perfetto exporter is a near-direct mapping.

Timestamps are **simulated processor cycles** (the orchestration events
emitted by the experiment runner use wall-clock microseconds instead;
the ``track`` namespace keeps them apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

# Phase letters (Chrome trace_event vocabulary).
PH_BEGIN = "b"      # async span begin (paired by (category, id))
PH_END = "e"        # async span end
PH_COMPLETE = "X"   # a slice with an explicit duration
PH_INSTANT = "i"    # a point marker
PH_COUNTER = "C"    # a sampled counter value

# Event categories.  Sinks filter on these; keep them short and stable.
CAT_REQUEST = "request"      # memory-request lifecycles (per-thread tracks)
CAT_RESOURCE = "resource"    # tag/data/bus occupancy (per-bank tracks)
CAT_ARBITER = "arbiter"      # VPC arbiter enqueue/grant + virtual time
CAT_KERNEL = "kernel"        # batch-kernel skip decisions
CAT_MSHR = "mshr"            # per-core MSHR occupancy
CAT_SGB = "sgb"              # store-gather merges
CAT_DRAM = "dram"            # DRAM data-bus occupancy
CAT_XBAR = "crossbar"        # crossbar transport
CAT_RUN = "run"              # experiment-runner orchestration (wall clock)
CAT_CACHE = "cache"          # capacity-manager victimizations + occupancy
CAT_CPI = "cpi"              # per-thread CPI-stack counter tracks
CAT_HOST = "host"            # host-time orchestration spans (wall clock)
CAT_QOS = "qos"              # QoS controller decisions + share trajectories


@dataclass
class TraceEvent:
    """One telemetry event.

    ``track`` names the timeline the event belongs to (``"t0"``,
    ``"bank1.data"``, ``"dram.ch0"``, ...); ``tid`` is the *hardware*
    thread the event is attributed to (-1 when not thread-specific);
    ``dur`` is in the same unit as ``ts`` and only meaningful for
    ``PH_COMPLETE`` slices and arbiter grants (granted service cycles);
    ``id`` pairs ``PH_BEGIN``/``PH_END`` spans within a category.
    """

    ts: int
    phase: str
    category: str
    name: str
    track: str
    tid: int = -1
    dur: int = 0
    id: Optional[Union[int, str]] = None
    args: Optional[Dict] = None

    def to_dict(self) -> Dict:
        """Plain-dict form (JSONL sink, tests).  Omits empty fields."""
        out: Dict = {
            "ts": self.ts,
            "ph": self.phase,
            "cat": self.category,
            "name": self.name,
            "track": self.track,
        }
        if self.tid >= 0:
            out["tid"] = self.tid
        if self.dur:
            out["dur"] = self.dur
        if self.id is not None:
            out["id"] = self.id
        if self.args:
            out["args"] = self.args
        return out
