"""Interference attribution: who delayed whom at each shared resource.

The paper's Figures 2-3 argue that cross-thread interference at shared-
cache arbiters is invisible to conventional counters; a QoS scheme is
only auditable if every cycle a thread spent *waiting* can be charged to
the thread whose grant made it wait.  :class:`InterferenceAttributor`
does exactly that, purely from the arbiter enqueues and grants the
lifecycle probe (:mod:`repro.telemetry.probe`) reports — integers, no
event objects.

Mechanics.  Each grant reports the granted thread and the real service
duration; because a resource's arbiter is only consulted while its
:class:`~repro.common.stats.UtilizationMeter` is free, grant busy
intervals on one track never overlap.  The rule: an enqueue opens a
wait, and every grant charges its busy interval ``[ts, ts+dur)`` to the
*granted* (aggressor) thread on every other entry still waiting.  An
entry enqueued while the resource is busy is pre-charged the remainder
of the in-progress interval.  When the waiting entry is itself granted,
its wait closes and its per-aggressor charges move into the matrix.

Implementation, O(threads) per event instead of O(waiting entries) per
grant: each track keeps the cumulative cycles granted per aggressor.  A
wait stores that vector at enqueue (plus its pre-charge), and its
charges are the vector's growth by the grant that closes it — exactly
the grants issued while it waited, which is what the rule adds up.

Conservation invariant (tested property-based over random schedules):
for every (resource, victim) pair,

    queueing_delay == sum_over_aggressors(matrix[victim]) + idle_wait

where ``idle_wait`` is wait spent while the resource sat idle (nobody to
blame — scheduling latency, not interference).  Waits still open when
the run ends are dropped from both sides, keeping the identity exact.

Grants do not say *which* buffered entry was served, so waits are
matched FIFO per (track, thread).  Intra-thread reordering (the
Read-over-Write optimization) can permute the matching, but per-thread
delay totals are matching-invariant (``sum(grant ts) - sum(enqueue
ts)``), and charges are computed from the same matched windows, so the
invariant and the totals stay exact.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

ATTRIBUTION_SCHEMA = "repro.attribution/1"

#: One open wait: (enqueue cycle, the track's cumulative per-aggressor
#: granted cycles at enqueue, pre-charged owner or -1, pre-charge).
_Wait = Tuple[int, Tuple[int, ...], int, int]


class _TrackState:
    """Waiting set, cumulative grants and busy interval for one track,
    plus its rows of the attributor's per-track tables."""

    __slots__ = ("waiting", "granted", "busy_until", "busy_owner",
                 "matrix", "delay", "idle_wait", "waits_closed")

    def __init__(self, n_threads: int) -> None:
        self.waiting: List[Deque[_Wait]] = [deque() for _ in range(n_threads)]
        self.granted = [0] * n_threads
        self.busy_until = 0
        self.busy_owner = -1
        self.matrix = [[0] * n_threads for _ in range(n_threads)]
        self.delay = [0] * n_threads
        self.idle_wait = [0] * n_threads
        self.waits_closed = [0] * n_threads


class InterferenceAttributor:
    """Per-resource interference matrices, fed by the lifecycle probe.

    ``matrix[track][victim][aggressor]`` counts the waiting cycles
    ``victim`` spent on ``track`` while it was busy serving a grant to
    ``aggressor`` (the diagonal is self-interference: waiting behind
    one's own earlier grant).
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError("attribution needs at least one thread")
        self.n_threads = n_threads
        self._tracks: Dict[str, _TrackState] = {}
        self.matrix: Dict[str, List[List[int]]] = {}
        self.delay: Dict[str, List[int]] = {}      # closed-wait queueing delay
        self.idle_wait: Dict[str, List[int]] = {}  # wait with nobody to blame
        self.waits_closed: Dict[str, List[int]] = {}
        self.dropped_waits = 0  # open at finish(); excluded from everything

    def _track(self, name: str) -> _TrackState:
        state = self._tracks.get(name)
        if state is None:
            state = self._tracks[name] = _TrackState(self.n_threads)
            self.matrix[name] = state.matrix
            self.delay[name] = state.delay
            self.idle_wait[name] = state.idle_wait
            self.waits_closed[name] = state.waits_closed
        return state

    # ------------------------------------------------------------------ #
    # Arbiter hooks (called by repro.telemetry.probe).
    # ------------------------------------------------------------------ #

    def enqueued(self, track: str, tid: int, ts: int) -> None:
        """``tid`` entered ``track``'s arbiter queue at ``ts``."""
        state = self._tracks.get(track) or self._track(track)
        owner = state.busy_owner
        precharge = 0
        if ts < state.busy_until and owner >= 0:
            # Born into an in-progress busy interval: the grant that
            # opened it is already counted, so pre-charge its remainder.
            precharge = state.busy_until - ts
        else:
            owner = -1
        state.waiting[tid].append((ts, tuple(state.granted), owner,
                                   precharge))

    def granted(self, track: str, tid: int, ts: int, duration: int) -> None:
        """``track`` granted ``tid`` ``duration`` service cycles at
        ``ts``: the thread's oldest wait closes, and the busy interval
        delays everyone still waiting."""
        state = self._tracks.get(track) or self._track(track)
        queue = state.waiting[tid]
        if queue:
            self._close_wait(state, tid, queue.popleft(), ts)
        if duration > 0:
            state.granted[tid] += duration
            state.busy_until = ts + duration
            state.busy_owner = tid

    def _close_wait(self, state: _TrackState, tid: int, wait: _Wait,
                    granted_at: int) -> None:
        enqueued, base, owner, precharge = wait
        row = state.matrix[tid]
        granted = state.granted
        charged = precharge
        for aggressor in range(self.n_threads):
            cycles = granted[aggressor] - base[aggressor]
            row[aggressor] += cycles
            charged += cycles
        if owner >= 0:
            row[owner] += precharge
        delay = granted_at - enqueued
        state.delay[tid] += delay
        state.idle_wait[tid] += delay - charged
        state.waits_closed[tid] += 1

    def finish(self, end: int) -> None:
        """Drop still-open waits (their delay is not yet defined)."""
        for state in self._tracks.values():
            for waits in state.waiting:
                self.dropped_waits += len(waits)
                waits.clear()

    # ------------------------------------------------------------------ #
    # Queries and export.
    # ------------------------------------------------------------------ #

    def conservation_errors(self) -> List[str]:
        """Violations of the charge-conservation identity (expect [])."""
        errors = []
        for track, matrix in self.matrix.items():
            for tid in range(self.n_threads):
                attributed = sum(matrix[tid]) + self.idle_wait[track][tid]
                observed = self.delay[track][tid]
                if attributed != observed:
                    errors.append(
                        f"{track} thread {tid}: attributed {attributed} != "
                        f"observed queueing delay {observed}"
                    )
                if self.idle_wait[track][tid] < 0:
                    errors.append(
                        f"{track} thread {tid}: negative idle wait "
                        f"{self.idle_wait[track][tid]}"
                    )
        return errors

    @staticmethod
    def resource_class(track: str) -> str:
        """Fold per-bank tracks into resource classes: "bank3.data" ->
        "data"; tracks without a bank prefix name themselves."""
        head, dot, tail = track.partition(".")
        if dot and head.startswith("bank"):
            return tail
        return track

    def by_resource_class(self) -> Dict[str, List[List[int]]]:
        """Matrices summed over banks of the same resource class."""
        folded: Dict[str, List[List[int]]] = {}
        for track, matrix in self.matrix.items():
            name = self.resource_class(track)
            into = folded.get(name)
            if into is None:
                folded[name] = [list(row) for row in matrix]
            else:
                for victim in range(self.n_threads):
                    for aggressor in range(self.n_threads):
                        into[victim][aggressor] += matrix[victim][aggressor]
        return folded

    def interference_received(self) -> List[int]:
        """Per-victim cycles lost to *other* threads, over all resources."""
        totals = [0] * self.n_threads
        for matrix in self.matrix.values():
            for victim in range(self.n_threads):
                for aggressor in range(self.n_threads):
                    if aggressor != victim:
                        totals[victim] += matrix[victim][aggressor]
        return totals

    def interference_caused(self) -> List[int]:
        """Per-aggressor cycles inflicted on *other* threads."""
        totals = [0] * self.n_threads
        for matrix in self.matrix.values():
            for victim in range(self.n_threads):
                for aggressor in range(self.n_threads):
                    if aggressor != victim:
                        totals[aggressor] += matrix[victim][aggressor]
        return totals

    def snapshot(self) -> Dict:
        """JSON-able form, folded by resource class (per-track detail
        under ``tracks``)."""
        classes = self.by_resource_class()

        def fold(per_track: Dict[str, List[int]]) -> Dict[str, List[int]]:
            out: Dict[str, List[int]] = {}
            for track, row in per_track.items():
                name = self.resource_class(track)
                into = out.get(name)
                if into is None:
                    out[name] = list(row)
                else:
                    for tid in range(self.n_threads):
                        into[tid] += row[tid]
            return out

        delay = fold(self.delay)
        idle = fold(self.idle_wait)
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "n_threads": self.n_threads,
            "resources": {
                name: {
                    "matrix": classes[name],
                    "queueing_delay": delay[name],
                    "idle_wait": idle[name],
                }
                for name in sorted(classes)
            },
            "tracks": {
                track: {
                    "matrix": self.matrix[track],
                    "queueing_delay": self.delay[track],
                    "idle_wait": self.idle_wait[track],
                    "waits_closed": self.waits_closed[track],
                }
                for track in sorted(self.matrix)
            },
            "interference_received": self.interference_received(),
            "interference_caused": self.interference_caused(),
            "dropped_waits": self.dropped_waits,
        }


def merge_attribution(snapshots: List[Optional[Dict]]) -> Optional[Dict]:
    """Sum attribution snapshots (cross-process experiment merge).

    Thread ids align positionally across points; snapshots from smaller
    runs (e.g. an experiment's private-machine target points) pad the
    missing threads with zeros.
    """
    live = [snap for snap in snapshots if snap]
    if not live:
        return None
    n = max(snap["n_threads"] for snap in live)
    out: Dict = {
        "schema": ATTRIBUTION_SCHEMA,
        "n_threads": n,
        "resources": {},
        "tracks": {},
        "interference_received": [0] * n,
        "interference_caused": [0] * n,
        "dropped_waits": 0,
    }

    def add_rows(into: List, rows: List) -> None:
        for index, value in enumerate(rows):
            if isinstance(value, list):
                add_rows(into[index], value)
            else:
                into[index] += value

    for snap in live:
        for section in ("resources", "tracks"):
            for name, data in snap.get(section, {}).items():
                into = out[section].setdefault(name, {})
                for key, value in data.items():
                    if not isinstance(value, list):
                        continue
                    if key not in into:
                        into[key] = (
                            [[0] * n for _ in range(n)]
                            if value and isinstance(value[0], list)
                            else [0] * n
                        )
                    add_rows(into[key], value)
        add_rows(out["interference_received"],
                 snap.get("interference_received", []))
        add_rows(out["interference_caused"],
                 snap.get("interference_caused", []))
        out["dropped_waits"] += snap.get("dropped_waits", 0)
    return out
