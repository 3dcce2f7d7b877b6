"""Request-scope tracing: per-request waterfalls, tail exemplars, SLOs.

Where :mod:`repro.telemetry.cycles` answers "where did every *cycle*
go", this module answers "where did every *request* go": each completed
demand load's end-to-end latency is decomposed into per-stage segments
— the eight stages of :data:`repro.telemetry.probe.STAGES`, shared with
the CPI-stack buckets — with the conservation contract that the
segments of every traced request sum **exactly** to its
issue→critical-word latency, on both kernels.

Three consumers ride on the per-request journeys:

* **exact streaming quantiles** — per-thread p50/p95/p99/p999 computed
  from a latency→count map, value-identical to sorting the full request
  log (``ordered[min(n-1, ceil(f*n)-1)]``), without keeping the log;
* **worst-k exemplars** — a bounded reservoir of the slowest requests
  per thread, each carrying its full segment waterfall (exported as
  Perfetto slices on per-thread ``req.tN`` tracks, flow-linked to the
  request's async span on the simulated-cycle timeline);
* **SLO attainment** — declarative latency targets ("99% of thread 0's
  loads under 400 cycles") evaluated into per-thread attainment
  fractions, plus a worst-case burn rate for the alert engine's
  ``slo_burn`` signal.

Journeys are driven by the :class:`~repro.telemetry.probe.LifecycleProbe`:
a journey opens when a demand load reaches its bank (back-dated to the
load's issue cycle), shifts segment on every stage transition the probe
classifies, and completes at the critical word.  This module never sees
a component event directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import CAT_REQUEST, PH_COMPLETE, TraceEvent
from repro.telemetry.probe import N_STAGES, S_BANKQ, S_XFER, STAGES

#: Schema tag of a request-tracing JSON document.
REQUESTS_SCHEMA = "repro.requests/1"

# Chrome trace_event flow phases (the exporter links the exemplar
# waterfall back to the request's async span with these).
PH_FLOW_START = "s"
PH_FLOW_FINISH = "f"

# Journey segments are the probe's stages.  Store-buffer and MSHR
# waits happen *before* a demand load's request exists (they are
# core-side stalls, visible in the CPI stacks), so a journey starts at
# the issue cycle and its first segment is the core->bank transit.
SEGMENTS = STAGES
N_SEGMENTS = N_STAGES

#: Quantiles every summary reports, with their fractions.
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999),
)


def exact_quantile(counts: Dict[int, int], total: int, fraction: float):
    """The ``fraction`` quantile of a latency→count map, value-identical
    to ``sorted(latencies)[min(total - 1, ceil(fraction * total) - 1)]``
    (the :class:`repro.analysis.latency.LatencySummary` convention)."""
    if total <= 0:
        return None
    index = min(total - 1, math.ceil(fraction * total) - 1)
    seen = 0
    for latency in sorted(counts):
        seen += counts[latency]
        if seen > index:
            return latency
    raise RuntimeError("latency counts inconsistent with total")


class StreamingLatencies:
    """Exact per-thread streaming latency summaries plus worst-k
    exemplars.  Threads are materialized on first use."""

    def __init__(self, exemplar_k: int = 8) -> None:
        if exemplar_k < 1:
            raise ValueError("need at least one exemplar slot")
        self.exemplar_k = exemplar_k
        self._counts: Dict[int, Dict[int, int]] = {}
        self._totals: Dict[int, int] = {}
        self._max: Dict[int, int] = {}
        self._exemplars: Dict[int, List[dict]] = {}

    def add(self, tid: int, latency: int, exemplar: Optional[dict] = None) -> None:
        counts = self._counts.setdefault(tid, {})
        counts[latency] = counts.get(latency, 0) + 1
        self._totals[tid] = self._totals.get(tid, 0) + 1
        if latency > self._max.get(tid, -1):
            self._max[tid] = latency
        if exemplar is None:
            return
        worst = self._exemplars.setdefault(tid, [])
        if len(worst) < self.exemplar_k:
            worst.append(exemplar)
            return
        # Replace the current minimum only on a strictly greater
        # latency: ties keep the earlier request, which makes the
        # reservoir deterministic (and therefore kernel-identical,
        # since completion order is bit-identical across kernels).
        low, low_latency = 0, worst[0]["latency"]
        for index in range(1, len(worst)):
            if worst[index]["latency"] < low_latency:
                low, low_latency = index, worst[index]["latency"]
        if latency > low_latency:
            worst[low] = exemplar

    def loads(self, tid: int) -> int:
        return self._totals.get(tid, 0)

    def quantiles(self, tid: int) -> Dict[str, Optional[int]]:
        counts = self._counts.get(tid, {})
        total = self._totals.get(tid, 0)
        return {
            name: exact_quantile(counts, total, fraction)
            for name, fraction in QUANTILES
        }

    def maximum(self, tid: int) -> Optional[int]:
        return self._max.get(tid)

    def attainment(self, tid: int, threshold: int) -> Optional[float]:
        """Fraction of thread ``tid``'s loads at or under ``threshold``."""
        total = self._totals.get(tid, 0)
        if not total:
            return None
        within = sum(
            count for latency, count in self._counts[tid].items()
            if latency <= threshold
        )
        return within / total

    def exemplars(self, tid: int) -> List[dict]:
        """Worst-first exemplars (latency desc, then issue order)."""
        return sorted(
            self._exemplars.get(tid, ()),
            key=lambda ex: (-ex["latency"], ex["issued_cycle"]),
        )

    def reset(self) -> None:
        self._counts.clear()
        self._totals.clear()
        self._max.clear()
        self._exemplars.clear()


# ---------------------------------------------------------------------- #
# SLO rules.
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class SLORule:
    """One declarative latency target: ``target`` fraction of a
    thread's demand loads (every thread when ``thread`` is None) must
    complete within ``threshold_cycles``."""

    name: str
    threshold_cycles: int
    target: float = 0.99
    thread: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "threshold_cycles": self.threshold_cycles,
            "target": self.target,
            "thread": self.thread,
        }


def _rule_from_dict(raw: Dict, index: int) -> SLORule:
    if not isinstance(raw, dict):
        raise ValueError(f"SLO rule {index} is not an object: {raw!r}")
    try:
        threshold = int(raw["threshold_cycles"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"SLO rule {index} needs integer threshold_cycles")
    target = float(raw.get("target", 0.99))
    if not 0.0 < target <= 1.0:
        raise ValueError(f"SLO rule {index}: target {target} outside (0, 1]")
    if threshold <= 0:
        raise ValueError(f"SLO rule {index}: threshold must be positive")
    thread = raw.get("thread")
    if thread is not None:
        thread = int(thread)
    name = str(raw.get("name") or f"slo{index}")
    return SLORule(name=name, threshold_cycles=threshold,
                   target=target, thread=thread)


def load_slo(spec: str) -> List[SLORule]:
    """Parse an ``--slo`` argument.

    An integer is shorthand for one fleet-wide rule — 99% of every
    thread's loads under that many cycles.  Anything else is a path to
    a JSON or TOML document with an ``slos`` list of rule objects
    (``name``/``threshold_cycles``/``target``/``thread``).
    """
    spec = spec.strip()
    try:
        threshold = int(spec)
    except ValueError:
        pass
    else:
        if threshold <= 0:
            raise ValueError(f"--slo threshold must be positive: {spec}")
        return [SLORule(name=f"p99-under-{threshold}",
                        threshold_cycles=threshold)]
    with open(spec, "rb") as fh:
        raw_bytes = fh.read()
    try:
        doc = json.loads(raw_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        import tomllib
        doc = tomllib.loads(raw_bytes.decode("utf-8"))
    rules = doc.get("slos") if isinstance(doc, dict) else None
    if not isinstance(rules, list) or not rules:
        raise ValueError(f"{spec}: expected an object with an 'slos' list")
    return [_rule_from_dict(raw, index) for index, raw in enumerate(rules)]


# ---------------------------------------------------------------------- #
# The tracer.
# ---------------------------------------------------------------------- #

class _Journey:
    """One in-flight demand load: its open segment and closed totals."""

    __slots__ = ("req_id", "seq", "line", "issued", "mark", "seg", "segments")

    def __init__(self, request, now: int) -> None:
        self.req_id = request.req_id
        self.seq = request.seq
        self.line = request.line
        self.issued = request.issued_cycle
        self.segments = [0] * N_SEGMENTS
        self.segments[S_XFER] = now - self.issued
        self.mark = now
        self.seg = S_BANKQ


class RequestTracer:
    """Mutable request-scope tracing state fed by the lifecycle probe.

    One instance per :class:`~repro.system.cmp.CMPSystem`, attached via
    ``system.attach_request_tracing()``.  Pickled with the system object
    graph, so checkpoint/resume keeps journeys and summaries exact.

    Each probe transition closes the journey's open segment at the
    component's action cycle and opens the next, so the segment sum
    equals the end-to-end latency by construction.
    """

    def __init__(self, n_threads: int, exemplar_k: int = 8,
                 slo_rules: Tuple[SLORule, ...] = ()) -> None:
        if n_threads < 1:
            raise ValueError("request tracing needs at least one thread")
        self.n_threads = n_threads
        self.exemplar_k = exemplar_k
        self.slo_rules = tuple(slo_rules)
        self._open: Dict[int, _Journey] = {}
        self.stats = StreamingLatencies(exemplar_k)
        self._base_cycle = 0

    # ---------------------------- journeys ---------------------------- #

    def open(self, request, now: int) -> None:
        """A demand load reached its bank at ``now``: the transit from
        its issue cycle closes, and bank-conflict waiting begins."""
        self._open[request.req_id] = _Journey(request, now)

    def shift(self, req_id: int, stage: int, now: int) -> None:
        """The journey of ``req_id`` (if traced) enters ``stage``."""
        journey = self._open.get(req_id)
        if journey is not None:
            journey.segments[journey.seg] += now - journey.mark
            journey.mark = now
            journey.seg = stage

    def complete(self, request, now: int) -> None:
        """Critical word reached the core: the journey completes."""
        journey = self._open.pop(request.req_id, None)
        if journey is None:
            return
        journey.segments[journey.seg] += now - journey.mark
        latency = now - journey.issued
        self.stats.add(request.thread_id, latency, {
            "req_id": journey.req_id,
            "seq": journey.seq,
            "line": journey.line,
            "issued_cycle": journey.issued,
            "latency": latency,
            "segments": list(journey.segments),
        })

    # ----------------------- interval management --------------------- #

    def rebase(self, now: int) -> None:
        """Start the measurement interval at ``now`` (end of warmup):
        completed-request summaries reset; in-flight journeys keep their
        pre-rebase segments (a request straddling the boundary still
        conserves its full latency)."""
        self.stats.reset()
        self._base_cycle = now

    # ---------------------------- outputs ----------------------------- #

    def document(self, now: int) -> Dict:
        """Schema-tagged request-tracing document for cycle ``now``."""
        threads = []
        for tid in range(self.n_threads):
            exemplars = [
                {key: ex[key] for key in
                 ("seq", "line", "issued_cycle", "latency", "segments")}
                for ex in self.stats.exemplars(tid)
            ]
            threads.append({
                "loads": self.stats.loads(tid),
                "max": self.stats.maximum(tid),
                "quantiles": self.stats.quantiles(tid),
                "exemplars": exemplars,
            })
        doc = {
            "schema": REQUESTS_SCHEMA,
            "n_threads": self.n_threads,
            "segments": list(SEGMENTS),
            "exemplar_k": self.exemplar_k,
            "measured_cycles": now - self._base_cycle,
            "threads": threads,
        }
        if self.slo_rules:
            rules = []
            for rule in self.slo_rules:
                row = rule.to_dict()
                row["attainment"] = [
                    self.stats.attainment(tid, rule.threshold_cycles)
                    if rule.thread is None or rule.thread == tid else None
                    for tid in range(self.n_threads)
                ]
                rules.append(row)
            doc["slo"] = {"rules": rules}
        return doc

    def exemplar_trace_events(self) -> List[TraceEvent]:
        """Perfetto slices for the worst-k exemplar waterfalls: one
        ``X`` slice per non-zero segment on the thread's ``req.tN``
        track, flow-linked by req_id to the request's async lifecycle
        span on the simulated-cycle timeline."""
        events: List[TraceEvent] = []
        for tid in range(self.n_threads):
            track = f"req.t{tid}"
            for ex in self.stats.exemplars(tid):
                cursor = ex["issued_cycle"]
                events.append(TraceEvent(
                    ts=cursor, phase=PH_FLOW_START, category=CAT_REQUEST,
                    name="exemplar", track=track, tid=tid, id=ex["req_id"],
                ))
                for index, cycles in enumerate(ex["segments"]):
                    if not cycles:
                        continue
                    events.append(TraceEvent(
                        ts=cursor, phase=PH_COMPLETE, category=CAT_REQUEST,
                        name=SEGMENTS[index], track=track, tid=tid,
                        dur=cycles,
                        args={"req": ex["req_id"], "latency": ex["latency"]},
                    ))
                    cursor += cycles
                events.append(TraceEvent(
                    ts=cursor, phase=PH_FLOW_FINISH, category=CAT_REQUEST,
                    name="exemplar", track=f"t{tid}", tid=tid,
                    id=ex["req_id"],
                ))
        return events


# ---------------------------------------------------------------------- #
# Derived signals + offline verification (pure functions of documents).
# ---------------------------------------------------------------------- #

def slo_burn(doc: Optional[Dict]) -> Optional[float]:
    """Worst-case SLO burn rate across rules and threads: the achieved
    miss fraction over the budgeted miss fraction, so 1.0 means exactly
    on target and >1.0 means the error budget is burning too fast.
    Returns None when the document carries no evaluable SLO."""
    if not doc:
        return None
    rules = (doc.get("slo") or {}).get("rules")
    if not rules:
        return None
    worst = None
    for rule in rules:
        target = rule.get("target", 0.99)
        budget = 1.0 - target
        if budget <= 0:
            continue
        for attained in rule.get("attainment") or []:
            if attained is None:
                continue
            burn = (1.0 - attained) / budget
            if worst is None or burn > worst:
                worst = burn
    return worst


def verify_requests(payload: Dict) -> List[str]:
    """Re-check a request-tracing document offline; returns a list of
    human-readable errors (empty = valid).  The load-bearing invariants:
    quantiles are monotone, exemplar segments conserve exactly (sum ==
    latency), and attainment fractions stay inside [0, 1]."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["requests: not a JSON object"]
    if payload.get("schema") != REQUESTS_SCHEMA:
        errors.append(
            f"requests: schema {payload.get('schema')!r} != {REQUESTS_SCHEMA!r}"
        )
    if payload.get("segments") != list(SEGMENTS):
        errors.append(
            f"requests: segment taxonomy mismatch: {payload.get('segments')!r}"
        )
    n_threads = payload.get("n_threads")
    threads = payload.get("threads")
    if not isinstance(threads, list) or not isinstance(n_threads, int):
        errors.append("requests: missing threads/n_threads")
        return errors
    if len(threads) != n_threads:
        errors.append(f"requests: {len(threads)} rows for {n_threads} threads")
    names = [name for name, _ in QUANTILES]
    for tid, row in enumerate(threads):
        if not isinstance(row, dict):
            errors.append(f"requests: thread {tid} row malformed")
            continue
        loads = row.get("loads")
        quantiles = row.get("quantiles") or {}
        ordered = [quantiles.get(name) for name in names] + [row.get("max")]
        if loads:
            values = [v for v in ordered if v is not None]
            if len(values) != len(ordered):
                errors.append(f"requests: thread {tid} missing quantiles")
            elif any(a > b for a, b in zip(values, values[1:])):
                errors.append(
                    f"requests: thread {tid} quantiles not monotone: {values}"
                )
        exemplars = row.get("exemplars") or []
        if len(exemplars) > payload.get("exemplar_k", len(exemplars)):
            errors.append(f"requests: thread {tid} exemplars exceed k")
        for ex in exemplars:
            segments = ex.get("segments")
            if (not isinstance(segments, list)
                    or len(segments) != N_SEGMENTS
                    or any((not isinstance(v, int)) or v < 0
                           for v in segments)):
                errors.append(
                    f"requests: thread {tid} exemplar segments malformed"
                )
                continue
            if sum(segments) != ex.get("latency"):
                errors.append(
                    f"requests: thread {tid} exemplar segments sum to "
                    f"{sum(segments)}, latency is {ex.get('latency')} "
                    f"(conservation violated)"
                )
    for rule in (payload.get("slo") or {}).get("rules", []):
        for attained in rule.get("attainment") or []:
            if attained is None:
                continue
            if not 0.0 <= attained <= 1.0:
                errors.append(
                    f"requests: rule {rule.get('name')!r} attainment "
                    f"{attained} outside [0, 1]"
                )
    return errors


def write_requests(path, doc: Dict) -> None:
    """Write a request-tracing document to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def render_requests(doc: Dict) -> List[str]:
    """Aligned text table for a request-tracing document (report cards,
    CLI summaries)."""
    lines = ["request latency (cycles since issue):",
             f"  {'thread':>6}  {'loads':>8}  {'p50':>7}  {'p95':>7}"
             f"  {'p99':>7}  {'p999':>7}  {'max':>7}"]
    for tid, row in enumerate(doc.get("threads", [])):
        quantiles = row.get("quantiles") or {}

        def cell(value):
            return "-" if value is None else str(value)

        lines.append(
            f"  {f't{tid}':>6}  {row.get('loads', 0):>8}"
            f"  {cell(quantiles.get('p50')):>7}  {cell(quantiles.get('p95')):>7}"
            f"  {cell(quantiles.get('p99')):>7}  {cell(quantiles.get('p999')):>7}"
            f"  {cell(row.get('max')):>7}"
        )
    for rule in (doc.get("slo") or {}).get("rules", []):
        cells = []
        for tid, attained in enumerate(rule.get("attainment") or []):
            if attained is None:
                continue
            cells.append(f"t{tid}={attained * 100:.2f}%")
        met = all(
            attained >= rule["target"]
            for attained in rule.get("attainment") or [] if attained is not None
        )
        lines.append(
            f"  slo {rule['name']} (<= {rule['threshold_cycles']} cycles, "
            f"target {rule['target'] * 100:g}%): "
            f"{'met' if met else 'MISSED'}  {' '.join(cells)}"
        )
    worst = []
    for tid, row in enumerate(doc.get("threads", [])):
        exemplars = row.get("exemplars") or []
        if exemplars:
            worst.append((tid, exemplars[0]))
    if worst:
        segments = doc.get("segments") or list(SEGMENTS)
        lines.append("  worst exemplar per thread:")
        for tid, ex in worst:
            waterfall = " ".join(
                f"{segments[i]}={v}" for i, v in enumerate(ex["segments"]) if v
            )
            lines.append(
                f"    t{tid} @{ex['issued_cycle']}: {ex['latency']} cycles"
                f"  [{waterfall}]"
            )
    return lines
