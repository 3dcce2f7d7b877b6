"""Artifact validation: one table keyed on each writer's schema tag.

Every JSON document the simulator writes carries a ``repro.<kind>/<N>``
tag that its writer module defines as a constant.  :data:`_ROWS` maps
each tag to one row: the force flags that select it, its checker, what
its OK line counts, and its noun.  One dispatch routes any artifact:

* a JSON object goes to its row by tag;
* a JSON list of tagged documents (the experiment runner's
  ``--stacks``/``--requests`` files) is checked element by element;
* other JSON is a Chrome ``trace_event`` trace
  (:func:`validate_chrome_trace`);
* non-JSON text is Prometheus exposition (:func:`validate_prometheus`).

Nested documents go through the same rows: an aggregate's per-point
snapshots; a snapshot's ``attribution``/``cpi_stacks``/``requests``
sections (found by key, since they may omit the tag); and whatever a
report card embeds (found by tag: a card's CPI stack and request
document, a fleet card's run cards and slowdown decomposition).  The
checkers re-verify the conservation identities from the serialized
numbers alone: attributed + idle == queueing delay, CPI-stack buckets
sum to the measured cycles, request segments sum to the latency, and
QoS controller shares never over-allocate.

Run as a module; the kind comes from the content, or is forced with one
of ``--trace --metrics --stacks --prometheus --spans --alerts
--requests --qos --frontier``::

    python -m repro.telemetry.validate trace.json
    python -m repro.telemetry.validate out/fig10.metrics.json
    python -m repro.telemetry.validate --prometheus metrics.prom
"""

from __future__ import annotations

import json
import re
import sys
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.policy_frontier import FRONTIER_SCHEMA
from repro.qos.classifier import LABELS
from repro.qos.controller import QOS_DECISIONS_SCHEMA
from repro.telemetry.alerts import ALERTS_SCHEMA
from repro.telemetry.attribution import ATTRIBUTION_SCHEMA
from repro.telemetry.cycles import (
    BUCKETS,
    CPI_SCHEMA,
    DECOMPOSITION_SCHEMA,
    verify_stack,
)
from repro.telemetry.events import CAT_HOST, CAT_RUN
from repro.telemetry.metrics import AGGREGATE_SCHEMA, METRICS_SCHEMA
from repro.telemetry.report import FLEET_REPORT_SCHEMA, REPORT_SCHEMA
from repro.telemetry.requests import REQUESTS_SCHEMA, verify_requests
from repro.telemetry.spans import SPANS_SCHEMA


# ---------------------------------------------------------------------- #
# Shape predicates shared by the checkers.
# ---------------------------------------------------------------------- #

def _num(value, least=None) -> bool:
    """A JSON number (booleans are not), at least ``least`` if given."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (least is None or value >= least))


def _count(value, least: int = 0) -> bool:
    return isinstance(value, int) and value >= least


def _vector(value, n) -> bool:
    return isinstance(value, list) and len(value) == n


def _unit(value) -> bool:
    return _num(value) and 0.0 <= value <= 1.0 + 1e-9


def _text(value) -> bool:
    return isinstance(value, str) and bool(value)


def _fields(doc, where: str = "", **expect) -> List[str]:
    """One problem per key of ``doc`` whose value fails its predicate."""
    prefix = f"{where}: " if where else ""
    return [f"{prefix}bad {key} {doc.get(key)!r}"
            for key, ok in expect.items() if not ok(doc.get(key))]


def _objects(items, where: str, errors: List[str]):
    """``(index, item)`` for the objects in a record list; every other
    entry is reported as a problem."""
    for index, item in enumerate(items):
        if isinstance(item, dict):
            yield index, item
        else:
            errors.append(f"{where}[{index}]: not an object")


# ---------------------------------------------------------------------- #
# Untagged kinds: Chrome traces and Prometheus text.
# ---------------------------------------------------------------------- #

_KNOWN_PHASES = {"B", "E", "X", "i", "I", "C", "b", "e", "n", "M", "s", "t", "f"}
#: Categories stamped in host wall-clock microseconds; every other event
#: is stamped in simulated cycles (repro.telemetry.perfetto).
_HOST_CATEGORIES = (CAT_RUN, CAT_HOST)


def validate_chrome_trace(payload) -> List[str]:
    """Problems in a Chrome ``trace_event`` trace (empty = valid): the
    container shape, per-record keys, phase-specific fields (``dur`` for
    ``X``, ``id`` for ``b``/``e``, ``s`` for instants, numeric ``args``
    series for ``C`` counters, ``args.name`` for metadata), balanced
    async spans per ``(cat, id)``, and no exporter-synthesized
    ``truncated`` end later than every real event on its own clock
    (host wall-clock time or simulated cycles)."""
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' list"]
    elif isinstance(payload, list):
        events = payload
    else:
        return [f"trace must be a list or object, got {type(payload).__name__}"]
    errors: List[str] = []
    open_spans: Dict[Tuple[str, str], int] = {}
    latest: Dict[bool, float] = {}  # host clock? -> latest real event end
    truncated: List[Tuple[str, bool, float]] = []
    for index, record in _objects(events, "event", errors):
        where = f"event[{index}]"
        phase = record.get("ph")
        if not isinstance(phase, str) or phase not in _KNOWN_PHASES:
            errors.append(f"{where}: bad phase {phase!r}")
            continue
        errors += _fields(record, where, name=lambda v: isinstance(v, str),
                          pid=lambda v: isinstance(v, int),
                          tid=lambda v: isinstance(v, int))
        args = record.get("args")
        if phase == "M":
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata without args.name")
            continue
        errors += _fields(record, where, ts=_num)
        if _num(record.get("ts")):
            host = record.get("cat") in _HOST_CATEGORIES
            if isinstance(args, dict) and args.get("truncated"):
                if phase == "e":
                    truncated.append((where, host, record["ts"]))
            else:
                dur = record.get("dur")
                end = record["ts"] + (dur if _num(dur) else 0)
                latest[host] = max(latest.get(host, end), end)
        if phase == "X" and not _num(record.get("dur")):
            errors.append(f"{where}: 'X' slice without 'dur'")
        elif phase in ("b", "e"):
            span = (str(record.get("cat")), str(record.get("id")))
            if record.get("id") is None:
                errors.append(f"{where}: async event without 'id'")
            elif phase == "b":
                open_spans[span] = open_spans.get(span, 0) + 1
            elif open_spans.get(span, 0) <= 0:
                errors.append(f"{where}: 'e' with no open 'b' for {span}")
            else:
                open_spans[span] -= 1
        elif phase in ("i", "I"):
            if record.get("s") not in (None, "t", "p", "g"):
                errors.append(f"{where}: bad instant scope {record.get('s')!r}")
        elif phase == "C":
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter without args series")
                continue
            errors.extend(f"{where}: counter series {key!r} has non-numeric "
                          f"value {value!r}"
                          for key, value in args.items() if not _num(value))
    errors.extend(f"unclosed async span {span} (depth {depth})"
                  for span, depth in open_spans.items() if depth)
    for where, host, ts in truncated:
        if host not in latest or ts > latest[host]:
            clock = "host" if host else "simulated"
            errors.append(f"{where}: truncated end at {ts} lies after "
                          f"every real event on the {clock} clock")
    return errors


_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_PROM_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')
_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _samples(text: str) -> List[str]:
    return [line for line in text.splitlines()
            if line.strip() and not line.startswith("#")]


def validate_prometheus(text: str) -> List[str]:
    """Problems in Prometheus text exposition (``--prometheus``, a
    ``/metrics`` scrape): the sample-line grammar (name, optional
    ``{k="v"}`` labels, float-parseable value) and a ``# TYPE``
    declaration before each family's samples."""
    errors: List[str] = []
    typed = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[2]:
                errors.append(f"line {number}: malformed {parts[1]} comment")
                continue
            if parts[1] == "TYPE":
                if parts[3] not in _PROM_TYPES:
                    errors.append(f"line {number}: unknown TYPE {parts[3]!r}")
                typed.add(parts[2])
            continue
        if not line.strip() or line.startswith("#"):
            continue  # blank or free-form comment
        match = _PROM_SAMPLE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample {line!r}")
            continue
        if match.group("name") not in typed:
            errors.append(f"line {number}: sample for {match.group('name')!r} "
                          "before its # TYPE declaration")
        labels = match.group("labels")
        errors.extend(f"line {number}: bad label pair {pair!r}"
                      for pair in (labels.split(",") if labels else ())
                      if not _PROM_LABEL.match(pair))
        value = match.group("value")
        try:
            float(value)
        except ValueError:
            if value not in ("+Inf", "-Inf", "NaN", "inf", "-inf", "nan"):
                errors.append(f"line {number}: non-numeric value {value!r}")
    if not _samples(text):
        errors.append("no samples in exposition")
    return errors


# ---------------------------------------------------------------------- #
# Tagged kinds: one checker per row; each takes a JSON object and
# returns its problems.
# ---------------------------------------------------------------------- #

def _thread_rows(rows, n_threads, windows, where) -> List[str]:
    """A ``[thread][window]`` series: ``n_threads`` rows of ``windows``."""
    if rows is None:
        return []
    if not _vector(rows, n_threads):
        return [f"{where}: expected {n_threads} thread rows"]
    return [f"{where}[{tid}]: not a list" if not isinstance(row, list) else
            f"{where}[{tid}]: {len(row)} windows, expected {windows}"
            for tid, row in enumerate(rows)
            if not isinstance(row, list)
            or (windows is not None and len(row) != windows)]


def _attribution(doc) -> List[str]:
    """Interference matrices, with the conservation identity the
    attributor promises: every observed queueing cycle is either charged
    to a grant or explicitly idle."""
    n = doc.get("n_threads")
    if not _count(n, 1):
        return [f"bad n_threads {n!r}"]
    errors = []
    for section in ("resources", "tracks"):
        for name, data in (doc.get(section) or {}).items():
            matrix = data.get("matrix")
            delay, idle = data.get("queueing_delay"), data.get("idle_wait")
            spot = f"{section}[{name}]"
            if not _vector(matrix, n) or any(not _vector(row, n)
                                             for row in matrix):
                errors.append(f"{spot}: matrix is not {n}x{n}")
                continue
            if not (_vector(delay, n) and _vector(idle, n)):
                errors.append(f"{spot}: delay/idle rows malformed")
                continue
            for tid in range(n):
                attributed = sum(matrix[tid]) + idle[tid]
                if attributed != delay[tid]:
                    errors.append(
                        f"{spot} thread {tid}: attributed {attributed} != "
                        f"queueing delay {delay[tid]} (conservation broken)")
                if idle[tid] < 0:
                    errors.append(
                        f"{spot} thread {tid}: negative idle wait {idle[tid]}")
    return errors


def _section(doc, key, tag) -> List[str]:
    """Problems of ``doc[key]`` checked by ``tag``'s row (absent is fine)."""
    value = doc.get(key)
    if value is None:
        return []
    if not isinstance(value, dict):
        return [f"{key}: not an object"]
    return [f"{key}: {problem}" for problem in _ROWS[tag].check(value)]


#: The sections a metrics snapshot embeds, found by key.
_SNAPSHOT_SECTIONS = (("attribution", ATTRIBUTION_SCHEMA),
                      ("cpi_stacks", CPI_SCHEMA),
                      ("requests", REQUESTS_SCHEMA))


def _snapshot(doc) -> List[str]:
    """One point's ``--metrics`` snapshot: per-thread and per-window
    series shapes, plus its embedded sections (same thread count)."""
    n = doc.get("n_threads")
    if not _count(n, 1):
        return [f"bad n_threads {n!r}"]
    errors = _fields(doc, window=partial(_count, least=1),
                     ipcs=lambda v: _vector(v, n),
                     instructions=lambda v: _vector(v, n))
    series = doc.get("series")
    if not isinstance(series, dict):
        return errors + ["missing 'series' object"]
    windows = doc.get("windows")
    lengths = dict.fromkeys(("loads", "load_latency_sum", "cond1", "cond2"),
                            windows)
    samples = doc.get("sample_cycles")
    if samples is not None:
        lengths.update(ipc=len(samples) - 1, slowdown=len(samples) - 1,
                       l2_ways=len(samples))
    for key, length in lengths.items():
        errors += _thread_rows(series.get(key), n, length, f"series.{key}")
    for track, rows in (series.get("service_cycles") or {}).items():
        errors += _thread_rows(rows, n, windows,
                               f"series.service_cycles.{track}")
    for key in ("utilization", "queue_depth_max", "mshr_max"):
        errors.extend(f"series.{key}[{track}]: {len(row)} windows, "
                      f"expected {windows}"
                      for track, row in (series.get(key) or {}).items()
                      if windows is not None and len(row) != windows)
    for key, tag in _SNAPSHOT_SECTIONS:
        errors += _section(doc, key, tag)
        section = doc.get(key)
        if isinstance(section, dict) and section.get("n_threads") != n:
            errors.append(f"{key}: n_threads {section.get('n_threads')!r} "
                          f"!= snapshot's {n}")
    return errors


def _aggregate(doc) -> List[str]:
    """An experiment aggregate: every per-point snapshot, and the merged
    attribution."""
    points = doc.get("per_point")
    if not isinstance(points, list):
        return ["aggregate has no 'per_point' list"]
    errors = []
    if doc.get("points") != len(points):
        errors.append(f"aggregate 'points' {doc.get('points')!r} != "
                      f"{len(points)} per_point entries")
    for index, point in enumerate(points):
        if _row(point) is not _ROWS[METRICS_SCHEMA]:
            errors.append(f"per_point[{index}]: not a {METRICS_SCHEMA} "
                          "snapshot")
        else:
            errors.extend(f"per_point[{index}]: {problem}"
                          for problem in _snapshot(point))
    return errors + _section(doc, "attribution", ATTRIBUTION_SCHEMA)


def _decomposition(doc) -> List[str]:
    """A solo-vs-shared slowdown decomposition: per group, bucket cycles
    and an instruction count whose quotient is the reported CPI."""
    if doc.get("buckets") != list(BUCKETS):
        return [f"bucket taxonomy mismatch: {doc.get('buckets')!r}"]
    groups = doc.get("groups")
    tables = [doc.get(key) for key in ("cycles", "instructions", "cpi")]
    if not isinstance(groups, list) or not groups or not all(
            isinstance(table, dict) for table in tables):
        return ["document has no 'groups' with cycles/instructions/cpi"]
    errors = []
    for group in groups:
        cycles, insns, cpi = (table.get(group) for table in tables)
        if (not _vector(cycles, len(BUCKETS)) or not _count(insns)
                or not all(_count(value) for value in cycles)):
            errors.append(f"group {group!r}: malformed cycles/instructions")
        elif cpi != [value / insns if insns else 0.0 for value in cycles]:
            errors.append(f"group {group!r}: cpi is not cycles/instructions")
    return errors


def _embedded(doc) -> List[str]:
    """Problems of the tagged documents a report card embeds, directly
    or in a list, each checked by its own row."""
    errors = []
    for key, value in doc.items():
        items = value if isinstance(value, list) else [value]
        for index, item in enumerate(items):
            row = _row(item)
            if row is not None:
                where = f"{key}[{index}]" if items is value else key
                errors.extend(f"{where}: {problem}"
                              for problem in row.check(item))
    return errors


def _audit(doc, violations) -> List[str]:
    """A QoS audit's verdict agrees with its violation count."""
    if doc.get("clean") != (violations == 0):
        return [f"clean {doc.get('clean')!r} disagrees with {violations!r} "
                "violations"]
    return []


def _report(doc) -> List[str]:
    """One run's QoS report card: a row per thread, an audit whose
    verdict matches its violations, and valid embedded documents."""
    n = doc.get("n_threads")
    if not _count(n, 1):
        return [f"bad n_threads {n!r}"]
    errors = []
    threads = doc.get("threads")
    if not _vector(threads, n) or any(
            not isinstance(row, dict) or row.get("thread") != tid
            for tid, row in enumerate(threads)):
        errors.append(f"'threads' is not one row per thread t0..t{n - 1}")
    qos = doc.get("qos")
    if isinstance(qos, dict):
        errors += [f"qos: {problem}"
                   for problem in _audit(qos, qos.get("violations"))]
    return errors + _embedded(doc)


def _fleet_report(doc) -> List[str]:
    """An experiment's fleet card: run cards, and totals that agree
    with them."""
    cards = doc.get("cards")
    if not isinstance(cards, list):
        return ["document has no 'cards' list"]
    errors = [f"cards[{index}]: not a {REPORT_SCHEMA} card"
              for index, card in enumerate(cards)
              if _row(card) is not _ROWS[REPORT_SCHEMA]]
    if errors:
        return errors
    if doc.get("runs") != len(cards):
        errors.append(f"runs {doc.get('runs')!r} != {len(cards)} cards")
    violations = sum(card.get("qos", {}).get("violations", 0)
                     for card in cards)
    if doc.get("violations") != violations:
        errors.append(f"violations {doc.get('violations')!r} != "
                      f"{violations} across the cards")
    return errors + _audit(doc, violations) + _embedded(doc)


_SPAN_KINDS = ("span", "instant")


def _spans(doc) -> List[str]:
    """Host-time spans (``--spans``): per-record keys, span-id
    uniqueness, parent links that resolve within the document,
    non-negative durations, and the writer's (``ts_us``, ``span_id``)
    order."""
    errors = _fields(doc, epoch_unix_us=lambda v: isinstance(v, int))
    spans = doc.get("spans")
    if not isinstance(spans, list):
        return errors + ["document has no 'spans' list"]
    seen: Dict[str, int] = {}
    previous = None
    for index, record in _objects(spans, "spans", errors):
        where = f"spans[{index}]"
        errors += _fields(record, where, kind=lambda v: v in _SPAN_KINDS,
                          trace_id=_text, span_id=_text, name=_text,
                          track=_text, ts_us=lambda v: isinstance(v, int),
                          args=lambda v: isinstance(v, dict))
        if record.get("kind") == "span":
            errors += _fields(record, where, dur_us=_count)
        span_id = record.get("span_id")
        first = (seen.setdefault(span_id, index)
                 if isinstance(span_id, str) else index)
        if first != index:
            errors.append(f"{where}: duplicate span_id {span_id!r} "
                          f"(first at spans[{first}])")
        key = (record.get("ts_us"), span_id)
        if (previous is not None and isinstance(key[0], int)
                and isinstance(previous[0], int) and key < previous):
            errors.append(f"{where}: out of (ts_us, span_id) order")
        previous = key
    errors.extend(f"spans[{index}]: parent_id {record['parent_id']!r} does "
                  "not resolve within the document"
                  for index, record in enumerate(spans)
                  if isinstance(record, dict) and record.get("parent_id")
                  and record["parent_id"] not in seen)
    return errors


_ALERT_STATES = ("firing", "resolved")
_ALERT_SEVERITIES = ("warn", "page")


def _alerts(doc) -> List[str]:
    """Alert documents (``--alerts-out``, a fleet's ``/alerts``): rule
    and event shapes, events that reference declared rules, strictly
    increasing ``sequence`` ordinals, and a summary that agrees with the
    events."""
    rules = doc.get("rules")
    if not isinstance(rules, list):
        return ["document has no 'rules' list"]
    errors: List[str] = []
    names = set()
    for index, rule in _objects(rules, "rules", errors):
        where = f"rules[{index}]"
        name = rule.get("name")
        if not _text(name):
            errors.append(f"{where}: missing rule 'name'")
        elif name in names:
            errors.append(f"{where}: duplicate rule name {name!r}")
        else:
            names.add(name)
        errors += _fields(rule, where, signal=_text, threshold=_num,
                          severity=lambda v: v in _ALERT_SEVERITIES)
    events = doc.get("events")
    if not isinstance(events, list):
        return errors + ["document has no 'events' list"]
    last_sequence = fired = 0
    for index, event in _objects(events, "events", errors):
        where = f"events[{index}]"
        if event.get("alert") not in names:
            errors.append(f"{where}: event for undeclared rule "
                          f"{event.get('alert')!r}")
        errors += _fields(event, where, value=_num,
                          state=lambda v: v in _ALERT_STATES)
        fired += event.get("state") == "firing"
        sequence = event.get("sequence")
        if not isinstance(sequence, int) or sequence <= last_sequence:
            errors.append(f"{where}: sequence {sequence!r} not "
                          f"monotonically increasing (last {last_sequence})")
        else:
            last_sequence = sequence
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        return errors + ["document has no 'summary' object"]
    if summary.get("fired") != fired:
        errors.append(f"summary.fired {summary.get('fired')!r} != "
                      f"{fired} firing events")
    firing = summary.get("firing")
    if not isinstance(firing, list) or any(name not in names
                                           for name in firing):
        errors.append(f"summary.firing {firing!r} names undeclared rules")
    return errors + _fields(summary, "summary",
                            page_fired=lambda v: isinstance(v, bool))


def _shares(values, n_threads, where) -> List[str]:
    """A programmed share vector: ``n_threads`` entries in ``[0, 1]``
    that never over-allocate their resource."""
    if not _vector(values, n_threads):
        return [f"{where}: not a {n_threads}-vector"]
    errors = [f"{where}[{tid}]: share {value!r} outside [0, 1]"
              for tid, value in enumerate(values)
              if not _num(value) or not 0.0 <= value <= 1.0]
    if not errors and sum(values) > 1.0 + 1e-6:
        errors.append(f"{where}: shares sum to {sum(values)} > 1")
    return errors


def _qos_decisions(doc) -> List[str]:
    """A QoS controller's per-epoch decision log (``--qos-log``): epoch
    ordinals and cycles strictly increase, per-thread vectors have
    ``n_threads`` entries, labels come from the classifier taxonomy,
    phi/beta shares never over-allocate, Jain indices lie in ``[0, 1]``,
    and ``final`` matches the last decision."""
    errors = _fields(doc, policy=_text, epoch_cycles=partial(_count, least=1))
    n = doc.get("n_threads")
    if not _count(n, 1):
        return errors + [f"bad n_threads {n!r}"]
    decisions = doc.get("decisions")
    if not isinstance(decisions, list):
        return errors + ["document has no 'decisions' list"]
    if doc.get("epochs") != len(decisions):
        errors.append(f"'epochs' {doc.get('epochs')!r} != "
                      f"{len(decisions)} recorded decisions")
    if doc.get("baseline_ipcs") is not None:
        errors += _fields(doc, baseline_ipcs=lambda v: _vector(v, n))

    def amounts(values) -> bool:
        return _vector(values, n) and all(_num(v, least=0) for v in values)

    last_cycle = None
    for index, decision in _objects(decisions, "decisions", errors):
        where = f"decisions[{index}]"
        if decision.get("epoch") != index:
            errors.append(f"{where}: epoch {decision.get('epoch')!r} is "
                          f"out of order (expected {index})")
        cycle = decision.get("cycle")
        if not isinstance(cycle, int) or (last_cycle is not None
                                          and cycle <= last_cycle):
            errors.append(f"{where}: cycle {cycle!r} not after {last_cycle}")
        else:
            last_cycle = cycle
        errors += _fields(decision, where, cycles=_count, ipcs=amounts,
                          loads=amounts, jain=_unit,
                          programmed=lambda v: isinstance(v, bool))
        labels = decision.get("labels")
        if not _vector(labels, n) or any(label not in LABELS
                                         for label in labels):
            errors.append(f"{where}: labels {labels!r} are not {n} labels "
                          f"from the taxonomy {list(LABELS)}")
        for key in ("phi", "beta"):
            errors += _shares(decision.get(key), n, f"{where}.{key}")
    final = doc.get("final")
    if decisions and final is None:
        errors.append("decisions recorded but no 'final' summary")
    elif isinstance(final, dict) and decisions \
            and isinstance(decisions[-1], dict):
        errors.extend(f"final.{key} {final.get(key)!r} != last decision's "
                      f"{decisions[-1].get(key)!r}"
                      for key in ("phi", "beta", "labels", "jain")
                      if final.get(key) != decisions[-1].get(key))
    return errors


def _frontier(doc) -> List[str]:
    """The policy-frontier figure (``--figures``): every mix reports
    every declared policy with sane metrics, and the aggregate block
    covers exactly the declared policies."""
    policies = doc.get("policies")
    if (not isinstance(policies, list) or not policies
            or any(not isinstance(p, str) for p in policies)):
        return ["document has no 'policies' name list"]
    positive, amount = partial(_count, least=1), partial(_num, least=0)
    errors = _fields(doc, epoch_cycles=positive, warmup=positive,
                     measure=positive)
    mixes = doc.get("mixes")
    if not isinstance(mixes, list) or not mixes:
        return errors + ["document has no 'mixes' list"]
    for index, mix in _objects(mixes, "mixes", errors):
        where = f"mixes[{index}]"
        workloads = mix.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            errors.append(f"{where}: missing 'workloads' list")
            workloads = []
        n = len(workloads)
        errors += _fields(mix, where, mix=lambda v: isinstance(v, str),
                          targets=lambda v: _vector(v, n) and all(
                              _num(t) and t > 0 for t in v))
        points = mix.get("points")
        if not isinstance(points, dict):
            errors.append(f"{where}: missing 'points' object")
            continue
        if sorted(points) != sorted(policies):
            errors.append(f"{where}: points cover {sorted(points)}, "
                          f"declared policies are {sorted(policies)}")
        for policy, metrics in points.items():
            spot = f"{where}.points[{policy}]"
            if not isinstance(metrics, dict):
                errors.append(f"{spot}: not an object")
                continue
            errors += _fields(metrics, spot, jain=_unit,
                              aggregate_ipc=amount, hmean=amount, min=amount,
                              epochs=_count, normalized_ipcs=lambda v: (
                                  not n or _vector(v, n)))
    aggregate = doc.get("aggregate")
    covered = sorted(aggregate) if isinstance(aggregate, dict) else None
    if covered != sorted(policies):
        errors.append("aggregate does not cover exactly the declared "
                      f"policies {sorted(policies)}")
    else:
        errors.extend(f"aggregate[{policy}]: non-numeric metrics"
                      for policy, metrics in aggregate.items()
                      if not isinstance(metrics, dict)
                      or not all(_num(v) for v in metrics.values()))
    return errors


# ---------------------------------------------------------------------- #
# The table and the one dispatch.
# ---------------------------------------------------------------------- #

class _Row(NamedTuple):
    kinds: Tuple[str, ...]  # the force flags (--<kind>) that select it
    check: Callable[[object], List[str]]
    count: Callable[[object], int]  # what the OK line counts
    noun: str


_ROWS: Dict[str, _Row] = {
    METRICS_SCHEMA: _Row(("metrics",), _snapshot, lambda d: 1,
                         "metric points"),
    AGGREGATE_SCHEMA: _Row(("metrics",), _aggregate, lambda d: d["points"],
                           "metric points"),
    ATTRIBUTION_SCHEMA: _Row(("metrics",), _attribution,
                             lambda d: d["n_threads"], "attributed threads"),
    CPI_SCHEMA: _Row(("stacks", "metrics"), verify_stack,
                     lambda d: d["n_threads"],
                     "thread stacks (conservation re-checked)"),
    DECOMPOSITION_SCHEMA: _Row(("metrics",), _decomposition,
                               lambda d: len(d["groups"]),
                               "decomposition groups"),
    REQUESTS_SCHEMA: _Row(("requests",), verify_requests,
                          lambda d: sum(row.get("loads", 0)
                                        for row in d["threads"]),
                          "traced loads (segment conservation re-checked)"),
    REPORT_SCHEMA: _Row(("metrics",), _report, lambda d: d["n_threads"],
                        "report-card threads"),
    FLEET_REPORT_SCHEMA: _Row(("metrics",), _fleet_report,
                              lambda d: d["runs"], "run report cards"),
    SPANS_SCHEMA: _Row(("spans",), _spans, lambda d: len(d["spans"]),
                       "host spans"),
    ALERTS_SCHEMA: _Row(("alerts",), _alerts, lambda d: len(d["events"]),
                        "alert events"),
    QOS_DECISIONS_SCHEMA: _Row(("qos",), _qos_decisions,
                               lambda d: len(d["decisions"]),
                               "epoch decisions"),
    FRONTIER_SCHEMA: _Row(("frontier",), _frontier, lambda d: len(d["mixes"]),
                          "frontier mixes"),
}

#: The kinds no tag names: Chrome traces and Prometheus text.
_UNTAGGED: Dict[str, _Row] = {
    "trace": _Row(("trace",), validate_chrome_trace,
                  lambda d: len(d["traceEvents"] if isinstance(d, dict)
                                else d), "trace events"),
    "prometheus": _Row(("prometheus",), validate_prometheus,
                       lambda text: len(_samples(text)),
                       "exposition samples"),
}

#: Every kind a force flag (``--<kind>``) can select.
KINDS = tuple(dict.fromkeys([*_UNTAGGED, *(kind for row in _ROWS.values()
                                           for kind in row.kinds)]))


def _row(doc) -> Optional[_Row]:
    """The table row for a tagged JSON object, else ``None``."""
    return _ROWS.get(doc.get("schema")) if isinstance(doc, dict) else None


def _validate(payload, kind=None) -> Tuple[List[str], int, str]:
    """(problems, OK-line count, noun) for one parsed artifact."""
    if kind is None:
        row = _row(payload[0] if isinstance(payload, list) and payload
                   else payload)
        if row is None and isinstance(payload, dict) and "schema" in payload:
            return [f"unknown schema {payload['schema']!r}"], 0, ""
        kind = row.kinds[0] if row is not None else "trace"
    if kind in _UNTAGGED:
        row = _UNTAGGED[kind]
        errors = row.check(payload)
        return errors, 0 if errors else row.count(payload), row.noun
    docs = payload if isinstance(payload, list) else [payload]
    if not docs:
        return [f"no {kind} documents in the list"], 0, ""
    errors, count, noun = [], 0, ""
    for index, doc in enumerate(docs):
        where = f"{kind}[{index}]: " if docs is payload else ""
        row = _row(doc)
        if row is None or kind not in row.kinds:
            errors.append(where + (
                f"unknown {kind} schema {doc.get('schema')!r}"
                if isinstance(doc, dict) else
                f"{kind} must be an object, got {type(doc).__name__}"))
            continue
        problems = row.check(doc)
        errors.extend(where + problem for problem in problems)
        count += 0 if problems else row.count(doc)
        noun = row.noun
    return errors, count, noun


def validate(payload, kind: Optional[str] = None) -> List[str]:
    """Problems in one artifact (empty = valid).

    ``payload`` is parsed JSON, or Prometheus text with
    ``kind="prometheus"``; ``kind`` (one of :data:`KINDS`) forces the
    rows to check it against instead of routing by content.
    """
    return _validate(payload, kind)[0]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = {f"--{kind}": kind for kind in KINDS}
    kinds = [flags[token] for token in argv if token in flags]
    paths = [token for token in argv if token not in flags]
    if len(paths) != 1:
        print("usage: python -m repro.telemetry.validate "
              f"[{'|'.join(flags)}] <artifact>", file=sys.stderr)
        return 2
    path, kind = paths[0], (kinds[-1] if kinds else None)
    with open(path, encoding="utf-8") as fh:
        payload = fh.read()
    if kind is None and path.endswith(".prom"):
        kind = "prometheus"
    if kind != "prometheus":
        # Text that is not JSON (a /metrics scrape saved under any name)
        # is Prometheus exposition.
        try:
            payload = json.loads(payload)
        except ValueError:
            if kind is not None:
                print(f"INVALID: {path} is not JSON", file=sys.stderr)
                return 1
            kind = "prometheus"
    errors, count, noun = _validate(payload, kind)
    if errors:
        for error in errors[:40]:
            print(f"INVALID: {error}", file=sys.stderr)
        print(f"{len(errors)} schema problems in {path}", file=sys.stderr)
        return 1
    print(f"OK: {path} valid ({count} {noun})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
