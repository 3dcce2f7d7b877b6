"""Declarative alert rules evaluated against the live event stream.

The observability plane (PRs 2-4, 7) *records* everything — but a
human still had to watch ``repro top`` or diff artifacts to notice a
run going wrong.  This module closes the loop: rules declared in a
JSON or TOML file are evaluated continuously against the events a
:class:`~repro.telemetry.server.LiveRun` (or the fleet aggregator)
publishes, and a breached rule emits a structured ``alert`` event onto
the same bus/SSE stream the rest of the plane uses.  A firing
``severity=page`` rule makes the runner exit nonzero (code 4), which
is the entire point: CI and cron sweeps fail loudly instead of
producing quietly-degraded artifacts.

Rule file shape (JSON shown; TOML via stdlib ``tomllib`` is
equivalent)::

    {"rules": [
      {"name": "slowdown-burn", "signal": "slowdown", "op": ">",
       "threshold": 2.5, "for_windows": 3, "severity": "page"},
      {"name": "retry-storm", "signal": "retries", "op": ">=",
       "threshold": 3, "severity": "page"},
      {"name": "bench-regression", "signal": "bench_regression",
       "op": ">", "threshold": 0.10, "severity": "warn"}
    ]}

Signals (see docs/ARCHITECTURE.md for the full table):

* ``slowdown`` — worst per-thread slowdown-vs-solo in the latest
  window (needs target IPCs, i.e. ``--report`` on the single-run CLI);
* ``fairness`` — the latest window's Jain fairness index;
* ``ipc`` — the slowest thread's latest-window IPC;
* ``violations`` — cumulative QoS-guarantee violations this run;
* ``retries`` / ``excluded`` — resilience-fleet retry/exclusion
  counters (events, or a worker's ``/healthz`` resilience block);
* ``stale_workers`` — workers past the heartbeat staleness threshold;
* ``bench_regression`` — fractional throughput drop vs the most
  recent run-history ledger entry for the same experiment (PR 7);
* ``slo_burn`` — the worst SLO error-budget burn rate across the
  request tracer's rules and threads (1.0 = exactly on target, >1.0 =
  budget burning too fast; needs ``--requests --slo`` so window
  snapshots embed a ``repro.requests/1`` document).

``for_windows`` is the burn-rate guard: the rule fires only after that
many *consecutive* breaching evaluations, fires exactly once per
sustained violation, and emits a matching ``resolved`` event when the
signal recovers.  Alert payloads contain no wall-clock timestamps —
only deterministic ordinals — so goldens can assert byte-stable bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

ALERTS_SCHEMA = "repro.alerts/1"

SEVERITIES = ("warn", "page")
OPS = (">", ">=", "<", "<=")
SIGNALS = (
    "slowdown", "fairness", "ipc", "violations", "retries", "excluded",
    "stale_workers", "bench_regression", "slo_burn",
)

#: Signals evaluated from counters/health rather than window series.
_COUNTER_SIGNALS = ("violations", "retries", "excluded")

#: Exit code the runners return when a page-severity rule fired.
PAGE_EXIT_CODE = 4


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule; frozen so rule sets are hashable state."""

    name: str
    signal: str
    threshold: float
    op: str = ">"
    for_windows: int = 1
    severity: str = "warn"
    thread: Optional[int] = None   # restrict slowdown/ipc to one thread

    def validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"alert rule needs a non-empty name: {self!r}")
        if self.signal not in SIGNALS:
            raise ValueError(
                f"rule {self.name!r}: unknown signal {self.signal!r}; "
                f"choose from {SIGNALS}")
        if self.op not in OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"choose from {OPS}")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity {self.severity!r}; "
                f"choose from {SEVERITIES}")
        if not isinstance(self.for_windows, int) or self.for_windows < 1:
            raise ValueError(
                f"rule {self.name!r}: for_windows must be an int >= 1")
        if isinstance(self.threshold, bool) or not isinstance(
                self.threshold, (int, float)):
            raise ValueError(
                f"rule {self.name!r}: threshold must be numeric")

    def breached(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold

    def to_dict(self) -> Dict:
        out = {
            "name": self.name, "signal": self.signal, "op": self.op,
            "threshold": self.threshold, "for_windows": self.for_windows,
            "severity": self.severity,
        }
        if self.thread is not None:
            out["thread"] = self.thread
        return out


def load_rules(path: str) -> List[AlertRule]:
    """Parse and validate a rule file (``.toml`` via tomllib, else JSON).

    Accepts ``{"rules": [...]}`` or a bare list; duplicate rule names
    are an error (alert events reference rules by name).
    """
    if str(path).endswith(".toml"):
        import tomllib
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    else:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    raw = payload.get("rules") if isinstance(payload, dict) else payload
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: expected a non-empty 'rules' list")
    rules = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError(f"{path}: rule entries must be objects")
        known = {"name", "signal", "op", "threshold", "for_windows",
                 "severity", "thread"}
        unknown = set(item) - known
        if unknown:
            raise ValueError(
                f"{path}: rule {item.get('name', '?')!r} has unknown "
                f"keys {sorted(unknown)}")
        rule = AlertRule(
            name=item.get("name", ""),
            signal=item.get("signal", ""),
            threshold=item.get("threshold", 0.0),
            op=item.get("op", ">"),
            for_windows=item.get("for_windows", 1),
            severity=item.get("severity", "warn"),
            thread=item.get("thread"),
        )
        rule.validate()
        rules.append(rule)
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate rule names in {names}")
    return rules


@dataclass
class _RuleState:
    """The sustained-window state machine for one rule."""

    rule: AlertRule
    streak: int = 0        # consecutive breaching evaluations
    firing: bool = False
    fired: int = 0         # times this rule entered the firing state
    last_value: Optional[float] = None


class AlertEngine:
    """Evaluates a rule set against the published event stream.

    Feed it via :meth:`observe` (one call per published LiveRun/fleet
    event), :meth:`observe_health` (periodic health documents — the
    source for ``stale_workers`` and a second, poll-robust source for
    the resilience counters), and :meth:`evaluate_history` (end-of-
    experiment bench-regression check against the PR 7 ledger).  Each
    returns the alert events newly emitted by that observation; the
    caller publishes them (``LiveRun.alert`` / the aggregator).

    Not internally locked — drive it from one thread (LiveRun publishes
    under its own serialization; the fleet aggregator wraps calls in
    its engine lock).
    """

    def __init__(self, rules: Sequence[AlertRule],
                 on_alert: Optional[Callable[[Dict], None]] = None) -> None:
        self.rules = list(rules)
        self.on_alert = on_alert
        self._states = {rule.name: _RuleState(rule) for rule in self.rules}
        self._sequence = 0
        self.events: List[Dict] = []
        self.counters = {"violations": 0, "retries": 0, "excluded": 0}

    # ------------------------------------------------------------------ #
    # Observation entry points.
    # ------------------------------------------------------------------ #

    def observe(self, event: str, payload: Dict) -> List[Dict]:
        """Digest one published event; returns newly emitted alerts."""
        emitted: List[Dict] = []
        if event == "violation":
            self.counters["violations"] += 1
            emitted += self._evaluate_counters()
        elif event == "retry":
            self.counters["retries"] += 1
            emitted += self._evaluate_counters()
        elif event == "excluded":
            self.counters["excluded"] += 1
            emitted += self._evaluate_counters()
        elif event == "window":
            snapshot = payload.get("snapshot") or {}
            emitted += self._evaluate_window(snapshot)
            # Counter rules tick on windows too, so a sustained
            # (for_windows > 1) violation-count rule has a cadence.
            emitted += self._evaluate_counters()
        elif event == "run" and payload.get("status") == "started":
            self._reset_run()
        return emitted

    def observe_health(self, health: Dict) -> List[Dict]:
        """Digest a health document (a worker's ``/healthz`` or the
        fleet rollup): stale workers, and the resilience counters as
        reported by the run itself (robust to an aggregator that
        subscribed after the retry events flowed)."""
        emitted: List[Dict] = []
        stale = health.get("stale_workers")
        if stale is not None:
            emitted += self._check("stale_workers", float(len(stale)))
        resilience = health.get("resilience") or {}
        for key in ("retries", "excluded"):
            reported = resilience.get(key, health.get(key))
            if isinstance(reported, (int, float)):
                self.counters[key] = max(self.counters[key], int(reported))
        if resilience or "retries" in health:
            emitted += self._evaluate_counters()
        return emitted

    def evaluate_history(self, exp_id: str, metrics: Optional[Dict],
                         entries: Sequence[Dict]) -> List[Dict]:
        """Bench-regression check: fractional aggregate-throughput drop
        vs the most recent ledger entry for the same experiment."""
        if metrics is None:
            return []
        prior = None
        for entry in entries:
            if entry.get("exp_id") == exp_id:
                prior = entry
        if prior is None:
            return []
        before = _throughput(prior.get("totals") or {})
        now = _throughput(metrics.get("totals") or {})
        if before <= 0:
            return []
        drop = (before - now) / before
        return self._check("bench_regression", drop, exp_id=exp_id)

    # ------------------------------------------------------------------ #
    # Evaluation internals.
    # ------------------------------------------------------------------ #

    def _reset_run(self) -> None:
        for state in self._states.values():
            state.streak = 0
            state.firing = False
            state.last_value = None
        self.counters = {key: 0 for key in self.counters}

    def _evaluate_counters(self) -> List[Dict]:
        emitted: List[Dict] = []
        for signal in _COUNTER_SIGNALS:
            emitted += self._check(signal, float(self.counters[signal]))
        return emitted

    def _evaluate_window(self, snapshot: Dict) -> List[Dict]:
        emitted: List[Dict] = []
        series = snapshot.get("series") or {}
        slowdown = series.get("slowdown")
        for state in self._states.values():
            rule = state.rule
            if rule.signal == "slowdown" and slowdown:
                value = _last_across(slowdown, rule.thread, worst=max)
                if value is not None:
                    emitted += self._check_state(state, value)
            elif rule.signal == "fairness":
                value = _fairness(snapshot)
                if value is not None:
                    emitted += self._check_state(state, value)
            elif rule.signal == "ipc":
                value = _last_across(series.get("ipc"), rule.thread,
                                     worst=min)
                if value is not None:
                    emitted += self._check_state(state, value)
            elif rule.signal == "slo_burn":
                from repro.telemetry.requests import slo_burn
                value = slo_burn(snapshot.get("requests"))
                if value is not None:
                    emitted += self._check_state(state, value)
        return emitted

    def _check(self, signal: str, value: float, **labels) -> List[Dict]:
        emitted: List[Dict] = []
        for state in self._states.values():
            if state.rule.signal == signal:
                emitted += self._check_state(state, value, **labels)
        return emitted

    def _check_state(self, state: _RuleState, value: float,
                     **labels) -> List[Dict]:
        rule = state.rule
        state.last_value = value
        if rule.breached(value):
            state.streak += 1
            if not state.firing and state.streak >= rule.for_windows:
                state.firing = True
                state.fired += 1
                return [self._emit(state, value, "firing", **labels)]
            return []
        recovered = state.firing
        state.streak = 0
        state.firing = False
        if recovered:
            return [self._emit(state, value, "resolved", **labels)]
        return []

    def _emit(self, state: _RuleState, value: float, new_state: str,
              **labels) -> Dict:
        self._sequence += 1
        rule = state.rule
        payload = {
            "alert": rule.name,
            "severity": rule.severity,
            "signal": rule.signal,
            "op": rule.op,
            "threshold": rule.threshold,
            "value": round(float(value), 6),
            "state": new_state,
            "streak": state.streak,
            "sequence": self._sequence,
        }
        payload.update(labels)
        self.events.append(payload)
        if self.on_alert is not None:
            self.on_alert(payload)
        return payload

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    @property
    def fired(self) -> int:
        return sum(state.fired for state in self._states.values())

    @property
    def firing(self) -> List[str]:
        return sorted(name for name, state in self._states.items()
                      if state.firing)

    @property
    def page_fired(self) -> bool:
        """True once any ``severity=page`` rule has fired (sticky — a
        later recovery does not un-fail the run)."""
        return any(state.fired and state.rule.severity == "page"
                   for state in self._states.values())

    def document(self) -> Dict:
        """The serializable ``repro.alerts/1`` artifact."""
        return {
            "schema": ALERTS_SCHEMA,
            "rules": [rule.to_dict() for rule in self.rules],
            "events": list(self.events),
            "summary": {
                "fired": self.fired,
                "firing": self.firing,
                "page_fired": self.page_fired,
            },
        }

    def summary_line(self) -> str:
        firing = ",".join(self.firing) or "-"
        return (f"alerts: {self.fired} fired "
                f"({len(self.events)} events, firing now: {firing})")


def write_alerts(path, engine: AlertEngine) -> int:
    """Write the engine's ``repro.alerts/1`` document; returns the
    emitted-event count."""
    from repro.telemetry.manifest import write_document
    document = engine.document()
    write_document(path, document)
    return len(document["events"])


def open_alerts(parser, args) -> Optional[AlertEngine]:
    """Start of the alert lifecycle every entry point shares: the engine
    for ``--alerts RULES`` (``None`` without it); ``--alerts-out``
    without rules is a usage error."""
    if args.alerts_out and not args.alerts:
        parser.error("--alerts-out requires --alerts")
    return AlertEngine(load_rules(args.alerts)) if args.alerts else None


def close_alerts(engine: Optional[AlertEngine], path: Optional[str]) -> int:
    """End of the alert lifecycle: print the summary, write the
    ``repro.alerts/1`` document to ``path`` when given, and return the
    exit code — :data:`PAGE_EXIT_CODE` once a page rule fired, else 0."""
    if engine is None:
        return 0
    print(engine.summary_line(), flush=True)
    if path:
        write_alerts(path, engine)
        print(f"alerts -> {path}")
    if not engine.page_fired:
        return 0
    print("repro: a severity=page alert fired; failing the run",
          file=sys.stderr)
    return PAGE_EXIT_CODE


# ---------------------------------------------------------------------- #
# Signal extraction helpers.
# ---------------------------------------------------------------------- #

def _last_across(rows, thread: Optional[int], worst) -> Optional[float]:
    """The latest value across per-thread window rows (or one thread's),
    reduced by ``worst`` (max for slowdown, min for ipc)."""
    if not rows:
        return None
    if thread is not None:
        if not 0 <= thread < len(rows) or not rows[thread]:
            return None
        return float(rows[thread][-1])
    values = [row[-1] for row in rows if row]
    return float(worst(values)) if values else None


def _fairness(snapshot: Dict) -> Optional[float]:
    series = (snapshot.get("series") or {}).get("jain_fairness")
    if series:
        return float(series[-1])
    overall = (snapshot.get("fairness") or {}).get("jain_overall")
    return float(overall) if overall is not None else None


def _throughput(totals: Dict) -> float:
    cycles = totals.get("measured_cycles") or 0
    instructions = totals.get("instructions") or 0
    return instructions / cycles if cycles else 0.0
