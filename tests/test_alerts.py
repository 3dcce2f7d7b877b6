"""The declarative alert engine: rules, burn rates, golden payloads.

The contract under test:

* Rule files (JSON or TOML) parse into validated :class:`AlertRule`
  sets; malformed files fail loudly at load time, not mid-run.
* ``for_windows`` is a burn-rate guard — a rule fires after exactly
  that many *consecutive* breaching windows, fires exactly once per
  sustained violation, emits a ``resolved`` event on recovery, and can
  fire again on a fresh violation.
* Alert payloads are byte-stable: no wall-clock fields, deterministic
  ``sequence`` ordinals, round-6 values — goldens compare exact bytes.
* Counter signals (violations/retries/excluded) evaluate from live
  events AND from scraped health documents (max-merge, so a late
  aggregator still converges on the true counts).
* A fired ``severity=page`` rule is sticky (``page_fired`` survives
  recovery) — the runners' nonzero-exit contract.
* The ``repro.alerts/1`` document round-trips through the validator.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.alerts import (
    PAGE_EXIT_CODE,
    AlertEngine,
    AlertRule,
    close_alerts,
    load_rules,
    write_alerts,
)
from repro.telemetry.server import LiveRun, TelemetryServer, fetch_json
from repro.telemetry.validate import main as validate_main, validate


def _window(slowdowns=None, ipcs=None, fairness=None):
    """A minimal window event payload (per-thread rows of one value)."""
    series = {}
    if slowdowns is not None:
        series["slowdown"] = [[value] for value in slowdowns]
    if ipcs is not None:
        series["ipc"] = [[value] for value in ipcs]
    if fairness is not None:
        series["jain_fairness"] = [fairness]
    return {"point": 0, "snapshot": {"series": series}}


def _rule(**overrides) -> AlertRule:
    params = dict(name="r", signal="slowdown", threshold=2.0)
    params.update(overrides)
    return AlertRule(**params)


# ---------------------------------------------------------------------- #
# Rule files.
# ---------------------------------------------------------------------- #

def test_load_rules_json_both_shapes(tmp_path):
    wrapped = tmp_path / "rules.json"
    wrapped.write_text(json.dumps({"rules": [
        {"name": "s", "signal": "slowdown", "threshold": 2.5,
         "for_windows": 3, "severity": "page"},
    ]}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([
        {"name": "f", "signal": "fairness", "op": "<", "threshold": 0.7},
    ]))
    (rule,) = load_rules(str(wrapped))
    assert (rule.name, rule.for_windows, rule.severity) == ("s", 3, "page")
    (rule,) = load_rules(str(bare))
    assert (rule.signal, rule.op) == ("fairness", "<")
    assert rule.severity == "warn"  # default


def test_load_rules_toml(tmp_path):
    path = tmp_path / "rules.toml"
    path.write_text(
        '[[rules]]\n'
        'name = "retry-storm"\n'
        'signal = "retries"\n'
        'op = ">="\n'
        'threshold = 3\n'
        'severity = "page"\n'
    )
    (rule,) = load_rules(str(path))
    assert rule.name == "retry-storm"
    assert rule.breached(3) and not rule.breached(2)


@pytest.mark.parametrize("bad", [
    {"rules": []},
    {"rules": [{"name": "x", "signal": "nope", "threshold": 1}]},
    {"rules": [{"name": "x", "signal": "ipc", "op": "!=", "threshold": 1}]},
    {"rules": [{"name": "x", "signal": "ipc", "threshold": 1,
                "severity": "fatal"}]},
    {"rules": [{"name": "x", "signal": "ipc", "threshold": 1,
                "for_windows": 0}]},
    {"rules": [{"name": "x", "signal": "ipc", "threshold": "high"}]},
    {"rules": [{"name": "x", "signal": "ipc", "threshold": 1,
                "surprise": True}]},
    {"rules": [{"name": "x", "signal": "ipc", "threshold": 1},
               {"name": "x", "signal": "ipc", "threshold": 2}]},
])
def test_load_rules_rejects_malformed(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_rules(str(path))


# ---------------------------------------------------------------------- #
# Burn-rate state machine.
# ---------------------------------------------------------------------- #

def test_fires_exactly_once_per_sustained_window():
    engine = AlertEngine([_rule(name="burn", for_windows=3,
                                severity="page")])
    emitted = []
    for _ in range(5):  # five consecutive breaching windows
        emitted += engine.observe("window", _window(slowdowns=[3.0, 1.0]))
    assert len(emitted) == 1  # exactly once, on the third window
    assert emitted[0]["state"] == "firing"
    assert emitted[0]["streak"] == 3
    assert engine.fired == 1 and engine.firing == ["burn"]


def test_streak_resets_on_recovery_and_refires():
    engine = AlertEngine([_rule(name="burn", for_windows=2)])
    assert engine.observe("window", _window(slowdowns=[3.0])) == []
    # Recovery below for_windows: no firing, no resolved (never fired).
    assert engine.observe("window", _window(slowdowns=[1.0])) == []
    assert engine.observe("window", _window(slowdowns=[3.0])) == []
    (fired,) = engine.observe("window", _window(slowdowns=[3.0]))
    assert fired["state"] == "firing"
    (resolved,) = engine.observe("window", _window(slowdowns=[1.5]))
    assert resolved["state"] == "resolved"
    assert engine.firing == []
    # A fresh sustained violation fires again.
    engine.observe("window", _window(slowdowns=[4.0]))
    (refired,) = engine.observe("window", _window(slowdowns=[4.0]))
    assert refired["state"] == "firing"
    assert engine.fired == 2


def test_worst_thread_and_thread_restriction():
    worst = AlertEngine([_rule(name="any", threshold=2.0)])
    pinned = AlertEngine([_rule(name="t0", threshold=2.0, thread=0)])
    event = _window(slowdowns=[1.2, 2.8])  # only thread 1 breaches
    (fired,) = worst.observe("window", event)
    assert fired["value"] == 2.8
    assert pinned.observe("window", event) == []


def test_ipc_uses_slowest_thread_and_fairness_latest():
    engine = AlertEngine([
        _rule(name="slow-ipc", signal="ipc", op="<", threshold=0.5),
        _rule(name="unfair", signal="fairness", op="<", threshold=0.8),
    ])
    emitted = engine.observe(
        "window", _window(ipcs=[0.9, 0.3], fairness=0.6))
    assert {event["alert"]: event["value"] for event in emitted} == \
        {"slow-ipc": 0.3, "unfair": 0.6}


# ---------------------------------------------------------------------- #
# Counter and health signals.
# ---------------------------------------------------------------------- #

def test_counter_signals_from_events():
    engine = AlertEngine([
        _rule(name="retry-storm", signal="retries", op=">=", threshold=2,
              severity="page"),
        _rule(name="qos", signal="violations", op=">=", threshold=1),
    ])
    (qos,) = engine.observe("violation", {"thread": 0})
    assert qos["alert"] == "qos"
    assert engine.observe("retry", {"point": 1}) == []
    (storm,) = engine.observe("retry", {"point": 1})
    assert storm["alert"] == "retry-storm" and storm["value"] == 2
    assert engine.page_fired


def test_health_counters_max_merge():
    """A late subscriber that never saw the retry events still converges
    from the run's own health document — and re-observing a smaller
    count never regresses the counter."""
    engine = AlertEngine([_rule(name="retry-storm", signal="retries",
                                op=">=", threshold=3)])
    (fired,) = engine.observe_health({"resilience": {"retries": 4}})
    assert fired["alert"] == "retry-storm" and fired["value"] == 4
    engine.observe_health({"resilience": {"retries": 2}})
    assert engine.counters["retries"] == 4


def test_stale_workers_signal():
    engine = AlertEngine([_rule(name="stale", signal="stale_workers",
                                op=">=", threshold=1)])
    assert engine.observe_health({"stale_workers": []}) == []
    (fired,) = engine.observe_health({"stale_workers": [111, 222]})
    assert fired["value"] == 2
    (resolved,) = engine.observe_health({"stale_workers": []})
    assert resolved["state"] == "resolved"


def test_bench_regression_against_ledger():
    engine = AlertEngine([_rule(name="bench", signal="bench_regression",
                                op=">", threshold=0.10)])
    entries = [
        {"exp_id": "fig8", "totals": {"instructions": 900,
                                      "measured_cycles": 1000}},
        {"exp_id": "fig10", "totals": {"instructions": 1000,
                                       "measured_cycles": 1000}},
    ]
    # 20% throughput drop vs the fig10 entry -> fires.
    now = {"totals": {"instructions": 800, "measured_cycles": 1000}}
    (fired,) = engine.evaluate_history("fig10", now, entries)
    assert fired["value"] == pytest.approx(0.2)
    assert fired["exp_id"] == "fig10"
    # No prior entry for this experiment -> no evaluation.
    assert engine.evaluate_history("fig4", now, entries) == []
    assert engine.evaluate_history("fig10", None, entries) == []


def test_run_start_resets_state():
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1)])
    engine.observe("violation", {})
    assert engine.firing == ["qos"]
    engine.observe("run", {"status": "started", "run": "second"})
    assert engine.firing == [] and engine.counters["violations"] == 0
    assert engine.fired == 1  # history of past runs is retained


# ---------------------------------------------------------------------- #
# Byte-stable payloads and the repro.alerts/1 artifact.
# ---------------------------------------------------------------------- #

def test_payloads_are_byte_stable(tmp_path):
    def run_once() -> bytes:
        engine = AlertEngine([
            _rule(name="burn", for_windows=2, severity="page"),
            _rule(name="unfair", signal="fairness", op="<", threshold=0.8),
        ])
        engine.observe("window", _window(slowdowns=[2.5], fairness=0.9))
        engine.observe("window", _window(slowdowns=[2.5], fairness=0.5))
        engine.observe("window", _window(slowdowns=[1.0], fairness=0.5))
        path = tmp_path / "alerts.json"
        write_alerts(path, engine)
        return path.read_bytes()

    first = run_once()
    assert first == run_once()  # identical run -> identical bytes
    document = json.loads(first)
    assert validate(document, "alerts") == []
    assert [(e["alert"], e["state"], e["sequence"])
            for e in document["events"]] == [
        ("burn", "firing", 1),    # declaration order on the same window
        ("unfair", "firing", 2),
        ("burn", "resolved", 3),
    ]
    golden = {
        "alert": "burn", "severity": "page", "signal": "slowdown",
        "op": ">", "threshold": 2.0, "value": 2.5, "state": "firing",
        "streak": 2, "sequence": 1,
    }
    assert document["events"][0] == golden
    assert document["summary"] == {
        "fired": 2, "firing": ["unfair"], "page_fired": True,
    }


def test_document_round_trips_validate_cli(tmp_path, capsys):
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1, severity="page")])
    engine.observe("violation", {})
    path = tmp_path / "alerts.json"
    assert write_alerts(path, engine) == 1
    assert validate_main([str(path)]) == 0
    assert "alert events" in capsys.readouterr().out
    assert PAGE_EXIT_CODE == 4 and engine.page_fired


def test_validate_alerts_rejects_malformed():
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1)])
    engine.observe("violation", {})
    document = engine.document()
    assert validate(document, "alerts") == []

    broken = json.loads(json.dumps(document))
    broken["events"][0]["sequence"] = 0
    assert any("monotonically" in p for p in validate(broken, "alerts"))

    orphan = json.loads(json.dumps(document))
    orphan["events"][0]["alert"] = "ghost"
    assert any("undeclared" in p for p in validate(orphan, "alerts"))

    lying = json.loads(json.dumps(document))
    lying["summary"]["fired"] = 99
    assert any("summary.fired" in p for p in validate(lying, "alerts"))


# ---------------------------------------------------------------------- #
# LiveRun integration: the publish-path tap.
# ---------------------------------------------------------------------- #

def test_live_run_publishes_alert_events():
    """An engine attached to a LiveRun sees every published event and
    its emissions ride the same SSE stream, labelled ``alert``."""
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1, severity="page")])
    live = LiveRun()
    live.alert_engine = engine
    live.begin_run("alert-test")
    live.begin_batch(1)
    subscriber = live.subscribe()
    live.put(("violation", 0, 111, {"thread": 0, "window": 4}))
    events = []
    while not subscriber.empty():
        events.append(subscriber.get_nowait())
    alerts = [payload for event, payload in events if event == "alert"]
    assert len(alerts) == 1
    assert alerts[0]["alert"] == "qos" and alerts[0]["state"] == "firing"
    assert live.health()["alerts"] == {"fired": 1, "firing": ["qos"]}
    assert engine.page_fired


def test_run_server_serves_the_alert_document():
    """``/alerts`` is one route of the shared table, so a served run
    answers it the way the fleet does."""
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1, severity="page")])
    live = LiveRun(alert_engine=engine)
    live.put(("violation", 0, 111, {"thread": 0, "window": 4}))
    with TelemetryServer(live, port=0) as server:
        document = fetch_json(f"{server.url}/alerts", timeout=5.0)
    assert document == engine.document()
    assert validate(document, "alerts") == []


# ---------------------------------------------------------------------- #
# The alert lifecycle the three entry points share.
# ---------------------------------------------------------------------- #

def test_close_alerts_summarises_writes_and_pages(tmp_path, capsys):
    engine = AlertEngine([_rule(name="qos", signal="violations",
                                op=">=", threshold=1, severity="page")])
    engine.observe("violation", {})
    path = tmp_path / "alerts.json"
    assert close_alerts(engine, str(path)) == PAGE_EXIT_CODE
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [engine.summary_line(),
                                         f"alerts -> {path}"]
    assert "severity=page" in captured.err
    assert json.loads(path.read_text()) == engine.document()
    assert close_alerts(None, None) == 0


@pytest.mark.parametrize("entry", ["run", "experiments", "fleet"])
def test_alerts_out_requires_alerts_on_every_entry_point(entry, tmp_path,
                                                         capsys):
    from repro.cli import main as run_main
    from repro.experiments.runner import main as experiments_main
    from repro.telemetry.federation import main as fleet_main
    main, argv = {
        "run": (run_main, ["loads", "--warmup", "100", "--cycles", "100"]),
        "experiments": (experiments_main, ["--list"]),
        "fleet": (fleet_main, ["--workers", "http://127.0.0.1:9",
                               "--duration", "1"]),
    }[entry]
    out = tmp_path / "alerts.json"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--alerts-out", str(out)])
    assert exit_info.value.code == 2
    assert "--alerts-out requires --alerts" in capsys.readouterr().err
    assert not out.exists()
