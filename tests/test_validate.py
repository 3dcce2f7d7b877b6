"""One schema-driven validator over every artifact both CLIs write.

* Every JSON artifact kind from ``python -m repro`` and
  ``python -m repro.experiments`` (small horizons, every artifact flag)
  validates through the CLI, report cards included, and every schema
  tag found anywhere in those files is a row of the validator's table.
* ``python -m repro.telemetry.validate`` runs without the runpy
  ``RuntimeWarning`` (nothing imports the module before it runs).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import parallel
import repro.telemetry.validate as validator

RULES = {"rules": [{"name": "slow", "signal": "ipc", "op": "<",
                    "threshold": 10, "severity": "warn"}]}


def _tags(node):
    """Every ``schema`` string in a JSON tree."""
    if isinstance(node, dict):
        if isinstance(node.get("schema"), str):
            yield node["schema"]
        for value in node.values():
            yield from _tags(value)
    elif isinstance(node, list):
        for item in node:
            yield from _tags(item)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The artifact directory after one single run and one fast
    policy-frontier sweep, each with every artifact flag on."""
    from repro.cli import main as single_run
    from repro.experiments.runner import main as experiments

    out = tmp_path_factory.mktemp("artifacts")
    rules = tmp_path_factory.mktemp("rules") / "rules.json"
    rules.write_text(json.dumps(RULES))

    def path(name: str) -> str:
        return str(out / name)

    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(out / "cache"))
    try:
        assert single_run([
            "art", "mcf", "--policy", "lfoc", "--epoch", "1000",
            "--warmup", "1000", "--cycles", "3000",
            "--metrics", path("run.metrics.json"),
            "--prometheus", path("run.prom"),
            "--report", path("run.report.json"),
            "--cpi-stacks", path("run.stacks.json"),
            "--requests", path("run.requests.json"), "--slo", "400",
            "--trace", path("run.trace.json"),
            "--spans", path("run.spans.json"),
            "--qos-log", path("run.qos.json"), "--alerts", str(rules),
            "--alerts-out", path("run.alerts.json"),
        ]) == 0
        assert experiments([
            "policy-frontier", "--fast", "--cpi-stacks",
            "--stacks", str(out), "--requests", str(out), "--slo", "400",
            "--metrics", str(out), "--report", str(out),
            "--figures", str(out), "--trace", path("exp.trace.json"),
            "--spans", path("exp.spans.json"), "--alerts", str(rules),
            "--alerts-out", path("exp.alerts.json"),
        ]) == 0
    finally:
        parallel.configure(jobs=1, cache=True)
        monkeypatch.undo()
    return out


def test_every_artifact_validates_and_every_tag_is_a_row(artifacts, capsys):
    files = sorted(artifacts.glob("*.json")) + sorted(artifacts.glob("*.prom"))
    for path in files:
        assert validator.main([str(path)]) == 0, capsys.readouterr().err
    tags = {tag for path in artifacts.glob("*.json")
            for tag in _tags(json.loads(path.read_text()))}
    # Both report-card kinds, and every document they embed.
    assert {"repro.report/1", "repro.report-fleet/1",
            "repro.cpi-decomposition/1"} <= tags
    assert tags <= set(validator._ROWS)


def test_report_cards_are_checked_with_their_embedded_documents(artifacts):
    card = json.loads((artifacts / "run.report.json").read_text())
    assert validator.validate(card) == []
    card["cpi_stacks"]["threads"][0][0] += 1
    card["qos"]["clean"] = not card["qos"]["clean"]
    problems = validator.validate(card)
    assert any("conservation" in p for p in problems)
    assert any(p.startswith("qos: clean") for p in problems)

    fleet = json.loads(
        (artifacts / "policy-frontier.report.json").read_text())
    assert validator.validate(fleet) == []
    fleet["runs"] += 1
    fleet["slowdown_decomposition"]["cpi"]["solo"][0] += 1.0
    problems = validator.validate(fleet)
    assert any("runs" in p for p in problems)
    assert any("cpi is not cycles/instructions" in p for p in problems)


def test_forced_kinds_check_lists_element_by_element():
    stack = {"schema": "repro.cpi-stack/1", "n_threads": 0, "threads": []}
    assert validator.validate([], "spans") != []
    assert validator.validate([1], "stacks") == [
        "stacks[0]: stacks must be an object, got int"]
    assert validator.validate(stack, "requests") == [
        "unknown requests schema 'repro.cpi-stack/1'"]
    assert validator.validate({"schema": "repro.metrics/9"}) == [
        "unknown schema 'repro.metrics/9'"]
    assert set(validator.KINDS) == {
        "trace", "metrics", "stacks", "prometheus", "spans", "alerts",
        "requests", "qos", "frontier"}


def test_module_runs_without_runpy_warning(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"traceEvents": []}))
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.telemetry.validate", str(trace)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "OK:" in done.stdout
