"""The shell both CLIs share (:mod:`repro.telemetry.options`).

``python -m repro`` and ``python -m repro.experiments`` inherit the same
parent parser and check its flags in one :class:`ObserverSession`, so a
shared flag's usage error reads the same on both, and comes before the
session opens anything: no ``--trace`` file is left behind.
"""

from __future__ import annotations

import pytest

from repro.cli import main as run_main
from repro.experiments.runner import main as experiments_main

ENTRIES = {
    "run": (run_main, ["loads", "stores"]),
    "experiments": (experiments_main, ["table1"]),
}


@pytest.mark.parametrize("flags, message", [
    (["--slo", "400"], "--slo requires --requests"),
    (["--epoch", "1000"], "--epoch only applies when a QoS controller"),
    (["--policy", "lfoc", "--epoch", "0"], "epoch must be >= 1 cycle"),
    (["--alerts-out", "alerts.json"], "--alerts-out requires --alerts"),
], ids=["slo", "epoch", "epoch-zero", "alerts-out"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_shared_usage_errors_exit_2_and_open_nothing(entry, flags, message,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    main, argv = ENTRIES[entry]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stopped:
        main(argv + flags + ["--trace", "trace.jsonl"])
    assert stopped.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_jsonl_trace_with_a_checkpoint_is_refused_before_it_opens(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stopped:
        run_main(["loads", "stores", "--checkpoint", "run.ckpt",
                  "--trace", "trace.jsonl", "--serve", "0"])
    assert stopped.value.code == 2
    captured = capsys.readouterr()
    assert "cannot ride with a streaming .jsonl trace" in captured.err
    assert "serving telemetry" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "-1"], "jobs must be >= 0"),
    (["--metrics", "out", "--metrics-window", "0"],
     "metrics window must be >= 1 cycle"),
    (["--policy", "fcfs", "--controller", "lfoc"],
     "cannot ride the fcfs policy family"),
], ids=["jobs", "metrics-window", "fcfs-controller"])
def test_runner_settings_are_checked_before_the_session_opens(
        flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stopped:
        experiments_main(["table1"] + flags + ["--trace", "trace.jsonl"])
    assert stopped.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_single_run_bad_spec_is_a_usage_error(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stopped:
        run_main(["loads", "stores", "--metrics", "m.json",
                  "--metrics-window", "0", "--trace", "y.jsonl"])
    assert stopped.value.code == 2
    assert ("error: metrics window must be >= 1 cycle"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
