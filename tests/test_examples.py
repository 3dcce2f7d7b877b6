"""Smoke tests: every example script runs to completion.

The examples double as end-to-end checks — several raise SystemExit
with a message if a QoS guarantee they demonstrate is violated, so a
clean exit is a meaningful assertion.  Simulation lengths are trimmed
via monkeypatched module constants to keep the suite fast.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_at_least_three_examples(self):
        scripts = list(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3
        assert (EXAMPLES_DIR / "quickstart.py").exists()


class TestQuickstart:
    def test_runs_with_short_budget(self, capsys, monkeypatch):
        module = load_example("quickstart.py")

        def quick_simulate(arbiter, vpc):
            from repro import CMPSystem, baseline_config, run_simulation
            from repro.workloads import loads_trace, stores_trace
            config = baseline_config(n_threads=2, arbiter=arbiter, vpc=vpc)
            system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
            result = run_simulation(system, warmup=8_000, measure=6_000)
            print(f"{arbiter} {result.ipcs[0]:.3f} {result.ipcs[1]:.3f}")

        monkeypatch.setattr(module, "simulate", quick_simulate)
        module.main()
        out = capsys.readouterr().out
        assert "vpc" in out


class TestMultimediaQoS:
    def test_floor_guaranteed(self, capsys, monkeypatch):
        module = load_example("multimedia_qos.py")
        monkeypatch.setattr(module, "WARMUP", 15_000)
        monkeypatch.setattr(module, "MEASURE", 10_000)
        module.main()   # raises SystemExit if the QoS floor is violated
        out = capsys.readouterr().out
        assert "floor guaranteed" in out


class TestDifferentiatedService:
    def test_sweep_monotone(self, capsys, monkeypatch):
        module = load_example("differentiated_service.py")
        monkeypatch.setattr(module, "WARMUP", 15_000)
        monkeypatch.setattr(module, "MEASURE", 8_000)
        monkeypatch.setattr(module, "SHARES", (0.25, 0.75))
        module.main()
        out = capsys.readouterr().out
        assert "live reprogramming" in out


class TestPrefetchStudy:
    def test_runs_and_contains_guarantee(self, capsys, monkeypatch):
        module = load_example("prefetch_study.py")
        monkeypatch.setattr(module, "WARMUP", 10_000)
        monkeypatch.setattr(module, "MEASURE", 8_000)
        module.main()   # raises SystemExit on a violated floor
        out = capsys.readouterr().out
        assert "solo pointer-chaser" in out
        assert "QoS floor" in out


class TestInterferenceForensics:
    def test_runs_clean(self, capsys, monkeypatch):
        module = load_example("interference_forensics.py")
        monkeypatch.setattr(module, "WARMUP", 12_000)
        monkeypatch.setattr(module, "MEASURE", 8_000)
        module.main()   # raises SystemExit on a monitor violation
        out = capsys.readouterr().out
        assert "FCFS" in out and "VPC" in out
        assert "all windows clean" in out


class TestAutopilotAllocation:
    def test_converges(self, capsys, monkeypatch):
        module = load_example("autopilot_allocation.py")
        monkeypatch.setattr(module, "EPOCH", 3_000)
        module.main()   # raises SystemExit if the target is missed badly
        out = capsys.readouterr().out
        assert "converged at share" in out
