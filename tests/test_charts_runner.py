"""Tests for chart rendering and the experiments CLI runner."""

import json
import math

import pytest

from repro.experiments import parallel
from repro.experiments.base import ExperimentResult
from repro.experiments.charts import numeric_columns, render_bars, render_result
from repro.experiments.runner import main


class TestRenderBars:
    def test_scales_to_max(self):
        text = render_bars(["a", "b"], [1.0, 2.0], "t", width=10)
        lines = text.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_explicit_max(self):
        text = render_bars(["a"], [1.0], "t", width=10, max_value=4.0)
        assert text.splitlines()[1].count("#") == 2  # 1/4 of 10, rounded

    def test_nan_rendered_as_na(self):
        text = render_bars(["a"], [float("nan")], "t")
        assert "(n/a)" in text

    def test_negative_clamped_to_zero(self):
        text = render_bars(["a", "b"], [-1.0, 1.0], "t", width=10)
        assert text.splitlines()[1].count("#") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0], "t")
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0], "t", width=0)

    def test_all_zero_values(self):
        text = render_bars(["a"], [0.0], "t")
        assert "#" not in text


class TestRenderResult:
    def result(self):
        return ExperimentResult(
            "x", "demo", ["name", "ipc", "note"],
            [("alpha", 0.5, "hi"), ("beta", 1.0, "yo")],
        )

    def test_numeric_columns_detected(self):
        assert numeric_columns(self.result()) == ["ipc"]

    def test_charts_every_numeric_column(self):
        text = render_result(self.result())
        assert "[ipc]" in text
        assert "[note]" not in text
        assert "alpha" in text and "beta" in text

    def test_nan_only_column_skipped(self):
        result = ExperimentResult("x", "t", ["k", "v"],
                                  [("a", float("nan"))])
        assert numeric_columns(result) == []


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_run_one_experiment(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "critical_word_total" in out

    def test_chart_mode(self, capsys):
        assert main(["fig4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "[tag]" in out and "#" in out

    @pytest.mark.parametrize("entry", ["experiments", "run"])
    def test_jsonl_trace_streams_one_event_per_line(self, entry, tmp_path,
                                                    capsys):
        """Both CLIs stream a .jsonl --trace: the runner's orchestration
        events, the single run's simulated ones."""
        from repro.cli import main as run_main
        cli, argv, orchestration = {
            "experiments": (main, ["fig7", "--fast"], True),
            "run": (run_main, ["loads", "stores", "--warmup", "500",
                               "--cycles", "500"], False),
        }[entry]
        trace = tmp_path / "run.jsonl"
        try:
            assert cli(argv + ["--trace", str(trace)]) == 0
        finally:
            parallel.configure(jobs=1, cache=True)
        assert f"events streamed -> {trace}" in capsys.readouterr().out
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events and all((event["track"] == "run.points") == orchestration
                              for event in events)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])
