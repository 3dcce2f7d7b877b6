"""Tests for trace-file I/O and the top-level simulation CLI."""

import itertools
import json

import pytest

from repro.cli import main, parse_shares
from repro.common.config import VPCAllocation, baseline_config
from repro.cpu.isa import load, nonmem, store
from repro.experiments.parallel import RunSpec, SimPoint, run_point
from repro.telemetry.requests import load_slo
from repro.workloads import build_trace, workload_spec
from repro.workloads.microbench import loads_trace
from repro.workloads.tracefile import (
    format_item,
    parse_line,
    read_trace,
    save_trace,
    trace_from_file,
)


class TestFormatParse:
    def test_roundtrip_each_kind(self):
        for item in (nonmem(7), load(0x1000), load(64, True), store(0x40)):
            assert parse_line(format_item(item)) == item

    def test_hex_and_decimal_addresses(self):
        assert parse_line("L 0x40") == load(64)
        assert parse_line("l 64") == load(64)

    def test_dependent_flag(self):
        assert parse_line("L 0x40 D") == load(64, True)
        with pytest.raises(ValueError):
            parse_line("L 0x40 X")

    def test_junk_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 9"):
            parse_line("Q 12", lineno=9)
        with pytest.raises(ValueError):
            parse_line("N", lineno=1)


class TestFileRoundtrip:
    def test_save_and_read(self, tmp_path):
        path = tmp_path / "trace.txt"
        items = [nonmem(3), load(0x1000), store(0x2000), load(0x3000, True)]
        assert save_trace(items, path) == 4
        assert read_trace(path) == items

    def test_save_infinite_with_limit(self, tmp_path):
        path = tmp_path / "loads.txt"
        written = save_trace(loads_trace(0), path, limit=100)
        assert written == 100
        assert len(read_trace(path)) == 100

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\nN 5  # five ops\nL 0x40\n")
        assert read_trace(path) == [nonmem(5), load(64)]

    def test_loop_replay(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace([nonmem(1), load(64)], path)
        replayed = list(itertools.islice(trace_from_file(path, loop=True), 6))
        assert replayed == [nonmem(1), load(64)] * 3

    def test_single_pass_replay(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace([nonmem(1)], path)
        assert list(trace_from_file(path, loop=False)) == [nonmem(1)]

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            list(trace_from_file(path))

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace([], tmp_path / "x.txt", limit=-1)


class TestCLIHelpers:
    def test_resolve_microbench_and_spec(self):
        assert next(iter(build_trace(workload_spec("loads"), 0)))
        assert next(iter(build_trace(workload_spec("art"), 1)))

    def test_resolve_trace_file(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trace([nonmem(1), load(64)], path)
        trace = build_trace(workload_spec(f"trace:{path}"), 0)
        assert next(iter(trace)) == nonmem(1)

    def test_resolve_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_spec("doom")

    def test_parse_shares(self):
        assert parse_shares(None, 2) == [0.5, 0.5]
        assert parse_shares("0.75,0.25", 2) == [0.75, 0.25]
        with pytest.raises(ValueError):
            parse_shares("0.5", 2)


class TestCLIMatchesRunPoint:
    """``python -m repro`` runs its point through ``run_point``'s path,
    so the documents it writes are exactly the equivalent experiment
    point's."""

    def _point(self, **overrides) -> SimPoint:
        return SimPoint(
            config=baseline_config(n_threads=2, arbiter="vpc",
                                   vpc=VPCAllocation.equal(2)),
            traces=(("spec", "art"), ("spec", "mcf")),
            warmup=2_000, measure=6_000, **overrides)

    def test_views_match_run_point(self, tmp_path, capsys):
        paths = {name: tmp_path / f"{name}.json"
                 for name in ("metrics", "stacks", "requests")}
        assert main(["art", "mcf", "--arbiter", "vpc", "--warmup", "2000",
                     "--cycles", "6000", "--metrics", str(paths["metrics"]),
                     "--cpi-stacks", str(paths["stacks"]),
                     "--requests", str(paths["requests"]),
                     "--slo", "400"]) == 0
        result = run_point(self._point(), RunSpec(
            metrics=2_000, cpi_stacks=True, requests=True,
            slo=tuple(load_slo("400"))))
        for name, doc in (("metrics", result.metrics),
                          ("stacks", result.cpi_stacks),
                          ("requests", result.requests)):
            assert json.loads(paths[name].read_text()) == \
                json.loads(json.dumps(doc)), name

    def test_qos_log_matches_run_point(self, tmp_path, capsys):
        log = tmp_path / "qos.json"
        assert main(["art", "mcf", "--policy", "lfoc", "--epoch", "2000",
                     "--warmup", "2000", "--cycles", "6000",
                     "--qos-log", str(log)]) == 0
        result = run_point(self._point(controller="lfoc",
                                       epoch_cycles=2_000))
        assert json.loads(log.read_text()) == \
            json.loads(json.dumps(result.qos))


class TestCLIEndToEnd:
    def test_two_thread_run(self, capsys):
        exit_code = main([
            "loads", "stores", "--arbiter", "vpc", "--shares", "0.75,0.25",
            "--warmup", "6000", "--cycles", "3000",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "t0 loads" in out and "t1 stores" in out
        assert "L2 utilization" in out

    def test_trace_file_workload(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        save_trace(loads_trace(0), path, limit=2000)
        exit_code = main([
            f"trace:{path}", "--arbiter", "row-fcfs",
            "--warmup", "2000", "--cycles", "2000",
        ])
        assert exit_code == 0
        assert "trace:" in capsys.readouterr().out

    def test_prefetch_flag(self, capsys):
        exit_code = main([
            "mcf", "--prefetch", "--warmup", "3000", "--cycles", "2000",
        ])
        assert exit_code == 0
