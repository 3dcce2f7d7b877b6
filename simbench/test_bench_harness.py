"""Self-test of the benchmark harness at tiny horizons.

Run from the repository root::

    python3 -m pytest simbench/test_bench_harness.py -q

Every workload runs once untraced and once traced at a 2k/3k-cycle
horizon with a held-out seed, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402

bench.add_src_path()

import pointsets  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = (2000, 3000)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def docs():
    return {name: bench.run_workload(name, seed=7, trace=True, horizon=TINY)
            for name in bench.WORKLOAD_NAMES}


def test_workload_names_match_benchmark_json():
    names = list(bench.WORKLOAD_NAMES)
    assert [w["name"] for w in SPEC["workloads"]] == names
    assert list(pointsets.WORKLOADS) == names


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(docs, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in declared:
        assert NAME_RE.fullmatch(name), name
    for doc in docs.values():
        emitted = doc[section]
        assert sorted(emitted) == sorted(declared), doc["workload"]
        for name, unit in declared.items():
            assert emitted[name]["unit"] == unit
            assert math.isfinite(emitted[name]["value"])


def test_checks_pass_and_traced_digests_equal_untraced(docs):
    for doc in docs.values():
        assert doc["errors"] == [], doc["workload"]
        assert doc["failed"] == 0
        assert doc["traced_digests"] == doc["digests"]


def test_telemetry_is_never_called_when_views_are_off(docs):
    for name, doc in docs.items():
        calls = doc["per_layer"]["telemetry.calls"]["value"]
        if pointsets.WORKLOADS[name](7).views:
            assert calls > 0, name
        else:
            assert calls == 0, name


def test_result_line_has_exactly_the_contract_keys(docs):
    for trace in (False, True):
        line = bench.result_line([docs["solo_stall"]], trace, prefix=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        json.dumps(line)


def test_sampler_leaves_its_own_samples_out():
    with hostspeed.Sampler() as block:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    # Every sample but the last, taken after the block, ran inside it.
    assert len(block.samples) >= 3
    assert block.sampling_s >= sum(block.samples[:-1])
    assert 0 < block.host_s < 0.3
    assert block.reference_s > 0


def test_tracer_restores_every_wrapped_callable():
    from repro.cpu.core_model import CoreModel
    from repro.experiments import parallel

    tick, run_point = CoreModel.tick, parallel.run_point
    with layers.LayerTracer():
        assert CoreModel.tick is not tick
        assert parallel.run_point is not run_point
    assert CoreModel.tick is tick
    assert parallel.run_point is run_point


def test_missing_hooks_count_zero_instead_of_failing(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "system", [
        ("repro.system.kernel", "run_gone"),
        ("repro.system.cmp", "CMPSystem.gone"),
        ("repro.no_such_module", "anything"),
    ])
    with layers.LayerTracer() as tracer:
        pass
    assert tracer.layer_totals()["system"]["calls"] == 0


def test_golden_mismatch_counts_every_changed_point():
    golden = bench.load_golden()["workloads"]["solo_stall"]
    wrong = ["0" * 16] * len(golden["digests"])
    errors = bench.golden_errors("solo_stall", wrong, {})
    assert sorted(i for i, _ in errors if i is not None) == list(
        range(len(wrong)))


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/bench.py", "--workload", "solo_stall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
