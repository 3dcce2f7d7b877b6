"""View goldens: pin every view's document, not just its invariants.

Conservation and cross-kernel identity hold for any refactor that moves
cycles between buckets consistently, so the property tests in
test_cycle_accounting.py / test_request_tracing.py cannot catch a
changed stage taxonomy.  These goldens can: each configuration runs
with every view attached to one system — CPI stacks, request tracing,
the windowed metrics document with its interference-attribution
section, and (on VPC configurations) the QoS monitor's conformance
summary — and the documents must be byte-equal to
``golden/views.json`` on both kernels.  Each view attached alone must
also reproduce the all-attached document, so views never perturb each
other.

The configurations cover every hook site: the three arbiter policies,
an L3 in front of memory (DRAM channels unhooked for the lifecycle
stages, below-L2 time stays one ``dram_queue`` stage), the shared
fair-queued DRAM channel, a 4-thread fig10 mix, and the same mix on a
32 KiB 4-way L2, whose sets fill inside the run so both capacity
conditions fire.

To re-record after an *intended* change to the view outputs::

    PYTHONPATH=src python -m tests.test_view_goldens --record
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache.l3 import L3Config
from repro.common.config import L2Config, MemoryConfig, baseline_config
from repro.core.monitor import QoSMonitor
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.cycles import BUCKETS
from repro.telemetry.metrics import MetricsCollector
from repro.telemetry.requests import SEGMENTS
from repro.workloads.profiles import HETEROGENEOUS_MIXES, spec_trace

GOLDEN = Path(__file__).parent / "golden" / "views.json"
KERNELS = ("cycle", "batch")
VIEWS = ("cpi_stacks", "requests", "metrics", "conformance")
WARMUP, MEASURE = 800, 1_200
#: Metrics window and QoS-monitor window, in cycles.
WINDOW = 500
PAIR = ["art", "mcf"]
CONFIGS = {
    "vpc": (baseline_config(n_threads=2, arbiter="vpc"), PAIR),
    "fcfs": (baseline_config(n_threads=2, arbiter="fcfs"), PAIR),
    "row-fcfs": (baseline_config(n_threads=2, arbiter="row-fcfs"), PAIR),
    "l3": (replace(baseline_config(n_threads=2, arbiter="vpc"),
                   l3=L3Config()), PAIR),
    "shared-fq": (replace(baseline_config(n_threads=2, arbiter="vpc"),
                          memory=MemoryConfig(sharing="shared")), PAIR),
    "mix1-vpc": (baseline_config(n_threads=4, arbiter="vpc"),
                 HETEROGENEOUS_MIXES["mix1"]),
    "mix1-vpc-32k": (replace(baseline_config(n_threads=4, arbiter="vpc"),
                             l2=L2Config(size_bytes=32 * 1024, ways=4)),
                     HETEROGENEOUS_MIXES["mix1"]),
}


def _views(name: str) -> tuple:
    """The views a configuration pins: the monitor audits VPC only."""
    config, _ = CONFIGS[name]
    if config.arbiter == "vpc":
        return VIEWS
    return tuple(view for view in VIEWS if view != "conformance")


def _documents(name: str, kernel: str, views=None) -> dict:
    """Run one configuration with ``views`` attached to one system."""
    config, names = CONFIGS[name]
    if views is None:
        views = _views(name)
    traces = [spec_trace(bench, tid) for tid, bench in enumerate(names)]
    system = CMPSystem(config, traces, kernel=kernel)
    if "cpi_stacks" in views:
        system.attach_cycle_accounting()
    if "requests" in views:
        system.attach_request_tracing()
    collector = attributor = monitor = None
    if "metrics" in views:
        collector = system.attach_metrics(
            MetricsCollector(config.n_threads, window=WINDOW))
        attributor = system.attach_attribution()
    if "conformance" in views:
        monitor = QoSMonitor(system, window=WINDOW)
    result = run_simulation(system, warmup=WARMUP, measure=MEASURE,
                            metrics=collector)
    documents = {view: getattr(result, view) for view in views
                 if view in ("cpi_stacks", "requests")}
    if collector is not None:
        attributor.finish(system.cycle)
        documents["metrics"] = dict(result.metrics,
                                    attribution=attributor.snapshot())
    if monitor is not None:
        monitor.finish(system.cycle)
        documents["conformance"] = monitor.conformance()
    return documents


def _first_divergence(expected, actual, path=()):
    """Path to the first differing leaf of two JSON documents, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return path + (key,)
            found = _first_divergence(expected[key], actual[key],
                                      path + (key,))
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = _first_divergence(left, right, path + (index,))
            if found is not None:
                return found
        if len(expected) != len(actual):
            return path + (min(len(expected), len(actual)),)
        return None
    return None if expected == actual else path


def _describe(view: str, path) -> str:
    """Name a divergence path in view terms: thread, then the CPI
    bucket or request segment where the documents first disagree."""
    if len(path) < 2 or path[0] != "threads":
        return "/".join(str(part) for part in path) or "document"
    parts = [f"thread {path[1]}"]
    rest = path[2:]
    if view == "cpi_stacks":
        if rest:
            parts.append(f"bucket {BUCKETS[rest[0]]}")
        return " ".join(parts)
    if len(rest) >= 2 and rest[0] == "exemplars":
        parts.append(f"exemplar {rest[1]}")
        rest = rest[2:]
        if len(rest) >= 2 and rest[0] == "segments":
            parts.append(f"segment {SEGMENTS[rest[1]]}")
            rest = ()
    if rest:
        parts.append("/".join(str(part) for part in rest))
    return " ".join(parts)


def _assert_same(expected: dict, actual: dict, where: str) -> None:
    for view in VIEWS:
        if view not in actual:
            continue
        left = json.dumps(expected[view], sort_keys=True)
        right = json.dumps(actual[view], sort_keys=True)
        if left != right:
            path = _first_divergence(expected[view], actual[view])
            pytest.fail(f"{where}, view {view}: first divergence at "
                        f"{_describe(view, path)}")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_views_match_golden(golden, name, kernel):
    every = _documents(name, kernel)
    assert set(every) == set(golden[name])
    _assert_same(golden[name], every, f"config {name}, kernel {kernel}")
    for view in _views(name):
        alone = _documents(name, kernel, views=(view,))
        _assert_same(every, alone,
                     f"config {name}, kernel {kernel}, {view} attached alone")


def test_small_l2_fires_both_capacity_conditions(golden):
    """The 32 KiB configuration exists to pin Condition-1/2 counts:
    both must be non-zero for every thread, or it pins nothing."""
    totals = golden["mix1-vpc-32k"]["metrics"]["totals"]
    assert all(totals["cond1"]) and all(totals["cond2"])


def test_divergence_names_thread_and_bucket():
    stacks = {"threads": [[1, 2], [3, 4]]}
    moved = {"threads": [[1, 2], [3, 5]]}
    path = _first_divergence(stacks, moved)
    assert _describe("cpi_stacks", path) == f"thread 1 bucket {BUCKETS[1]}"
    doc = {"threads": [{"exemplars": [{"segments": [0, 1, 2]}]}]}
    bent = {"threads": [{"exemplars": [{"segments": [0, 2, 1]}]}]}
    path = _first_divergence(doc, bent)
    assert _describe("requests", path) == (
        f"thread 0 exemplar 0 segment {SEGMENTS[1]}")


def _record() -> None:
    """Write the golden from the cycle kernel, one configuration per
    line so diffs stay readable."""
    rows = [
        f"{json.dumps(name)}: "
        f"{json.dumps(_documents(name, 'cycle'), sort_keys=True)}"
        for name in CONFIGS
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_view_goldens --record")
    _record()
