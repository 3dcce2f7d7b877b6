"""View goldens: pin the CPI-stack and request documents, not just
their invariants.

Conservation and cross-kernel identity hold for any refactor that moves
cycles between buckets consistently, so the property tests in
test_cycle_accounting.py / test_request_tracing.py cannot catch a
changed stage taxonomy.  These goldens can: each configuration runs
with both views attached to one system, and the documents must be
byte-equal to ``golden/views.json`` on both kernels.  Each view
attached alone must also reproduce the both-attached document, so
views never perturb each other.

The configurations cover every hook site: the three arbiter policies,
an L3 in front of memory (DRAM channels unhooked, below-L2 time stays
one ``dram_queue`` stage), the shared fair-queued DRAM channel, and a
4-thread fig10 mix.

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
from repro.common.config import MemoryConfig, baseline_config
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.cycles import BUCKETS
from repro.telemetry.requests import SEGMENTS
from repro.workloads.profiles import HETEROGENEOUS_MIXES, spec_trace

GOLDEN = Path(__file__).parent / "golden" / "views.json"
KERNELS = ("cycle", "batch")
VIEWS = ("cpi_stacks", "requests")
WARMUP, MEASURE = 800, 1_200
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
}


def _documents(name: str, kernel: str, views=VIEWS) -> dict:
    """Run one configuration with ``views`` attached to one system."""
    config, names = CONFIGS[name]
    traces = [spec_trace(bench, tid) for tid, bench in enumerate(names)]
    system = CMPSystem(config, traces, kernel=kernel)
    if "cpi_stacks" in views:
        system.attach_cycle_accounting()
    if "requests" in views:
        system.attach_request_tracing()
    result = run_simulation(system, warmup=WARMUP, measure=MEASURE)
    return {view: getattr(result, view) for view in views}


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
    both = _documents(name, kernel)
    _assert_same(golden[name], both, f"config {name}, kernel {kernel}")
    for view in VIEWS:
        alone = _documents(name, kernel, views=(view,))
        _assert_same(both, alone,
                     f"config {name}, kernel {kernel}, {view} attached alone")


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
