"""Trace goldens: pin what the trace sinks see, byte for byte.

The view goldens (test_view_goldens.py) pin every view document; these
pin the event stream itself.  Each configuration runs on both kernels,
once with only the trace sinks attached and once with every view the
configuration supports, and must reproduce ``golden/traces.json``:

* the event count;
* the sha256 of the Chrome trace JSON (``--trace x.json``, exemplar
  waterfalls included when request tracing is on) and of the JSONL
  stream (``--trace x.jsonl``);
* the latency-histogram table (``--histograms``);
* the request log's (thread, line, issued, critical-word) tuples
  (``record_requests``).

The configurations are the seven view-golden ones, a 2-thread SMT core
(the lifecycle views reject SMT, so it runs with the counting views
only) and a VPC whose second thread has a zero bandwidth share, whose
grants carry an infinite virtual finish time.

The two kernels must also trace the same machine: the cycle kernel's
stream equals the batch kernel's with its ``kernel`` skip instants
removed.

Request ids come from a process-global counter, so it is reset before
each system is built.  To re-record after an *intended* change to the
trace::

    PYTHONPATH=src python -m tests.test_trace_goldens --record
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.common import records
from repro.common.config import VPCAllocation, baseline_config
from repro.core.monitor import QoSMonitor
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.bus import JsonlSink, RingBufferSink
from repro.telemetry.metrics import MetricsCollector
from repro.telemetry.perfetto import chrome_trace
from repro.workloads import build_trace, workload_spec

from tests import test_view_goldens as views

GOLDEN = Path(__file__).parent / "golden" / "traces.json"
KERNELS = ("cycle", "batch")
VARIANTS = ("alone", "views")
#: name -> (config, workload names, SMT degree)
CONFIGS = {name: (config, names, 1)
           for name, (config, names) in views.CONFIGS.items()}
CONFIGS["smt"] = (baseline_config(n_threads=2, arbiter="vpc"),
                  views.PAIR, 2)
CONFIGS["vpc-zero-share"] = (
    baseline_config(n_threads=2, arbiter="vpc",
                    vpc=VPCAllocation([1.0, 0.0], [0.5, 0.5])),
    ["loads", "stores"], 1)


class _Tee:
    """One sink feeding both trace formats from the same events."""

    def __init__(self) -> None:
        self.ring = RingBufferSink()
        self.text = io.StringIO()
        self.jsonl = JsonlSink(self.text)

    def emit(self, event) -> None:
        self.ring.emit(event)
        self.jsonl.emit(event)


@functools.lru_cache(maxsize=None)
def _run(name: str, kernel: str, variant: str) -> dict:
    """One traced run: its golden entry plus the JSONL lines."""
    config, names, smt_degree = CONFIGS[name]
    records._request_ids = itertools.count()
    traces = [build_trace(workload_spec(bench), tid)
              for tid, bench in enumerate(names)]
    tee = _Tee()
    system = CMPSystem(config, traces, smt_degree=smt_degree, kernel=kernel,
                       telemetry=tee, record_requests=True)
    histograms = system.attach_histograms()
    collector = None
    if variant == "views":
        if smt_degree == 1:
            system.attach_cycle_accounting()
            system.attach_request_tracing()
        collector = system.attach_metrics(
            MetricsCollector(config.n_threads, window=views.WINDOW))
        system.attach_attribution()
        if config.arbiter == "vpc":
            QoSMonitor(system, window=views.WINDOW)
    run_simulation(system, warmup=views.WARMUP, measure=views.MEASURE,
                   metrics=collector)
    events = list(tee.ring)
    if system.request_tracer is not None:
        events.extend(system.request_tracer.exemplar_trace_events())
    chrome = json.dumps({"traceEvents": chrome_trace(events),
                         "displayTimeUnit": "ms"})
    jsonl = tee.text.getvalue()
    entry = {
        "events": len(tee.ring),
        "chrome_sha256": hashlib.sha256(chrome.encode()).hexdigest(),
        "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
        "histograms": histograms.format_report(),
        "request_log": [[request.thread_id, request.line,
                         request.issued_cycle, request.critical_word_cycle]
                        for request in system.request_log],
    }
    return {"entry": entry, "lines": jsonl.splitlines()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_trace_matches_golden(golden, name, kernel, variant):
    expected = golden[name][kernel][variant]
    actual = _run(name, kernel, variant)["entry"]
    where = f"config {name}, kernel {kernel}, {variant}"
    for field in ("events", "histograms", "request_log",
                  "jsonl_sha256", "chrome_sha256"):
        assert actual[field] == expected[field], f"{where}: {field} differs"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_kernels_trace_the_same_machine(name, variant):
    oracle = _run(name, "cycle", variant)["lines"]
    batch = [line for line in _run(name, "batch", variant)["lines"]
             if json.loads(line)["cat"] != "kernel"]
    for index, (left, right) in enumerate(zip(oracle, batch)):
        assert left == right, (f"config {name}, {variant}: event {index} "
                               f"differs:\n  cycle {left}\n  batch {right}")
    assert len(oracle) == len(batch)


def test_zero_share_grants_finish_at_infinity():
    """The zero-share configuration exists to pin ``vfinish = inf``
    grants; it pins nothing unless some occur."""
    lines = _run("vpc-zero-share", "cycle", "alone")["lines"]
    assert any('"vfinish": Infinity' in line for line in lines)


def _record() -> None:
    """Write the golden, one configuration per line."""
    rows = []
    for name in CONFIGS:
        entry = {kernel: {variant: _run(name, kernel, variant)["entry"]
                          for variant in VARIANTS}
                 for kernel in KERNELS}
        rows.append(f"{json.dumps(name)}: "
                    f"{json.dumps(entry, sort_keys=True)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_trace_goldens --record")
    _record()
