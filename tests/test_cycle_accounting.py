"""Cycle accounting: exact conservation, kernel independence, and the
fig10 slowdown decomposition (ISSUE 7).

The contract under test (docs/ARCHITECTURE.md "Cycle accounting"):
every simulated cycle of every thread lands in exactly one CPI-stack
bucket, so per-thread bucket sums equal measured cycles bit-for-bit —
on both kernels, because the hooks fire at identical (thread,
cycle) points regardless of how the kernel schedules component steps.
On top of the invariant sit the surfaces: ``decompose_slowdown`` must
produce byte-identical tables from the on-disk aggregate and from a
scraped ``/snapshot`` (the runner hands the same object to both), the
fig10 table must show VPC shrinking the L2-queueing buckets vs. FCFS
(the paper's claim in cycle terms), and the run-history ledger must
round-trip stacks through its JSONL append/read/diff cycle.
"""

from __future__ import annotations

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import baseline_config
from repro.experiments import parallel
from repro.experiments.runner import run_experiment
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry import LiveRun, TelemetryServer
from repro.telemetry.cycles import (
    BUCKETS,
    QUEUE_BUCKETS,
    decompose_slowdown,
    verify_stack,
)
from repro.telemetry.history import (
    append_entry,
    build_entry,
    diff_entries,
    read_history,
    render_diff,
    render_history,
)
from repro.workloads.profiles import spec_trace

KERNELS = ("cycle", "batch")

# Memory-intensive profiles exercise every bucket (queueing, bank
# conflicts, MSHR pressure, DRAM); compute-bound ones keep base/idle
# honest.  Hypothesis draws mixes from both ends.
WORKLOADS = ("art", "mcf", "mesa", "equake", "swim", "ammp", "crafty")


def _stack_for(names, arbiter, kernel, warmup=800, measure=1_200):
    config = baseline_config(n_threads=len(names), arbiter=arbiter)
    traces = [spec_trace(name, tid) for tid, name in enumerate(names)]
    system = CMPSystem(config, traces, kernel=kernel)
    system.attach_cycle_accounting()
    result = run_simulation(system, warmup=warmup, measure=measure)
    return result.cpi_stacks


@settings(max_examples=6, deadline=None)
@given(
    names=st.lists(st.sampled_from(WORKLOADS), min_size=2, max_size=4),
    arbiter=st.sampled_from(["fcfs", "vpc"]),
)
def test_conservation_and_kernel_identity(names, arbiter):
    """Random mixes x {fcfs, vpc} x both kernels: every thread's
    buckets sum exactly to measured cycles, and the batch kernel
    reproduces the cycle kernel's stacks bit for bit."""
    stacks = {}
    for kernel in KERNELS:
        snap = _stack_for(names, arbiter, kernel)
        assert verify_stack(snap) == [], (kernel, verify_stack(snap))
        for tid, row in enumerate(snap["threads"]):
            assert sum(row) == snap["measured_cycles"], (kernel, tid)
        stacks[kernel] = json.dumps(snap, sort_keys=True)
    assert stacks["batch"] == stacks["cycle"]


def test_conservation_survives_rebase_and_continuation():
    """Accounting attached before warmup and rebased at the measurement
    boundary (what run_simulation does) still conserves exactly over
    chunked continuations."""
    config = baseline_config(n_threads=2, arbiter="vpc")
    traces = [spec_trace("art", 0), spec_trace("mcf", 1)]
    system = CMPSystem(config, traces)
    acct = system.attach_cycle_accounting()
    system.run(700)
    acct.rebase(system.cycle)
    for chunk in (300, 500, 200):
        system.run(chunk)
    snap = acct.snapshot(system.cycle)
    assert snap["measured_cycles"] == 1_000
    assert verify_stack(snap) == []


def test_single_run_windows_carry_cpi_stacks(tmp_path, monkeypatch, capsys):
    """``python -m repro --cpi-stacks --alerts`` streams the same window
    snapshot keys an experiment point does, CPI stacks included."""
    from repro.cli import main
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"name": "retry-storm", "signal": "retries", "op": ">=",
         "threshold": 1, "severity": "warn"}]}))
    windows = []
    put = LiveRun.put

    def capture(live, message):
        if message[0] == "window":
            windows.append(message[4])
        put(live, message)

    monkeypatch.setattr(LiveRun, "put", capture)
    assert main(["art", "mcf", "--warmup", "1000", "--cycles", "3000",
                 "--metrics-window", "1000", "--cpi-stacks",
                 "--alerts", str(rules)]) == 0
    assert len(windows) == 3
    for snapshot in windows:
        assert {"attribution", "arbiter", "cpi_stacks"} <= set(snapshot)
        assert verify_stack(snapshot["cpi_stacks"]) == []


# --------------------------------------------------------------------- #
# fig10 golden: disk aggregate vs. scraped /snapshot, and the paper's
# qualitative claim (VPC bounds L2 queueing) in cycle terms.
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fig10_observed(tmp_path_factory):
    """One fast fig10 sweep with stacks on, served live — the expensive
    part, shared by the golden tests below."""
    live = LiveRun()
    parallel.configure(jobs=1, metrics=500, live=live, cpi_stacks=True)
    try:
        result = run_experiment("fig10", fast=True)
        disk = tmp_path_factory.mktemp("fig10") / "fig10.metrics.json"
        disk.write_text(json.dumps(result.metrics, indent=2) + "\n")
        with TelemetryServer(live, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/snapshot",
                                        timeout=10) as response:
                scraped = json.loads(response.read())
        yield result, json.loads(disk.read_text()), scraped
    finally:
        parallel.configure(jobs=1, cache=True)


def test_fig10_snapshot_matches_disk_byte_for_byte(fig10_observed):
    """finish_run hands /snapshot the exact aggregate written to disk,
    so the decomposition computed from either source is byte-identical
    — the golden the report card depends on."""
    _, disk, scraped = fig10_observed
    assert scraped == disk
    from_disk = decompose_slowdown(disk["per_point"])
    from_snap = decompose_slowdown(scraped["per_point"])
    assert from_disk is not None
    assert json.dumps(from_disk, sort_keys=True) == \
        json.dumps(from_snap, sort_keys=True)


def test_fig10_vpc_shrinks_l2_queueing(fig10_observed):
    """The decomposition must show the paper's mechanism: VPC's
    arbiter bounds each thread's share of L2 bandwidth, so the
    L2-queueing CPI components shrink vs. FCFS."""
    _, disk, _ = fig10_observed
    decomposition = decompose_slowdown(disk["per_point"])
    assert {"solo", "fcfs", "vpc"} <= set(decomposition["groups"])
    cpi = decomposition["cpi"]
    deltas = {
        bucket: cpi["vpc"][BUCKETS.index(bucket)]
        - cpi["fcfs"][BUCKETS.index(bucket)]
        for bucket in QUEUE_BUCKETS
    }
    assert all(delta <= 0 for delta in deltas.values()), deltas
    assert sum(deltas.values()) < 0, deltas


def test_fig10_per_point_stacks_conserve(fig10_observed):
    """Every per-point snapshot in the aggregate carries a stack that
    re-validates offline — what `repro validate` re-checks."""
    _, disk, _ = fig10_observed
    checked = 0
    for snapshot in disk["per_point"]:
        stacks = snapshot.get("cpi_stacks")
        if stacks is None:
            continue
        assert verify_stack(stacks) == []
        checked += 1
    assert checked >= 2


# --------------------------------------------------------------------- #
# Run-history ledger.
# --------------------------------------------------------------------- #

def _entry(tmp_metrics, exp_id="fig10"):
    return build_entry(exp_id, manifest={"kernel": "event"},
                       metrics=tmp_metrics)


def test_history_roundtrip_and_diff(fig10_observed, tmp_path):
    """Append two entries, read them back (torn trailing line ignored),
    and diff them bucket-by-bucket."""
    _, disk, _ = fig10_observed
    ledger = tmp_path / "ledger.jsonl"
    append_entry(ledger, _entry(disk))
    append_entry(ledger, _entry(disk, exp_id="fig10-again"))
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"torn": ')  # a crash mid-append must not poison reads
    entries = read_history(ledger)
    assert [e["exp_id"] for e in entries] == ["fig10", "fig10-again"]
    assert render_history(entries)  # renders without raising
    diff = diff_entries(entries[0], entries[1])
    assert diff["schema"] == "repro.run-history-diff/1"
    for group in diff["groups"].values():
        assert all(delta == 0 for delta in group["delta"])
    assert render_diff(diff)


def test_history_missing_ledger_reads_empty(tmp_path):
    assert read_history(tmp_path / "absent.jsonl") == []


# --------------------------------------------------------------------- #
# Dashboard: stacks column + narrow terminals.
# --------------------------------------------------------------------- #

def test_dashboard_renders_stacks_and_clips_to_width(fig10_observed):
    from repro.telemetry.dashboard import render

    _, disk, _ = fig10_observed
    health = {"status": "finished", "run": "fig10",
              "points": {"done": disk["points"],
                         "total": disk["points"]}}
    wide = render(disk, health).splitlines()
    assert any(line.lstrip().startswith("cpi stack") for line in wide)
    for width in (40, 60, 79):
        narrow = render(disk, health, width=width).splitlines()
        assert narrow, width
        assert all(len(line) <= width for line in narrow), (
            width, [line for line in narrow if len(line) > width][:3]
        )
