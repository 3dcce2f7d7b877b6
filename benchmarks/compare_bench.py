"""Compare a pytest-benchmark JSON run against a stored baseline.

CI runs the engine benchmarks with ``--benchmark-json`` every push and
then calls this script to hold the line on throughput: any benchmark
whose median runtime regressed more than the threshold (default 20%)
against ``benchmarks/BENCH_engine.json`` fails the job.  Benchmarks
present on only one side are reported but never fail the run — adding
a benchmark must not require regenerating the baseline in the same PR.

Usage::

    python benchmarks/compare_bench.py BASELINE.json CURRENT.json \
        [--threshold 0.20] [--history benchmarks/BENCH_history.jsonl]

``--history`` appends one JSONL record of the current run's medians per
invocation — an append-only bench trajectory (a sibling of the
run-history ledger, ``repro history``) that lets a later session plot
throughput over time without trawling CI artifacts.  Missing or empty
benchmark files degrade gracefully: a run with nothing to compare
reports the fact and exits 0 instead of tripping CI.

The baseline is refreshed deliberately (run the suite with
``--benchmark-json=benchmarks/BENCH_engine.json`` and commit) whenever
a PR intentionally trades throughput, so the diff shows the new floor.

Besides the regression gate the report prints per-kernel speedups:
for each (cycle-kernel, other-kernel) bench pair that times the same
system, the ratio of medians from the *current* run.  These rows are
informational — the kernels are bit-identical, so a speedup shift is a
perf observation, not a correctness failure — but they make the batch
kernel's two operating points visible in every CI log: the dense
2-thread microbench (worst case, ~1.7x) and the single-thread
target-IPC point (representative case, ~3-4x).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict


def load_medians(path: str) -> Dict[str, float]:
    """Benchmark name -> median seconds from a pytest-benchmark JSON.

    An unreadable or non-JSON file (a crashed bench run leaves a torn
    artifact) yields an empty dict; callers treat "no data" uniformly.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    medians = {}
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats", {})
        median = stats.get("median")
        if median:
            medians[bench["name"]] = float(median)
    return medians


# (baseline bench, contender bench, label) triples timing the same
# simulated system under different kernels.  Ratios are computed within
# one JSON so machine speed cancels out.
KERNEL_PAIRS = (
    ("test_bench_simulation_cycle_kernel",
     "test_bench_simulation_cycles_per_second",
     "batch/cycle  dense 2t (worst case)"),
    ("test_bench_uniprocessor_point_cycle_kernel",
     "test_bench_uniprocessor_point_batch_kernel",
     "batch/cycle  uniprocessor target-IPC point"),
)


def kernel_speedups(medians: Dict[str, float]) -> None:
    """Print cycle-kernel-relative speedups from one run's medians."""
    rows = [(label, medians[ref] / medians[new])
            for ref, new, label in KERNEL_PAIRS
            if ref in medians and new in medians]
    if not rows:
        return
    width = max(len(label) for label, _ in rows)
    print("kernel speedups (median cycle-kernel time / kernel time):")
    for label, speedup in rows:
        print(f"  {label:<{width}}  {speedup:5.2f}x")


def compare(baseline: Dict[str, float], current: Dict[str, float],
            threshold: float) -> int:
    """Print a per-benchmark verdict table; return the exit code."""
    failures = 0
    shared = sorted(set(baseline) & set(current))
    if not shared:
        # An empty intersection means there is no floor to hold — a
        # renamed suite, an empty current run, or a torn artifact.  CI
        # must not fail for a comparison that never happened, so report
        # loudly and pass.
        print("compare_bench: no benchmarks in common; nothing to hold "
              f"({len(baseline)} baseline, {len(current)} current)",
              file=sys.stderr)
        return 0
    width = max(len(name) for name in shared)
    for name in shared:
        old, new = baseline[name], current[name]
        ratio = new / old
        regressed = ratio > 1.0 + threshold
        verdict = "REGRESSED" if regressed else "ok"
        print(f"  {name:<{width}}  {old * 1e3:9.3f}ms -> {new * 1e3:9.3f}ms "
              f"({ratio:6.2f}x)  {verdict}")
        if regressed:
            failures += 1
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:<{width}}  (new benchmark, no baseline)")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:<{width}}  (baseline only, not run)")
    kernel_speedups(current)
    if failures:
        print(f"{failures} benchmark(s) regressed more than "
              f"{threshold:.0%} vs the stored baseline", file=sys.stderr)
        return 1
    print(f"all {len(shared)} shared benchmarks within {threshold:.0%} "
          "of baseline")
    return 0


def append_history(path: str, medians: Dict[str, float],
                   label: str = "") -> None:
    """Append this run's medians to the bench-trajectory JSONL ledger.

    One ``write()`` of one line per run, so a crash mid-append leaves
    every prior record whole (same contract as the run-history ledger).
    """
    record = {"schema": "repro.bench-history/1", "medians": medians}
    if label:
        record["label"] = label
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on >threshold median regressions vs a stored "
                    "pytest-benchmark baseline.")
    parser.add_argument("baseline", help="stored baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional slowdown (default 0.20)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="append the current run's medians to this "
                             "JSONL bench trajectory")
    parser.add_argument("--label", default="", metavar="TEXT",
                        help="free-form tag recorded with --history "
                             "(e.g. a commit SHA)")
    args = parser.parse_args(argv)
    baseline = load_medians(args.baseline)
    current = load_medians(args.current)
    if args.history is not None and current:
        append_history(args.history, current, label=args.label)
        print(f"compare_bench: appended {len(current)} medians "
              f"to {args.history}")
    if not baseline:
        # A fresh clone (or a branch that intentionally dropped the
        # baseline) has no floor to hold; that is a skip, not a failure.
        print(f"compare_bench: no baseline at {args.baseline}, skipping "
              "comparison (commit one with --benchmark-json to enable)")
        return 0
    return compare(baseline, current, args.threshold)


if __name__ == "__main__":
    raise SystemExit(main())
