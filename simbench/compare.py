"""Compare two simbench result documents, metric by metric.

Usage, from the repository root::

    python3 simbench/compare.py BASELINE.json CURRENT.json

Both files are ``--json`` outputs of ``simbench/bench.py`` (all
workloads, or one ``--workload``).  For each workload present in both,
one end-to-end row gives every metric's current value and its change
against the baseline, judged against the metric's bound and direction
in ``BENCHMARK.json``; at equal seeds the model metrics and point
digests must be identical.  A per-layer table follows with the change of
every per-layer metric (these have no bound).  Exits 1 when an
end-to-end metric regressed past its bound or the simulated results
changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[str, Dict]:
    """Workload name -> result doc, from a merged or single-workload doc."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def change(old: float, new: float) -> float:
    """Fractional change ``new/old - 1`` (0 when both are 0)."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return new / old - 1.0


def judge(base: Dict, cur: Dict, specs: List[Dict]) -> List[str]:
    """Regressions of one workload: end-to-end bounds, then model."""
    problems = []
    for spec in specs:
        name = spec["name"]
        if name not in base.get("end_to_end", {}) \
                or name not in cur.get("end_to_end", {}):
            continue
        delta = change(base["end_to_end"][name]["value"],
                       cur["end_to_end"][name]["value"])
        worse = delta if spec["better"] == "lower" else -delta
        if worse > spec["bound"]:
            problems.append(f"{name} {delta:+.1%} (bound {spec['bound']:.0%})")
    if base["seed"] == cur["seed"]:
        if base.get("digests") != cur.get("digests"):
            problems.append("point digests changed")
        for name, m in base.get("model", {}).items():
            if cur.get("model", {}).get(name, {}).get("value") != m["value"]:
                problems.append(f"model metric {name} changed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two simbench result documents.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    baseline, current = load(args.baseline), load(args.current)
    shared = [name for name in current if name in baseline]
    if not shared:
        print("compare: no workload in common", file=sys.stderr)
        return 1

    print("end to end: current value (change vs baseline); bounds from "
          "BENCHMARK.json")
    header = "".join(f"{spec['name']:>26}" for spec in specs)
    print(f"  {'workload':<16}{header}  verdict")
    failures = 0
    for name in shared:
        base, cur = baseline[name], current[name]
        cells = []
        for spec in specs:
            old = base.get("end_to_end", {}).get(spec["name"])
            new = cur.get("end_to_end", {}).get(spec["name"])
            if old is None or new is None:
                cells.append(f"{'-':>26}")
                continue
            delta = change(old["value"], new["value"])
            cells.append(f"{new['value']:>15.4g} ({delta:+7.1%})")
        problems = judge(base, cur, specs)
        failures += bool(problems)
        verdict = "ok" if not problems else "REGRESSED: " + "; ".join(problems)
        print(f"  {name:<16}{''.join(cells)}  {verdict}")

    keys = sorted({key for name in shared
                   for key in current[name].get("per_layer", {})
                   if key in baseline[name].get("per_layer", {})})
    if keys:
        print("per layer: current value (change vs baseline)")
        print(f"  {'metric':<30}" + "".join(f"{name:>26}" for name in shared))
        for key in keys:
            cells = []
            for name in shared:
                old = baseline[name].get("per_layer", {}).get(key)
                new = current[name].get("per_layer", {}).get(key)
                if old is None or new is None:
                    cells.append(f"{'-':>26}")
                    continue
                delta = change(old["value"], new["value"])
                cells.append(f"{new['value']:>15.4g} ({delta:+7.1%})")
            print(f"  {key:<30}" + "".join(cells))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
