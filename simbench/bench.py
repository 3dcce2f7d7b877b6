"""Simulator benchmark: four seeded workloads, end to end and per layer.

Run from the repository root::

    python3 simbench/bench.py [--workload NAME] [--seed N] [--seconds S]
                              [--trace 0|1] [--json PATH] [--write-golden]

With ``--workload`` one workload runs in this process: set-up, then one
untraced pass of its fixed point batch, then with ``--trace 1`` one
traced pass.  Repetitions come from fresh invocations.  Without
``--workload`` every workload runs in a fresh subprocess, traced unless
``--trace 0``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Checks failing exits 1; a checkout without
``src/repro`` exits 2 before printing a result.

The harness drives the program only through ``parallel.configure`` and
``run_points`` (jobs=1, point cache off, default kernel), so it measures
whatever the program's defaults are.  See simbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden" / "seed12345.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("fig10_hetero", "fig8_dense", "solo_stall", "fig10_observed")
#: Result fields one point's digest covers (measure window only).
DIGEST_FIELDS = ("ipcs", "instructions", "l2_reads", "l2_writes",
                 "read_hits", "read_misses", "write_hits", "write_misses",
                 "utilizations")
#: Set-up passes per run; set-up time is their median.
SETUP_PASSES = 5


def add_src_path() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: One set-up's import: a fresh interpreter importing the program.
_IMPORT = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "import repro.experiments.parallel, repro.system.cmp, "
           "repro.workloads")


def fresh_import() -> None:
    """Start a fresh interpreter that imports the program, and wait."""
    subprocess.run([sys.executable, "-c", _IMPORT, str(SRC)],
                   capture_output=True, check=True, timeout=120)


# ---------------------------------------------------------------------- #
# Correctness.
# ---------------------------------------------------------------------- #

def digest(result) -> str:
    payload = {name: getattr(result, name) for name in DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invariant_errors(workload, results) -> List[Tuple[Optional[int], str]]:
    """Seed-independent checks: (point index or None, message).

    A grant is charged to its resource in full when it starts, so one
    grant straddling the end of the window can lift a utilization above
    1 by at most the longest grant over the window length.
    """
    errors = []
    for index, (result, shares, point) in enumerate(
            zip(results, workload.shares, workload.points)):
        for tid, (ipc, share) in enumerate(zip(result.ipcs, shares)):
            if share > 0 and not ipc > 0:
                errors.append((index, f"thread {tid} has share {share} "
                                      f"but IPC {ipc}"))
        l2 = point.config.l2
        longest = 2 * max(l2.tag_latency, l2.data_read_latency,
                          l2.data_write_latency, l2.bus_line_cycles,
                          l2.fill_tag_update_latency)
        limit = 1.0 + longest / result.cycles
        utils = list(result.utilizations.values())
        for bank in result.bank_utilizations:
            utils.extend(bank.values())
        if not all(0.0 <= u <= limit for u in utils):
            errors.append((index, f"utilization outside [0, {limit:.4f}]: "
                                  f"{utils}"))
    return errors


def load_golden() -> Dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": 12345, "workloads": {}}


def golden_errors(name: str, digests: List[str],
                  model: Dict[str, Tuple[float, str]]):
    expected = load_golden()["workloads"].get(name)
    if expected is None:
        return [(None, f"no golden entry for {name} in {GOLDEN.name}")]
    errors = []
    if len(expected["digests"]) != len(digests):
        return [(None, f"golden has {len(expected['digests'])} points, "
                       f"run has {len(digests)}")]
    for index, (want, got) in enumerate(zip(expected["digests"], digests)):
        if want != got:
            errors.append((index, f"digest {got} != golden {want}"))
    for metric, want in expected["model"].items():
        got = model.get(metric, (None,))[0]
        if got != want:
            errors.append((None, f"{metric} {got} != golden {want}"))
    return errors


def record_golden(name: str, digests: List[str],
                 model: Dict[str, Tuple[float, str]]) -> None:
    golden = load_golden()
    golden["workloads"][name] = {
        "digests": digests,
        "model": {metric: value for metric, (value, _) in model.items()},
    }
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------- #
# Measurement.
# ---------------------------------------------------------------------- #

def construct_all(points) -> None:
    """Build every point's traces and CMPSystem."""
    from repro.system.cmp import CMPSystem
    from repro.workloads import build_trace
    for point in points:
        traces = [build_trace(spec, tid)
                  for tid, spec in enumerate(point.traces)]
        CMPSystem(point.config, traces,
                  capacity_policy=point.capacity_policy,
                  intra_thread_row=point.intra_thread_row,
                  vpc_selection=point.vpc_selection,
                  smt_degree=point.smt_degree)


def timed_batch(workload, on_sample=None) -> Tuple[float, float, List]:
    """Run the workload's points once, in order, one ``run_points``
    call each (the client waits for every result), each under its own
    host-speed sampler.  Returns (host seconds spent in ``run_points``,
    the same in reference seconds, results)."""
    from repro.experiments import parallel
    parallel.configure(jobs=1, cache=False, **dict(workload.views))
    gc.collect()
    host = reference = 0.0
    results: List = []
    for point in workload.points:
        with hostspeed.Sampler(on_sample) as block:
            results.extend(parallel.run_points([point]))
        host += block.host_s
        reference += block.reference_s
    return host, reference, results


def timed_setups(points) -> Tuple[List[float], List[float]]:
    """:data:`SETUP_PASSES` set-ups, each a fresh import of the program
    plus building every point's system under a host-speed sampler.
    Returns (host seconds, reference seconds), one per set-up."""
    host, reference = [], []
    for _ in range(SETUP_PASSES):
        gc.collect()
        with hostspeed.Sampler() as block:
            fresh_import()
            construct_all(points)
        host.append(block.host_s)
        reference.append(block.reference_s)
    return host, reference


def peak_rss_mb() -> float:
    """Peak resident set of this process, which runs every point (jobs=1)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, trace: bool,
                 horizon: Optional[Tuple[int, int]] = None,
                 write_golden: bool = False) -> Dict:
    """Set up, measure and check one workload; returns its result doc.

    ``horizon`` overrides every point's (warmup, measure) — the golden
    digests then do not apply and only the invariants are checked.
    ``write_golden`` records this run as the golden instead of checking.
    """
    import pointsets

    build = pointsets.WORKLOADS[name]
    workload = build(seed) if horizon is None else build(seed, *horizon)
    points = workload.points
    doc: Dict = {"workload": name, "seed": seed, "points": len(points),
                 "sim_cycles": workload.sim_cycles, "errors": [],
                 "model": {}, "attempted": len(points),
                 "failed": len(points)}

    # Set-up several times; the median counts.
    host_setups, setups = timed_setups(points)

    # One untraced pass: the end-to-end numbers.
    try:
        host_s, wall_s, results = timed_batch(workload)
    except Exception:  # a point raised: the whole batch is lost
        traceback.print_exc()
        doc["errors"].append([None, "run_points raised"])
        return doc
    digests = [digest(result) for result in results]
    doc["digests"] = digests
    doc["host"] = {"pass_s": host_s, "setups_s": host_setups}
    doc["end_to_end"] = {
        "wall_s": metric(wall_s, "s"),
        "sim_cycles_per_s": metric(workload.sim_cycles / wall_s, "cycles/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }

    errors = invariant_errors(workload, results)
    model = {}
    try:
        model = workload.model(results)
    except (ArithmeticError, ValueError, TypeError) as exc:
        errors.append((None, f"model metrics failed: {exc!r}"))
    for metric_name, (value, _) in model.items():
        if not math.isfinite(value):
            errors.append((None, f"{metric_name} is {value}"))
    doc["checks"] = "invariants"
    if horizon is None and seed == pointsets.PROGRAM_SEED:
        doc["checks"] = "golden digests and invariants"
        if write_golden:
            record_golden(name, digests, model)
        else:
            errors.extend(golden_errors(name, digests, model))
    failed = set()
    for index, message in errors:
        doc["errors"].append([index, message])
        failed.add(index if index is not None else -1)
    doc["model"] = {
        key: {"value": value, "unit": unit,
              "paper": pointsets.PAPER.get(key)}
        for key, (value, unit) in model.items()
    }

    if trace:
        per_layer, traced_digests = traced_pass(workload, results, wall_s)
        doc["attempted"] += len(points)
        doc["per_layer"] = per_layer
        doc["traced_digests"] = traced_digests
        for index, (want, got) in enumerate(zip(digests, traced_digests)):
            if want != got:
                failed.add(index)
                doc["errors"].append([index, "traced digest differs"])
    doc["failed"] = len(failed)
    return doc


def traced_pass(workload, results, wall_s: float):
    """Re-run the batch under the layer tracer; returns (per-layer
    metrics, traced digests).  ``wall_s`` is the untraced batch time in
    reference seconds; per-layer times are reference seconds too.
    Writes ``out/<workload>.spans.json``."""
    import layers
    from repro.experiments import parallel

    OUT.mkdir(exist_ok=True)
    cache_dir = OUT / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    old_cache_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        # The traced pass runs like the untraced one, point cache off.
        samples: List[float] = []
        with layers.LayerTracer() as tracer:
            traced_host_s, traced_s, traced = timed_batch(
                workload, on_sample=samples.append)
        # A host-speed sample lands in the self time of the call it
        # interrupts, so the layers share it in proportion to their time:
        # per-layer times are shares of the traced pass with its samples.
        traced_ns = (traced_host_s + sum(samples)) * 1e9
        scale = traced_s * 1e9 / traced_ns  # host -> reference seconds
        # Warm re-run: fill an empty cache directory with the cacheable
        # points (untimed), then time serving them from it.
        cacheable = [p for p in workload.points if p.cacheable]
        parallel.configure(jobs=1, cache=True)
        parallel.run_points(cacheable)
        parallel.configure(jobs=1, cache=True)
        start = time.perf_counter()
        warm = parallel.run_points(cacheable)
        warm_s = time.perf_counter() - start
        hits = parallel.cache_stats["hits"]
        lookups = hits + parallel.cache_stats["misses"]
        want = [digest(r) for r, p in zip(results, workload.points)
                if p.cacheable]
        if [digest(r) for r in warm] != want:
            raise RuntimeError("warm cache returned different results")
        # Views-on cost: the same points with every view off.
        if workload.views:
            _, bare_s, _ = timed_batch(replace(workload, views=()))
            overhead = (wall_s / bare_s - 1.0) * 100
        else:
            overhead = 0.0
    finally:
        if old_cache_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache_env
        shutil.rmtree(cache_dir, ignore_errors=True)
        parallel.configure(jobs=1, cache=False)

    totals = tracer.layer_totals()
    out: Dict[str, Dict] = {}

    def put(key: str, value: float, unit: str) -> None:
        if unit in ("s", "ns"):
            value *= scale
        out[key] = metric(float(value), unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer, row in totals.items():
        put(f"{layer}.items" if layer == "workloads" else f"{layer}.calls",
            row["calls"], "count")
        put(f"{layer}.self_s", row["self_ns"] / 1e9, "s")
        put(f"{layer}.share_pct", 100 * ratio(row["self_ns"], traced_ns), "%")

    kernel = tracer.kernel
    points = workload.points
    core_cycles = sum((p.warmup + p.measure) * p.config.n_threads
                      // p.smt_degree for p in points)
    bank_cycles = sum((p.warmup + p.measure) * p.config.l2.banks
                      for p in points)
    put("system.ns_per_sim_cycle",
        ratio(totals["system"]["self_ns"], kernel["cycles"]), "ns")
    put("system.skip_ratio", ratio(kernel["skipped"], kernel["cycles"]),
        "ratio")
    put("system.skip_hit_ratio", ratio(kernel["taken"], kernel["attempts"]),
        "ratio")
    calls, self_ns = tracer.by_name("CoreModel.tick")
    put("cpu.tick_ns", ratio(self_ns, calls), "ns")
    put("cpu.ticks_per_core_cycle", ratio(calls, core_cycles), "ratio")
    calls, self_ns = tracer.by_name("CacheBank.tick", "_tick_bank")
    put("cache.bank_tick_ns", ratio(self_ns, calls), "ns")
    put("cache.ticks_per_bank_cycle", ratio(calls, bank_cycles), "ratio")
    accesses = sum(r.read_hits + r.read_misses + r.write_hits + r.write_misses
                   for r in results)
    misses = sum(r.read_misses + r.write_misses for r in results)
    put("cache.l2_miss_rate", ratio(misses, accesses), "ratio")
    put("cache.data_util",
        statistics.mean(r.utilizations["data"] for r in results), "ratio")
    put("cache.gathering_rate",
        ratio(sum(r.stores_gathered for r in results),
              sum(r.stores_received for r in results)), "ratio")
    select = tracer.select_stats()
    put("core.select_ns_p50", select.quantile_ns(0.50), "ns")
    put("core.select_ns_p99", select.quantile_ns(0.99), "ns")
    put("core.select_samples", select.calls, "count")
    put("core.select_empty_ratio", ratio(select.empty, select.calls), "ratio")
    calls, self_ns = tracer.by_name("MemoryController.tick", "DRAMChannel.tick",
                                    "SharedDRAMChannel.tick")
    put("memory.tick_ns", ratio(self_ns, calls), "ns")
    put("telemetry.overhead_pct", overhead, "%")
    put("experiments.dispatch_s", tracer.by_name("run_points")[1] / 1e9, "s")
    put("experiments.cache_hit_ratio", ratio(hits, lookups), "ratio")
    put("experiments.warm_rerun_s", warm_s, "s")
    put("trace.overhead_pct", (traced_s / wall_s - 1.0) * 100, "%")
    attributed = sum(row["self_ns"] for row in totals.values())
    put("unattributed.share_pct",
        100 * ratio(traced_ns - attributed, traced_ns), "%")

    write_spans(workload, tracer)
    return out, [digest(result) for result in traced]


def write_spans(workload, tracer) -> None:
    origin = min((span["start_ns"] for span in tracer.spans), default=0)
    spans = [
        {**span, "start_ns": span["start_ns"] - origin,
         "end_ns": span["end_ns"] - origin}
        for span in tracer.spans if "end_ns" in span
    ]
    functions = [
        {"layer": s.layer, "name": s.name, "calls": s.calls,
         "total_ns": s.total_ns, "self_ns": s.self_ns}
        for s in tracer.stats
    ]
    doc = {"schema": "simbench.spans/1", "workload": workload.name,
           "spans": spans, "functions": functions}
    path = OUT / f"{workload.name}.spans.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------- #
# Reporting.
# ---------------------------------------------------------------------- #

def load_bounds() -> Dict[str, Dict]:
    """End-to-end metric declarations from BENCHMARK.json, by name."""
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def report(doc: Dict) -> None:
    bounds = load_bounds()
    print(f"== {doc['workload']}  seed {doc['seed']}: {doc['points']} points, "
          f"{doc['sim_cycles']:,} simulated cycles per batch; closed loop, "
          "1 client, jobs=1, point cache off")
    if "end_to_end" in doc:
        host = doc["host"]
        print(f"  end to end (untraced pass of {host['pass_s']:.2f} host s; "
              f"times in reference s: each point's host s x "
              f"{hostspeed.REFERENCE_S * 1e3:g} ms / its mean host-speed "
              "sample)")
        for key, m in doc["end_to_end"].items():
            spec = bounds.get(key, {})
            bound = (f"{spec['better']} is better, bound "
                     f"{spec['bound']:.0%}" if spec else "")
            print(f"    {key:<28}{m['value']:>16.4f} {m['unit']:<9}{bound}")
        print(f"    {'points_attempted':<28}{doc['attempted']:>16d} count")
        print(f"    {'points_failed':<28}{doc['failed']:>16d} count")
    if doc["model"]:
        print("  model (measure window only; deterministic per seed; the "
              "model is not validated against hardware)")
        for key, m in doc["model"].items():
            paper = "" if m["paper"] is None else f"paper {m['paper']:g}"
            print(f"    {key:<28}{m['value']:>16.4f} {m['unit']:<9}{paper}")
    if "per_layer" in doc:
        print("  per layer (traced pass)")
        for key, m in doc["per_layer"].items():
            print(f"    {key:<28}{m['value']:>16.4f} {m['unit']}")
    if doc["errors"]:
        print(f"  CHECKS FAILED ({len(doc['errors'])}):")
        for index, message in doc["errors"][:20]:
            where = "" if index is None else f"point {index}: "
            print(f"    {where}{message}")
    else:
        traced = ", traced digests equal" if "per_layer" in doc else ""
        print(f"  checks: {doc['points']} points pass ({doc['checks']}"
              f"{traced})")


def result_line(docs: Sequence[Dict], trace: bool, prefix: bool) -> Dict:
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for doc in docs:
        for key, m in doc.get(section, {}).items():
            metrics[f"{doc['workload']}.{key}" if prefix else key] = m
    return {
        "correct": all(not doc["errors"] for doc in docs),
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a fresh subprocess; merged report and JSON."""
    OUT.mkdir(exist_ok=True)
    docs = []
    for name in WORKLOAD_NAMES:
        path = OUT / f"{name}.result.json"
        path.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace), "--json", str(path)]
        if args.write_golden:
            command.append("--write-golden")
        subprocess.run(command, check=False)
        try:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError):
            print(f"simbench: {name} produced no result", file=sys.stderr)
            return 1
    merged = {"schema": "simbench/1", "seed": args.seed,
              "workloads": {doc["workload"]: doc for doc in docs}}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
    print("== summary")
    print(f"  {'workload':<16}{'wall_s':>9}{'cycles/s':>11}{'setup_s':>9}"
          f"{'rss_MB':>8}{'failed':>8}")
    for doc in docs:
        e2e = doc.get("end_to_end", {})

        def value(key: str) -> float:
            return e2e.get(key, {}).get("value", float("nan"))
        print(f"  {doc['workload']:<16}{value('wall_s'):>9.2f}"
              f"{value('sim_cycles_per_s'):>11.0f}{value('setup_s'):>9.3f}"
              f"{value('peak_rss_mb'):>8.1f}{doc['failed']:>5}/{doc['attempted']}")
    line = result_line(docs, False, prefix=True)
    if args.trace:
        line["metrics"].update(result_line(docs, True, prefix=True)["metrics"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: all, each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=12345,
                        help="input seed (default 12345, the program's "
                             "own seed, checked against golden digests)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time, BENCHMARK.json's "
                             "run_seconds; accepted for a uniform command "
                             "line, but a run always measures one pass of "
                             "its workload's fixed batch")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 adds the traced per-layer pass (default: "
                             "0 with --workload, 1 without)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full result document here")
    parser.add_argument("--write-golden", action="store_true",
                        help="at seed 12345, record digests and model "
                             "metrics as the golden instead of checking")
    args = parser.parse_args(argv)
    if args.trace is None:
        args.trace = 0 if args.workload else 1
    add_src_path()
    if args.workload is None:
        return run_all(args)
    doc = run_workload(args.workload, args.seed, bool(args.trace),
                       write_golden=args.write_golden)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    report(doc)
    print(json.dumps(result_line([doc], bool(args.trace), prefix=False)))
    return 0 if not doc["errors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
