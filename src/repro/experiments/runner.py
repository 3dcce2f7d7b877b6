"""Experiment CLI: ``python -m repro.experiments <id>... [--fast]``.

``<id>`` is any key printed by ``--list`` (table1, table2, fig4..fig10,
ablation-*), or ``all``.  ``--fast`` runs the reduced-fidelity variant
used by the test suite.  ``--jobs N`` fans independent simulation
points across N worker processes (0 = all CPUs); ``--no-cache``
disables the on-disk target-IPC cache (see
:mod:`repro.experiments.parallel`).  Observability (see
docs/ARCHITECTURE.md; the shared flags and the observer session that
opens and closes what they ask for live in
:mod:`repro.telemetry.options`): ``--progress`` reports per-point
completion and ETA on stderr, ``--trace PATH`` captures the runner's
orchestration events as a Chrome/Perfetto trace (a ``.jsonl`` path
streams them one JSON object per line), ``--spans PATH``
traces the host-time orchestration layer, ``--alerts RULES`` evaluates
declarative alert rules against the live stream (a fired
``severity=page`` rule exits nonzero), ``--requests [DIR]`` attaches
per-request latency tracing to every point (exact tail quantiles,
worst-k exemplar waterfalls, and ``--slo SPEC`` attainment; the
per-point ``repro.requests/1`` documents land in DIR), and
``--manifest [DIR]`` writes each experiment's provenance record next
to the output.

QoS policy (see docs/ARCHITECTURE.md "QoS control plane"):
``--policy {fcfs,vpc,lfoc}`` remaps every multi-thread point onto one
policy family, ``--controller {lfoc,fairness}`` attaches a dynamic
share controller re-tuned every ``--epoch`` cycles, and ``--figures
[DIR]`` writes the machine-readable figure document (e.g. the
``repro.policy-frontier/1`` frontier) for experiments that emit one.

Resilience (see docs/ARCHITECTURE.md "Resilience"): ``--run-dir DIR``
routes execution through the journaled fault-tolerant fleet —
checkpoints every ``--checkpoint-every`` cycles, per-point
``--point-timeout``, ``--max-retries`` with backoff — and ``--resume
DIR`` re-enters an interrupted run, skipping what already finished.
``--chaos SPEC`` arms the fault injector (tests/CI only).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments import parallel
from repro.experiments.base import ExperimentResult, registry
from repro.resilience.fleet import PointsExcludedError
from repro.system.kernel import DEFAULT_KERNEL
from repro.telemetry.manifest import RunManifest, write_document


def run_experiment(exp_id: str, fast: bool = False,
                   manifest_extra: Optional[dict] = None) -> ExperimentResult:
    """Run one experiment; the result carries a provenance manifest.

    When metrics collection is configured (``parallel.configure(...,
    metrics=window)``), the per-point snapshots the workers produced are
    drained here and attached as one aggregate on ``result.metrics``.

    ``manifest_extra`` merges additional provenance keys into the
    manifest (the CLI records the live telemetry endpoint here, so
    aggregators/tests can discover ``--serve 0``'s auto-assigned port
    without scraping stdout).
    """
    experiments = registry()
    if exp_id not in experiments:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(experiments)}"
        )
    cache_before = dict(parallel.cache_stats)
    spec = parallel.current_spec()
    kernel, live, spans = spec.kernel, spec.live, spec.spans
    if live is not None:
        live.begin_run(exp_id, kernel=kernel)
    started = time.monotonic()
    exp_span = None
    if spans is not None:
        exp_span = spans.begin(f"experiment.{exp_id}", fast=fast)
    result = experiments[exp_id](fast=fast)
    if spans is not None:
        spans.end(exp_span)
    snapshots = parallel.drain_metrics()
    if snapshots:
        from repro.telemetry.metrics import merge_snapshots
        aggregate = merge_snapshots(snapshots)
        # Recorded here AND injected by LiveRun.snapshot() so the disk
        # aggregate stays byte-identical to what /snapshot serves.
        aggregate["kernel"] = kernel
        result.metrics = aggregate
    if live is not None:
        # /snapshot now serves the exact aggregate written to disk.
        live.finish_run(result.metrics)
    extra = dict(manifest_extra or {})
    resilience = spec.resilience
    if resilience is not None:
        # Resume lineage: the manifest records which run directory this
        # result was (re)assembled from and under what policy.
        extra["resilience"] = {
            "run_dir": str(resilience.run_dir),
            "checkpoint_every": resilience.checkpoint_every,
            "max_retries": resilience.max_retries,
            "chaos_armed": (resilience.chaos is not None
                            and resilience.chaos.armed()),
        }
    result.manifest = RunManifest.collect(
        kernel=kernel,
        cache={
            key: parallel.cache_stats[key] - cache_before[key]
            for key in ("hits", "misses")
        },
        wall_time_s=round(time.monotonic() - started, 3),
        exp_id=exp_id,
        fast=fast,
        **extra,
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    from repro.telemetry.options import ObserverSession, telemetry_options
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        parents=[telemetry_options()],
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids, or 'all'")
    parser.add_argument("--fast", action="store_true",
                        help="reduced-fidelity runs (tests/CI)")
    parser.add_argument("--chart", action="store_true",
                        help="render numeric columns as bar charts")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent simulation "
                             "points (0 = all CPUs; default 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk target-IPC result cache")
    parser.add_argument("--progress", action="store_true",
                        help="report per-point progress and ETA on stderr")
    parser.add_argument("--manifest", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="write <exp_id>.manifest.json per experiment "
                             "into DIR (default: current directory)")
    parser.add_argument("--metrics", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="collect per-point time-series metrics and "
                             "write <exp_id>.metrics.json into DIR "
                             "(default: current directory; disables the "
                             "result cache for observed points)")
    parser.add_argument("--report", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="print a QoS fleet report card per experiment "
                             "and write <exp_id>.report.json into DIR "
                             "(implies metrics collection)")
    parser.add_argument("--cpi-stacks", action="store_true",
                        help="attach per-thread cycle accounting to every "
                             "point: CPI stacks with exact conservation "
                             "ride the metrics aggregate, report cards "
                             "gain a slowdown decomposition (implies "
                             "metrics collection)")
    parser.add_argument("--stacks", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="write <exp_id>.stacks.json (the per-point "
                             "CPI-stack documents) into DIR (default: "
                             "current directory; requires --cpi-stacks)")
    parser.add_argument("--requests", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="attach per-request latency tracing to every "
                             "point: exact tail quantiles, worst-k "
                             "exemplar waterfalls, and SLO attainment "
                             "ride the metrics aggregate and report "
                             "cards; write <exp_id>.requests.json (the "
                             "per-point documents) into DIR (default: "
                             "current directory; implies metrics "
                             "collection)")
    parser.add_argument("--policy", default=None, metavar="NAME",
                        choices=list(parallel.POLICIES),
                        help="remap every multi-thread point to one policy "
                             "family: fcfs (conventional cache), vpc "
                             "(static equal shares), or lfoc (VPC + the "
                             "LFOC clustering controller); solo target "
                             "points are never remapped")
    parser.add_argument("--controller", default=None, metavar="NAME",
                        choices=["lfoc", "fairness"],
                        help="attach a repro.qos controller to every "
                             "multi-thread point (lfoc or fairness); "
                             "implies VPC arbiters/capacity on those "
                             "points")
    parser.add_argument("--figures", nargs="?", const=".", default=None,
                        metavar="DIR",
                        help="write <exp_id>.figure.json (the machine-"
                             "readable figure document, e.g. the policy-"
                             "frontier frontier) into DIR for experiments "
                             "that produce one (default: current "
                             "directory)")
    parser.add_argument("--history", default=None, metavar="PATH",
                        help="append one run-history ledger entry per "
                             "experiment (manifest + headline metrics + "
                             "CPI stacks) to the JSONL file at PATH; "
                             "inspect with 'python -m repro history'")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="run through the fault-tolerant fleet, "
                             "journaling progress (and checkpoints, "
                             "results) into DIR so the run can be resumed")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="resume an interrupted run from its run "
                             "directory: completed points are not "
                             "re-simulated, half-done points restart from "
                             "their last checkpoint")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="CYCLES",
                        help="checkpoint each in-flight point every N "
                             "simulated cycles (0 = off; requires "
                             "--run-dir/--resume)")
    parser.add_argument("--point-timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="kill and retry a fleet worker stuck on one "
                             "point longer than this (0 = no timeout)")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retries per failing point before it is "
                             "excluded from the batch (default 2)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="arm the fault injector, e.g. "
                             "'kill=0.3,corrupt=0.2,seed=7' "
                             "(tests/CI; requires --run-dir)")
    args = parser.parse_args(argv)
    session = ObserverSession(parser, args)

    run_dir = args.resume or args.run_dir
    resilience = None
    if run_dir is not None:
        from repro.resilience import ChaosConfig, ResilienceConfig, replay
        chaos = ChaosConfig.parse(args.chaos) if args.chaos else None
        resilience = ResilienceConfig(
            run_dir=run_dir,
            checkpoint_every=args.checkpoint_every,
            point_timeout=args.point_timeout,
            max_retries=args.max_retries,
            chaos=chaos,
        )
        if args.resume:
            state = replay(run_dir)
            counts = state.summary()
            print(f"resuming {run_dir}: "
                  f"{counts['done']} done, {counts['pending']} pending, "
                  f"{counts['running']} interrupted mid-point, "
                  f"{counts['excluded']} previously excluded", flush=True)
    elif args.checkpoint_every or args.chaos:
        parser.error("--checkpoint-every/--chaos require --run-dir "
                     "or --resume")

    def resume_command() -> Optional[str]:
        if run_dir is None:
            return None
        raw = list(argv) if argv is not None else sys.argv[1:]
        kept, skip = [], False
        for token in raw:
            if skip:
                skip = False
                continue
            if token in ("--resume", "--run-dir"):
                skip = True
                continue
            kept.append(token)
        return ("python -m repro.experiments "
                + " ".join(kept + ["--resume", str(run_dir)]))

    if args.stacks is not None and not args.cpi_stacks:
        parser.error("--stacks requires --cpi-stacks")
    if args.list or not args.experiments:
        for exp_id in sorted(registry()):
            print(exp_id)
        return 0

    metrics_window = None
    if (args.metrics is not None or args.report is not None
            or args.serve is not None or args.cpi_stacks
            or args.requests is not None
            or args.history is not None or session.engine is not None):
        # Cycle accounting, request tracing, the history ledger, and
        # alert evaluation all ride the metrics aggregate, so each
        # implies collection.
        metrics_window = args.metrics_window
    settings = dict(jobs=args.jobs, cache=not args.no_cache,
                    metrics=metrics_window, resilience=resilience,
                    kernel=args.kernel or DEFAULT_KERNEL,
                    cpi_stacks=args.cpi_stacks,
                    requests=args.requests is not None, slo=session.slo,
                    policy=args.policy, controller=args.controller,
                    epoch=args.epoch)
    try:
        # The spec's checks run before the session opens its files and
        # server, so a bad setting leaves nothing behind.
        parallel.build_spec(**settings)
    except ValueError as exc:
        parser.error(str(exc))
    progress = None
    if args.progress or args.serve is not None:
        from repro.telemetry.progress import ProgressReporter
        progress = ProgressReporter()
    session.open(progress)
    parallel.configure(**settings, progress=progress,
                       telemetry=session.sink, live=session.live,
                       spans=session.tracer)

    requested = args.experiments
    if requested == ["all"]:
        requested = sorted(registry())

    def salvage_partial_metrics(exp_id: str) -> None:
        """Write the metrics of the points an interrupted or partially
        excluded experiment finished (``<exp_id>.metrics.partial.json``):
        ``run_points`` books every finished point however its batch
        ends, and each experiment drains its own."""
        snapshots = parallel.drain_metrics()
        if args.metrics is None or not snapshots:
            return
        from repro.telemetry.metrics import merge_snapshots
        path = Path(args.metrics) / f"{exp_id}.metrics.partial.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_document(path, merge_snapshots(snapshots))
        print(f"partial metrics ({len(snapshots)} points) -> {path}",
              file=sys.stderr)

    def bail(exp_id: str, reason: str, code: int) -> int:
        salvage_partial_metrics(exp_id)
        print(f"\n{reason}", file=sys.stderr)
        command = resume_command()
        if command is not None:
            print(f"resume with:\n  {command}", file=sys.stderr)
        else:
            print("no run directory was configured, so completed points "
                  "were not journaled; re-run with --run-dir DIR to make "
                  "runs resumable", file=sys.stderr)
        session.close(complete=False)
        return code

    manifest_extra = {}
    if session.server is not None:
        manifest_extra["serve_url"] = session.server.url
    if args.requests is not None:
        # Provenance: the run was request-traced, under which SLO spec.
        manifest_extra["request_tracing"] = {
            "artifact_dir": args.requests,
            "slo": args.slo,
        }
    manifest_extra = manifest_extra or None
    try:
        for exp_id in requested:
            started = time.time()
            try:
                result = run_experiment(exp_id, fast=args.fast,
                                        manifest_extra=manifest_extra)
            except KeyboardInterrupt:
                return bail(exp_id, f"interrupted during {exp_id}.", 130)
            except PointsExcludedError as exc:
                return bail(exp_id, f"{exp_id} incomplete:\n{exc}", 3)
            if args.chart:
                from repro.experiments.charts import render_result
                print(render_result(result))
            else:
                print(result.format_table())
            print(f"({time.time() - started:.1f}s)\n")
            per_point = (None if result.metrics is None
                         else result.metrics["per_point"])
            stacks, traced = (
                None if per_point is None
                else [snap[view] for snap in per_point if snap.get(view)]
                for view in ("cpi_stacks", "requests"))
            for kind, directory, document, counted, unit in (
                    ("manifest", args.manifest, result.manifest, None, ""),
                    ("metrics", args.metrics, result.metrics, per_point,
                     "point snapshots"),
                    ("figure", args.figures, result.figure, None, ""),
                    ("stacks", args.stacks, stacks, stacks, "point stacks"),
                    ("requests", args.requests, traced, traced,
                     "point documents")):
                if directory is None or document is None:
                    continue
                path = Path(directory) / f"{exp_id}.{kind}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                if kind == "manifest":
                    document.write(path)  # the one repr fallback
                else:
                    write_document(path, document)
                note = "" if counted is None else f" ({len(counted)} {unit})"
                print(f"{kind} -> {path}{note}")
            if args.history is not None and result.metrics is not None:
                from repro.telemetry.history import (
                    append_entry,
                    build_entry,
                    read_history,
                )
                if session.engine is not None:
                    # Bench regression is judged against the ledger as
                    # it stood BEFORE this run appends its own entry.
                    for payload in session.engine.evaluate_history(
                            exp_id, result.metrics,
                            read_history(args.history)):
                        session.live.alert(payload)
                append_entry(args.history, build_entry(
                    exp_id,
                    manifest=(result.manifest.to_dict()
                              if result.manifest is not None else None),
                    metrics=result.metrics,
                ))
                print(f"history -> {args.history}")
            if args.report is not None and result.metrics is not None:
                from repro.telemetry.report import (
                    build_report_card,
                    merge_report_cards,
                    render_fleet_card,
                    write_report,
                )
                cards = [
                    build_report_card(
                        n_threads=snap["n_threads"],
                        arbiter=snap.get("arbiter", "?"),
                        metrics=snap,
                        attribution=snap.get("attribution"),
                        run_label=f"{exp_id}[{index}]",
                    )
                    for index, snap in enumerate(
                        result.metrics["per_point"])
                ]
                fleet = merge_report_cards(cards, label=exp_id)
                from repro.telemetry.cycles import decompose_slowdown
                decomposition = decompose_slowdown(
                    result.metrics["per_point"])
                if decomposition is not None:
                    fleet["slowdown_decomposition"] = decomposition
                print(render_fleet_card(fleet))
                path = Path(args.report) / f"{exp_id}.report.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                write_report(fleet, str(path))
                print(f"report -> {path}\n")
    except BaseException:
        session.close(complete=False)
        raise
    summary = parallel.cache_summary()
    if summary:
        print(summary)
    return session.close()


if __name__ == "__main__":
    sys.exit(main())
