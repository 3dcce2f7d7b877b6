"""Top-level simulation CLI: ``python -m repro <workload>... [options]``.

Runs an N-thread CMP where each positional argument names one thread's
workload: a SPEC stand-in profile (``art``, ``mcf``, ...), a Table-2
microbenchmark (``loads``/``stores``), a phase-changing schedule (a
``PHASED_PROFILES`` name like ``art-sixtrack``, or inline
``phase:bench+bench[@instructions]``), or ``trace:<path>`` for a
segment-trace file.  Prints per-thread IPC, utilization, and the
Figure-7 store statistics.

``--policy {fcfs,vpc,lfoc}`` selects a whole policy family at once;
``--controller {lfoc,fairness}`` attaches a dynamic QoS controller
that re-tunes the VPC share registers every ``--epoch`` cycles (see
docs/ARCHITECTURE.md "QoS control plane").

Examples::

    python -m repro loads stores --arbiter vpc --shares 0.75,0.25
    python -m repro art mcf gzip sixtrack --arbiter fcfs
    python -m repro trace:mytrace.txt stores --cycles 80000
    python -m repro art-sixtrack mcf equake-art gzip --policy lfoc \\
        --qos-log qos.json
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.common.config import VPCAllocation, baseline_config
from repro.experiments.parallel import PointRun, RunSpec, SimPoint
from repro.system.kernel import DEFAULT_KERNEL
from repro.workloads import build_trace, workload_name, workload_spec


def parse_shares(text: Optional[str], n_threads: int) -> List[float]:
    if text is None:
        return [1.0 / n_threads] * n_threads
    shares = [float(tok) for tok in text.split(",")]
    if len(shares) != n_threads:
        raise ValueError(
            f"--shares needs {n_threads} comma-separated values, got {text!r}"
        )
    return shares


def build_parser() -> argparse.ArgumentParser:
    from repro.telemetry.options import telemetry_options
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate workloads on the VPC-enabled CMP.",
        parents=[telemetry_options()],
    )
    parser.add_argument("workloads", nargs="*",
                        help="one workload per thread (see module "
                             "docstring); optional with "
                             "--resume-checkpoint, which restores them "
                             "from the snapshot")
    parser.add_argument("--arbiter", default="vpc",
                        choices=("vpc", "fcfs", "row-fcfs"))
    parser.add_argument("--shares", default=None,
                        help="comma-separated bandwidth shares (default equal)")
    parser.add_argument("--capacity-shares", default=None,
                        help="comma-separated way shares (default equal)")
    parser.add_argument("--banks", type=int, default=2)
    parser.add_argument("--warmup", type=int, default=30_000)
    parser.add_argument("--cycles", type=int, default=30_000,
                        help="measurement cycles after warmup")
    parser.add_argument("--capacity", default="vpc", choices=("vpc", "lru"))
    parser.add_argument("--selection", default="finish",
                        choices=("finish", "start"),
                        help="VPC arbiter fairness policy (WFQ or SFQ)")
    parser.add_argument("--prefetch", action="store_true",
                        help="enable the next-line prefetcher")
    parser.add_argument("--policy", default=None,
                        choices=("fcfs", "vpc", "lfoc"),
                        help="policy family shorthand, overriding "
                             "--arbiter/--capacity: fcfs (conventional "
                             "cache: FCFS arbiters + shared LRU), vpc "
                             "(static VPC shares), lfoc (VPC + the LFOC "
                             "clustering controller)")
    parser.add_argument("--controller", default=None,
                        choices=("lfoc", "fairness"),
                        help="attach a QoS controller that reprograms the "
                             "VPC control registers every --epoch cycles "
                             "(requires the vpc arbiter; with --report, "
                             "the fairness controller steers against the "
                             "measured solo targets)")
    parser.add_argument("--qos-log", default=None, metavar="PATH",
                        help="write the controller's repro.qos-decisions/1 "
                             "document (per-epoch labels, programmed "
                             "shares, Jain trajectory) to PATH")
    parser.add_argument("--histograms", action="store_true",
                        help="print per-thread/per-stage latency histograms "
                             "(implied tracing, no file needed)")
    parser.add_argument("--manifest", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="write a run manifest (config hash, git SHA, "
                             "kernel, wall time) to PATH, or print it when "
                             "no PATH is given")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="collect window time-series metrics and write "
                             "the JSON snapshot to PATH")
    parser.add_argument("--prometheus", default=None, metavar="PATH",
                        help="also export final metrics as Prometheus text "
                             "exposition to PATH (implies metrics)")
    parser.add_argument("--report", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="print a QoS report card (per-thread targets, "
                             "conformance, interference attribution); write "
                             "its JSON to PATH when given.  Target IPCs add "
                             "one private-machine run per thread")
    parser.add_argument("--cpi-stacks", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="attach per-thread cycle accounting (every "
                             "measured cycle lands in exactly one CPI-stack "
                             "bucket); print the stacks, or write the "
                             "repro.cpi-stack/1 JSON to PATH when given")
    parser.add_argument("--requests", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="attach request-scope tracing (per-request "
                             "stage waterfalls, exact streaming "
                             "p50/p95/p99/p999, worst-k exemplars); print "
                             "the summary, or write the repro.requests/1 "
                             "JSON to PATH when given")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="write a resumable checkpoint of the full "
                             "simulation to PATH every --checkpoint-every "
                             "cycles during the measurement")
    parser.add_argument("--checkpoint-every", type=int, default=10_000,
                        metavar="CYCLES",
                        help="checkpoint cadence in simulated cycles "
                             "(default 10000)")
    parser.add_argument("--resume-checkpoint", default=None, metavar="PATH",
                        help="continue the measurement from a checkpoint "
                             "written by --checkpoint (pass the same "
                             "workloads, or none to restore them from the "
                             "snapshot; the result is bit-identical to "
                             "the uninterrupted run)")
    return parser


def _resumed_labels(system) -> List[str]:
    """Workload labels recovered from a restored system's trace cursors
    (``ResumableTrace`` keeps its declarative spec)."""
    labels = []
    for tid in range(system.config.n_threads):
        core = system._core_of_thread[tid]
        spec = getattr(getattr(core, "_trace", None), "spec", None)
        labels.append(workload_name(spec) if isinstance(spec, tuple) and spec
                      else f"thread{tid}")
    return labels


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume_checkpoint and (
            args.report is not None or args.serve is not None
            or args.trace or args.histograms
            or args.cpi_stacks is not None
            or args.requests is not None
            or args.spans is not None or args.alerts):
        parser.error("--resume-checkpoint continues the original run's "
                     "observability; --report/--serve/--trace/--histograms/"
                     "--cpi-stacks/--requests/--spans/--alerts cannot be "
                     "added mid-run (a checkpointed accounting attachment "
                     "resumes automatically)")
    if args.resume_checkpoint and (args.policy is not None
                                   or args.controller is not None
                                   or args.epoch is not None):
        parser.error("--resume-checkpoint restores the original run's QoS "
                     "controller from the snapshot; --policy/--controller/"
                     "--epoch cannot change it mid-run")
    controller_name = args.controller
    if args.policy is not None:
        if args.policy == "fcfs":
            if controller_name is not None:
                parser.error("a QoS controller programs the VPC share "
                             "registers; --policy fcfs has none")
            args.arbiter, args.capacity = "fcfs", "lru"
        else:
            args.arbiter, args.capacity = "vpc", "vpc"
            if args.policy == "lfoc" and controller_name is None:
                controller_name = "lfoc"
    if controller_name is not None and args.arbiter != "vpc":
        parser.error(f"--controller needs the vpc arbiter, not "
                     f"{args.arbiter!r} (or use --policy lfoc)")
    if args.qos_log is not None and controller_name is None \
            and not args.resume_checkpoint:
        parser.error("--qos-log needs a QoS controller; add --controller "
                     "or --policy lfoc")
    from repro.telemetry.options import ObserverSession
    session = ObserverSession(parser, args, indent="  ")
    resumed = None
    if args.resume_checkpoint:
        from repro.resilience import CheckpointError, open_checkpoint
        try:
            resumed = open_checkpoint(args.resume_checkpoint)
        except CheckpointError as error:
            # A stale schema, a foreign or missing file: the error names
            # the file and the reason, and is a usage error, not a crash.
            parser.error(f"--resume-checkpoint: {error}")
        held = resumed.system.config.n_threads
        if args.workloads and len(args.workloads) != held:
            parser.error(f"checkpoint holds {held} threads but "
                         f"{len(args.workloads)} workloads were given")
        if not args.workloads:
            args.workloads = _resumed_labels(resumed.system)
    elif not args.workloads:
        parser.error("workloads are required "
                     "(unless --resume-checkpoint restores them)")

    n_threads = len(args.workloads)
    if resumed is not None:
        # The snapshot is authoritative on resume: topology flags on the
        # command line cannot change a simulation already in flight.
        config = resumed.system.config
        allocation = config.vpc
    else:
        traces = tuple(workload_spec(name) for name in args.workloads)
        allocation = VPCAllocation(
            parse_shares(args.shares, n_threads),
            parse_shares(args.capacity_shares, n_threads),
        )
        config = baseline_config(
            n_threads=n_threads, banks=args.banks,
            arbiter=args.arbiter, vpc=allocation,
        )
        if args.prefetch:
            from dataclasses import replace

            from repro.common.config import CoreConfig
            config = replace(
                config, core=CoreConfig(prefetch_enabled=True)
            ).validate()

    checkpointer = None
    if args.checkpoint:
        if args.trace and args.trace.endswith(".jsonl"):
            parser.error("--checkpoint cannot ride with a streaming .jsonl "
                         "trace: the sink's open file handle cannot be "
                         "pickled into a checkpoint")
        from repro.resilience import Checkpointer
        checkpointer = Checkpointer(args.checkpoint,
                                    every=args.checkpoint_every)

    observe = bool(args.metrics or args.prometheus
                   or args.report is not None or args.serve is not None
                   or args.alerts)
    spec = None
    if resumed is None:
        try:
            spec = RunSpec(
                metrics=args.metrics_window if observe else None,
                kernel=args.kernel or DEFAULT_KERNEL,
                cpi_stacks=args.cpi_stacks is not None,
                requests=args.requests is not None, slo=session.slo,
            )
        except ValueError as exc:
            parser.error(str(exc))

    # Every usage check is behind us: only now may files and the server
    # open.  The --trace sink is a view on the system's lifecycle probe
    # like the metrics views.
    session.open()
    tracer = session.tracer
    if tracer is not None:
        from repro.telemetry.spans import TRACK_RUN, TRACK_SCHED

    # Target IPCs (one private-equivalent run per thread) come first so
    # the metrics collector can track slowdown-vs-solo live.
    targets = None
    if args.report is not None:
        from repro.system.metrics import target_ipc

        def one_target(tid: int) -> float:
            return target_ipc(
                config,
                build_trace(traces[tid], 0),
                phi=allocation.bandwidth_shares[tid],
                beta=allocation.capacity_shares[tid],
                warmup=args.warmup,
                measure=args.cycles,
            )

        if tracer is not None:
            targets = []
            for tid, name in enumerate(args.workloads):
                with tracer.span(f"target-ipc.t{tid}", TRACK_SCHED,
                                 workload=name):
                    targets.append(one_target(tid))
        else:
            targets = [one_target(tid) for tid in range(n_threads)]

    if resumed is not None:
        point_run = PointRun.revive(resumed)
        if args.kernel is not None:
            # Kernels are bit-identical, so switching mid-run cannot
            # change the simulation — only how fast it finishes.
            point_run.system.kernel = args.kernel
    else:
        point = SimPoint(
            config=config, traces=traces,
            warmup=args.warmup, measure=args.cycles,
            capacity_policy=args.capacity, vpc_selection=args.selection,
            controller=controller_name, epoch_cycles=args.epoch or 5_000,
            controller_targets=(tuple(targets) if targets is not None
                                else None),
        )
        point_run = PointRun.build(
            point, spec, resumable=checkpointer is not None,
            sink=session.sink, baseline_ipcs=targets, monitor=observe)
    system = point_run.system
    histograms = system.attach_histograms() if args.histograms else None

    live = session.live
    if live is not None:
        live.begin_run(" ".join(args.workloads), kernel=system.kernel)
        live.begin_batch(1)

    if tracer is not None and checkpointer is not None:
        from repro.telemetry.spans import TRACK_CKPT

        def _on_saved(cycle: int) -> None:
            tracer.instant("checkpoint-write", TRACK_CKPT,
                           cycle=cycle, path=args.checkpoint)

        checkpointer.on_saved = _on_saved

    started = time.monotonic()
    simulate_span = None
    if tracer is not None:
        simulate_span = tracer.begin(
            "simulate", TRACK_RUN,
            workloads=" ".join(args.workloads), kernel=system.kernel,
            warmup=args.warmup, measure=args.cycles)
    result = point_run.run(feed=live, index=0, checkpoint=checkpointer)
    if tracer is not None:
        tracer.end(simulate_span, cycles=result.cycles)
    wall_time = time.monotonic() - started
    if live is not None:
        live.point_done(0, result.metrics)
        live.finish_run()

    print(f"{n_threads}-thread CMP, {config.l2.banks} banks, "
          f"arbiter={config.arbiter}"
          f" ({result.cycles} measured cycles after "
          f"{result.warmup_cycles} warmup)")
    for tid, name in enumerate(args.workloads):
        share = allocation.bandwidth_shares[tid]
        print(f"  t{tid} {name:<18} phi={share:<5.2f} "
              f"IPC {result.ipcs[tid]:.3f}")
    utils = result.utilizations
    print(f"  L2 utilization: tag {utils['tag']:.0%}  "
          f"data {utils['data']:.0%}  bus {utils['bus']:.0%}")
    print(f"  L2 requests: {result.l2_reads} reads, {result.l2_writes} writes "
          f"({result.write_fraction:.0%} writes), "
          f"gathering rate {result.gathering_rate:.0%}, "
          f"miss rate {result.l2_miss_rate:.0%}")

    if result.qos is not None:
        doc = result.qos
        final = doc.get("final") or {}
        labels = ",".join(final.get("labels", [])) or "-"
        print(f"  qos: {doc['policy']} controller, {doc['epochs']} epochs "
              f"of {doc['epoch_cycles']} cycles, final jain "
              f"{final.get('jain', 0.0):.3f}, labels [{labels}]")
        if final.get("phi"):
            shares = " ".join(f"{value:.2f}" for value in final["phi"])
            quotas = " ".join(f"{value:.2f}" for value in final["beta"])
            print(f"  qos shares: phi [{shares}]  beta [{quotas}]")
        if args.qos_log is not None:
            from repro.telemetry.manifest import write_document
            write_document(args.qos_log, doc)
            print(f"  qos decisions -> {args.qos_log}")
    elif args.qos_log is not None:
        print("  qos: none logged (the resumed checkpoint was written "
              "without a controller)")

    if args.cpi_stacks is not None and result.cpi_stacks is not None:
        stacks = result.cpi_stacks
        buckets = stacks["buckets"]
        print(f"  cycle accounting ({stacks['measured_cycles']} cycles "
              "per thread, buckets sum exactly):")
        for tid, row in enumerate(stacks["threads"]):
            parts = [f"{name} {value}"
                     for name, value in sorted(zip(buckets, row),
                                               key=lambda kv: -kv[1])
                     if value]
            print(f"    t{tid}: " + (", ".join(parts) or "(idle)"))
        if args.cpi_stacks != "-":
            from repro.telemetry.manifest import write_document
            write_document(args.cpi_stacks, stacks)
            print(f"  cpi stacks -> {args.cpi_stacks}")

    if args.requests is not None and result.requests is not None:
        from repro.telemetry.requests import render_requests, write_requests
        for line in render_requests(result.requests):
            print(f"  {line}")
        if args.requests != "-":
            write_requests(args.requests, result.requests)
            print(f"  requests -> {args.requests}")

    if args.metrics and result.metrics is None:
        print("  metrics: none collected (the resumed checkpoint was "
              "written without a metrics collector)")
    elif args.metrics:
        from repro.telemetry.manifest import write_document
        write_document(args.metrics, result.metrics)
        print(f"  metrics: {result.metrics['events_seen']} events "
              f"aggregated -> {args.metrics}")
    if args.prometheus:
        from repro.telemetry.metrics import to_prometheus
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(result.metrics))
        print(f"  metrics: Prometheus exposition -> {args.prometheus}")
    if args.report is not None:
        from repro.telemetry.report import (
            build_report_card,
            render_report_card,
            write_report,
        )
        card = build_report_card(
            n_threads=n_threads,
            arbiter=args.arbiter,
            metrics=result.metrics,
            attribution=result.metrics.get("attribution"),
            conformance=(point_run.monitor.conformance()
                         if point_run.monitor is not None else None),
            targets=targets,
            run_label=" ".join(args.workloads),
        )
        print()
        print(render_report_card(card))
        if args.report != "-":
            write_report(card, args.report)
            print(f"  report -> {args.report}")
    if histograms is not None:
        print("latency histograms (cycles):")
        print(histograms.format_report())
    if args.manifest is not None:
        from repro.telemetry.manifest import RunManifest
        lineage = {}
        if args.resume_checkpoint:
            lineage["resumed_from"] = args.resume_checkpoint
        if args.checkpoint:
            lineage["checkpoint"] = args.checkpoint
        if args.requests is not None:
            lineage["request_tracing"] = {
                "artifact": args.requests,
                "slo": args.slo,
                "exemplar_k": (system.request_tracer.exemplar_k
                               if system.request_tracer is not None else None),
            }
        if session.server is not None:
            # Record the (possibly auto-assigned via --serve 0) address
            # so artifacts point back at the endpoint that served them.
            lineage["serve_url"] = session.server.url
        manifest = RunManifest.collect(
            config=config, kernel=system.kernel,
            wall_time_s=round(wall_time, 3),
            workloads=list(args.workloads),
            warmup=result.warmup_cycles, cycles=result.cycles,
            skipped_cycles=system.skipped_cycles,
            skips_taken=system.skips_taken,
            **lineage,
        )
        manifest.write(args.manifest)
        if args.manifest != "-":
            print(f"  manifest -> {args.manifest}")
    exemplars = ()
    if session.sink is not None and system.request_tracer is not None:
        # Worst-k exemplar waterfalls ride in the same trace file,
        # flow-linked to the request spans on the thread timelines.
        exemplars = system.request_tracer.exemplar_trace_events()
    return session.close(exemplars)


if __name__ == "__main__":
    raise SystemExit(main())
