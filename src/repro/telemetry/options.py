"""The shell both CLIs share: one parent parser and one observer session.

``repro.cli`` (single runs) and ``repro.experiments.runner`` (paper
experiments) grew the same observability surface one feature at a
time, each copy-pasting the other's flags, until the copies drifted:
``--kernel`` defaulted differently (``None`` vs a kernel name), and the
``--serve-linger``/``--stale-after`` help text disagreed about what it
applied to.  This module is the single source of truth:

* :func:`telemetry_options` is one *parent* parser (argparse's
  composition mechanism — ``add_help=False``, passed via
  ``parents=[...]``) that both CLIs inherit, so a shared flag lands in
  both by construction;
* :class:`ObserverSession` checks those flags, opens what they ask for
  (the ``--trace`` sink, the ``--spans`` tracer, the alert engine and
  the live plane with its server, the profiler) and closes it all in
  one call, so each CLI keeps only its own work.

Only flags with the same meaning on both CLIs live here: the
observability flags, ``--slo`` (request-tracing SLO rules, which need
``--requests``) and ``--epoch`` (a QoS controller's epoch, which needs
``--controller`` or ``--policy lfoc``).  The session reads those owner
flags only for whether request tracing or a controller was asked for,
on which both CLIs agree.  Flags that merely share a spelling stay
with their owners, because deduplicating them would paper over a real
difference:

* ``--metrics``, ``--report``, ``--manifest``, ``--cpi-stacks`` and
  ``--requests`` name a file on the single-run CLI and a directory on
  the experiment runner;
* ``--policy``/``--controller`` remap one point on the single run
  (which refuses a controller on a non-VPC ``--arbiter``) but every
  multi-thread point on the runner (which forces VPC arbiters and
  leaves solo target points alone);
* ``--checkpoint-every`` is the cadence of the single run's
  ``--checkpoint PATH`` (default 10000) but of the runner's run
  directory (default 0, off).
"""

from __future__ import annotations

import argparse

from repro.system.kernel import DEFAULT_KERNEL, KERNELS


def telemetry_options() -> argparse.ArgumentParser:
    """The parent parser carrying every shared flag.

    Returns a fresh parser each call (argparse parents are consumed by
    reference; sharing one instance across two CLIs would cross-wire
    their defaults).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--epoch", type=int, default=None, metavar="CYCLES",
                        help="QoS controller epoch length in cycles "
                             "(default 5000; requires --controller or "
                             "--policy lfoc)")
    group = parent.add_argument_group("observability")
    group.add_argument("--kernel", default=None, choices=tuple(KERNELS),
                       help=f"simulation kernel (default: {DEFAULT_KERNEL}; "
                            "cycle is the cycle-by-cycle reference; both "
                            "produce bit-identical results, wall time "
                            "only — see tests/test_kernel_equivalence.py)")
    group.add_argument("--profile", default=None, metavar="PATH",
                       help="profile the run with cProfile: dump pstats "
                            "to PATH and print the top-20 cumulative "
                            "functions")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="capture telemetry as Chrome/Perfetto "
                            "trace_event JSON (open in ui.perfetto.dev); "
                            "a .jsonl suffix streams raw events instead")
    group.add_argument("--spans", default=None, metavar="PATH",
                       help="trace the host-time orchestration layer "
                            "(scheduling, workers, checkpoints, retries) "
                            "and write the repro.spans/1 document to "
                            "PATH; with --trace the spans also land in "
                            "the Perfetto export as a dedicated host "
                            "process")
    group.add_argument("--slo", default=None, metavar="SPEC",
                       help="latency SLO rules evaluated into every "
                            "request-tracing document: an integer (99%% "
                            "of every thread's loads under N cycles) or "
                            "a JSON/TOML rule file with an 'slos' list "
                            "(requires --requests)")
    group.add_argument("--metrics-window", type=int, default=2_000,
                       metavar="CYCLES",
                       help="metrics aggregation window in cycles "
                            "(default 2000)")
    group.add_argument("--serve", type=int, default=None, metavar="PORT",
                       help="serve live telemetry over HTTP while the "
                            "run executes (/metrics /healthz /snapshot "
                            "/events; 0 = auto-assign a port, printed "
                            "and recorded in the manifest; implies "
                            "metrics collection)")
    group.add_argument("--serve-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep the telemetry server up this long "
                            "after the run completes (scrape/smoke-test "
                            "window)")
    group.add_argument("--stale-after", type=float, default=30.0,
                       metavar="SECONDS",
                       help="worker heartbeat age after which /healthz "
                            "reports the run degraded (default 30)")
    group.add_argument("--alerts", default=None, metavar="RULES",
                       help="evaluate declarative alert rules (JSON or "
                            "TOML file) against the live event stream; "
                            "a fired severity=page rule makes the run "
                            "exit nonzero (implies metrics collection)")
    group.add_argument("--alerts-out", default=None, metavar="PATH",
                       help="write the repro.alerts/1 event document to "
                            "PATH at the end of the run (requires "
                            "--alerts)")
    return parent


class ObserverSession:
    """What the shared flags ask for, opened together, closed in one call.

    Construction checks the shared flags and loads the ``--slo`` rules
    (:attr:`slo`) and the ``--alerts`` engine (:attr:`engine`) and opens
    nothing, so a shared flag's usage error leaves no file or server
    behind.
    :meth:`open` builds the ``--trace`` sink (:attr:`sink`), the
    ``--spans`` tracer sharing it (:attr:`tracer`), the live plane for
    ``--serve`` or ``--alerts`` (:attr:`live`) with its server
    (:attr:`server`), and starts the ``--profile`` profiler.  Each is
    ``None`` when its flag is absent.  ``indent`` prefixes the lines
    :meth:`close` prints.
    """

    def __init__(self, parser: argparse.ArgumentParser, args,
                 indent: str = "") -> None:
        if args.epoch is not None:
            if args.controller is None and args.policy != "lfoc":
                parser.error("--epoch only applies when a QoS controller "
                             "runs; add --controller or --policy lfoc")
            if args.epoch < 1:
                parser.error("--epoch must be >= 1 cycle")
        self.slo = ()
        if args.slo is not None:
            if args.requests is None:
                parser.error("--slo requires --requests")
            from repro.telemetry.requests import load_slo
            try:
                self.slo = tuple(load_slo(args.slo))
            except (OSError, ValueError) as error:
                parser.error(f"--slo: {error}")
        from repro.telemetry.alerts import open_alerts
        self.engine = open_alerts(parser, args)
        self.args, self.indent = args, indent
        self.sink = self.tracer = self.live = self.server = None
        self._profiler = None

    def open(self, progress=None) -> None:
        """Open the observers; ``progress`` is the reporter the live
        plane warns about stale workers on."""
        args = self.args
        if args.trace:
            from repro.telemetry.bus import JsonlSink, RingBufferSink
            self.sink = (JsonlSink(args.trace) if args.trace.endswith(".jsonl")
                         else RingBufferSink())
        if args.spans is not None:
            from repro.telemetry.spans import SpanTracer
            # Sharing the --trace sink lands host spans in the same
            # Perfetto export as the run's own events.
            self.tracer = SpanTracer(sink=self.sink)
        if args.serve is not None or self.engine is not None:
            # --alerts without --serve still needs the live plane so the
            # engine sees the stream; it just never opens a socket.
            from repro.telemetry.server import LiveRun, serve
            self.live = LiveRun(stale_after=args.stale_after,
                                progress=progress, alert_engine=self.engine)
            if self.tracer is not None:
                self.live.on_span = self.tracer.ingest
            if args.serve is not None:
                self.server = serve(self.live, args.serve)
        if args.profile:
            from repro.common.profiling import start_profile
            self._profiler = start_profile()

    def close(self, events=(), complete: bool = True) -> int:
        """Finish the profile, write the Chrome trace (the sink's events
        then ``events``) or close the JSONL stream, write the spans,
        close the alerts and stop the server; returns the exit code.

        A run that did not complete only finishes the profile, closes
        the stream and stops the server at once: it writes no trace,
        spans or alerts.
        """
        args, indent = self.args, self.indent
        if self._profiler is not None:
            from repro.common.profiling import finish_profile
            finish_profile(self._profiler, args.profile)
        streamed = hasattr(self.sink, "close")
        if streamed:
            self.sink.close()
        code = 0
        if complete:
            if streamed:
                print(f"{indent}trace: events streamed -> {args.trace}")
            elif self.sink is not None:
                from repro.telemetry.perfetto import write_chrome_trace
                count = write_chrome_trace(args.trace, [*self.sink, *events])
                print(f"{indent}trace: {count} events -> {args.trace} "
                      "(open in ui.perfetto.dev)")
            if self.tracer is not None:
                from repro.telemetry.spans import write_spans
                count = write_spans(args.spans, self.tracer)
                print(f"{indent}spans: {count} host spans -> {args.spans}")
            from repro.telemetry.alerts import close_alerts
            code = close_alerts(self.engine, args.alerts_out)
        if self.server is not None:
            self.server.stop(linger=args.serve_linger if complete else 0.0)
        return code
