"""The shared telemetry/observability argparse flags.

``repro.cli`` (single runs) and ``repro.experiments.runner`` (paper
experiments) grew the same observability surface one PR at a time, each
copy-pasting the other's flags — by PR 7 the two copies had drifted:
``--kernel`` defaulted differently (``None`` vs a kernel name), and the
``--serve-linger``/``--stale-after`` help text disagreed about what it
applied to.  This module is the single source of truth: one *parent*
parser (argparse's composition mechanism — ``add_help=False``, passed
via ``parents=[...]``) that both CLIs inherit, so a new observability
flag lands in both by construction.

Only flags with identical semantics live here.  Flags that merely share
a spelling but mean different things per CLI (``--metrics`` is a file
path on the single-run CLI and a directory on the experiment runner,
``--report``/``--manifest``/``--cpi-stacks`` likewise differ) stay with
their owners — deduplicating those would paper over a real semantic
difference, the opposite of fixing drift.
"""

from __future__ import annotations

import argparse

from repro.system.kernel import DEFAULT_KERNEL, KERNELS


def telemetry_options() -> argparse.ArgumentParser:
    """The parent parser carrying every shared observability flag.

    Returns a fresh parser each call (argparse parents are consumed by
    reference; sharing one instance across two CLIs would cross-wire
    their defaults).
    """
    parent = argparse.ArgumentParser(add_help=False)
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
