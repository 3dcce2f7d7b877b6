"""Online QoS monitoring: audit the bandwidth guarantee while running.

System software that programs the VPC control registers wants to *know*
when a guarantee was not delivered (a hardware bug, an over-allocation,
or an unaccounted preemption effect).  :class:`QoSMonitor` is a view on
the system's lifecycle probe (see docs/ARCHITECTURE.md "Observability"):
it folds the probe's record of every arbiter enqueue and grant of a
live system — the thread's queue depth after each, and the granted
service — and, per monitoring window, checks the fair-queuing service
bound for each thread that stayed backlogged through the window:

    service >= phi * window - allowance

where the allowance covers non-preemptibility and window-edge effects
(three maximum service times: a grant straddling each window edge plus
one EDF scheduling lag).  Windows where the bound fails are recorded as
:class:`ServiceViolation`s.

Because the audit is event-driven it works under the batch kernel's
skip-ahead (no per-cycle polling); windows close lazily as record cycle
stamps cross their boundaries, and :meth:`QoSMonitor.finish` flushes the
windows a run's tail spans.  A window's bound reads the arbiters' live
shares when it closes; the probe folds at every ``run()`` exit, before
any share register write between runs, so the shares read are the ones
the window ran under.  Use :func:`run_monitored` to drive a system with
a monitor attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.vpc_arbiter import VPCArbiter
from repro.system.cmp import CMPSystem
from repro.telemetry.probe import GRANTED


@dataclass(frozen=True)
class ServiceViolation:
    """One failed window on one resource for one thread."""

    window_start: int
    window_end: int
    bank_resource: str
    thread_id: int
    granted: int
    guaranteed: float


class QoSMonitor:
    """Watches the VPC arbiters of a :class:`CMPSystem` through its
    lifecycle probe (attached by the constructor), folding the probe's
    arbiter log; the probe folds at every ``run()`` exit, so the audit
    is current whenever a run is not in progress."""

    def __init__(self, system: CMPSystem, window: int = 2_000) -> None:
        if window < 1:
            raise ValueError("window must be >= 1 cycle")
        if system.config.arbiter != "vpc":
            raise ValueError("QoSMonitor requires a VPC-arbitrated system")
        self.system = system
        self.window = window
        self.violations: List[ServiceViolation] = []
        self.windows_checked = 0
        self._arbiters: List[Tuple[str, VPCArbiter]] = []
        for arbiters in system._vpc_arbiters.values():
            for arbiter in arbiters:
                self._arbiters.append((arbiter.trace_name, arbiter))
        # Guarantee-conformance ledger: per (resource, thread), windows
        # where the thread was eligible (backlogged with a nonzero
        # share) and windows where the service bound was met.
        n = system.config.n_threads
        self._eligible: Dict[str, List[int]] = {
            name: [0] * n for name, _ in self._arbiters
        }
        self._met: Dict[str, List[int]] = {
            name: [0] * n for name, _ in self._arbiters
        }
        self._window_start = system.cycle
        # Live pending counts, updated by the folded records; seeded
        # from the arbiters since requests may already be in flight at
        # attach.
        self._pending: Dict[str, List[int]] = {
            name: [arbiter.pending_for(tid) for tid in range(n)]
            for name, arbiter in self._arbiters
        }
        self._granted: Dict[str, List[int]] = {}
        self._backlogged: Dict[str, List[bool]] = {}
        self._open_window()
        system._attach_view(monitor=self)

    def _open_window(self) -> None:
        self._granted = {name: [0] * self.system.config.n_threads
                         for name, _ in self._arbiters}
        # A thread idle when the window opens is exempt from the bound,
        # exactly like the per-cycle poller's first observation was.
        self._backlogged = {
            name: [count > 0 for count in counts]
            for name, counts in self._pending.items()
        }

    # ------------------------------------------------------------------ #
    # Arbiter records (folded from repro.telemetry.probe's arbiter log).
    # ------------------------------------------------------------------ #

    def _advance(self, ts: int) -> None:
        """Close every window that ended at or before ``ts``."""
        boundary = self._window_start + self.window
        while ts >= boundary:
            self._close_window(boundary)
            boundary = self._window_start + self.window

    def fold(self, records) -> None:
        """Apply a run of arbiter-log records, in order.  A record at or
        past the open window's end first closes every window it passed;
        then, on an audited arbiter, the thread's queue depth becomes
        the record's, and a grant adds its service cycles to the window
        and, if it left the thread's queue empty, exempts the thread
        from the window's bound."""
        pending_of = self._pending
        boundary = self._window_start + self.window
        granted_of = self._granted
        backlogged_of = self._backlogged
        for kind, track, tid, ts, pending, duration, _ in records:
            if ts >= boundary:
                self._advance(ts)
                boundary = self._window_start + self.window
                granted_of = self._granted
                backlogged_of = self._backlogged
            counts = pending_of.get(track)
            if counts is None:  # not an arbiter this monitor audits
                continue
            counts[tid] = pending
            if kind == GRANTED:
                granted_of[track][tid] += duration
                if pending == 0:
                    backlogged_of[track][tid] = False

    def finish(self, end: int) -> None:
        """Flush every window that closed at or before ``end``."""
        while self._window_start + self.window <= end:
            self._close_window(self._window_start + self.window)

    # ------------------------------------------------------------------ #
    # Window audit.
    # ------------------------------------------------------------------ #

    def _close_window(self, end: int) -> None:
        span = end - self._window_start
        self.windows_checked += 1
        for name, arbiter in self._arbiters:
            max_service = 2 * arbiter.service_latency
            backlogged = self._backlogged[name]
            granted_row = self._granted[name]
            for thread_id, share in enumerate(arbiter.shares):
                if share <= 0 or not backlogged[thread_id]:
                    continue
                granted = granted_row[thread_id]
                # 3x max service: a grant straddling each window edge
                # plus one EDF/non-preemption lag inside the window.
                guaranteed = share * span - 3 * max_service
                self._eligible[name][thread_id] += 1
                if granted >= guaranteed:
                    self._met[name][thread_id] += 1
                if granted < guaranteed:
                    self.violations.append(
                        ServiceViolation(
                            window_start=self._window_start,
                            window_end=end,
                            bank_resource=name,
                            thread_id=thread_id,
                            granted=granted,
                            guaranteed=guaranteed,
                        )
                    )
        self._window_start = end
        self._open_window()

    @property
    def clean(self) -> bool:
        return not self.violations

    def conformance(self) -> Dict:
        """Guarantee-conformance summary for the QoS report card.

        A thread's conformance is the fraction of its *eligible* windows
        (backlogged with a nonzero share, on any resource) where the
        fair-queuing service bound held.  Threads never eligible report
        100%: no guarantee was ever at stake.
        """
        n = self.system.config.n_threads
        per_thread = []
        for tid in range(n):
            eligible = sum(rows[tid] for rows in self._eligible.values())
            met = sum(rows[tid] for rows in self._met.values())
            per_thread.append({
                "thread": tid,
                "eligible_windows": eligible,
                "met_windows": met,
                "conformance_pct":
                    100.0 * met / eligible if eligible else 100.0,
            })
        return {
            "window": self.window,
            "windows_checked": self.windows_checked,
            "violations": len(self.violations),
            "clean": self.clean,
            "per_thread": per_thread,
            "per_resource": {
                name: {"eligible": list(self._eligible[name]),
                       "met": list(self._met[name])}
                for name, _ in self._arbiters
            },
        }


def run_monitored(
    system: CMPSystem, cycles: int, monitor: QoSMonitor
) -> QoSMonitor:
    """Advance ``system`` by ``cycles`` with the monitor attached."""
    system.run(cycles)
    monitor.finish(system.cycle)
    return monitor
