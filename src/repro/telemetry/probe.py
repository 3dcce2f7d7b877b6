"""The lifecycle probe: one hook slot per component, one stage taxonomy.

Every hooked component — core, MSHR file, L2 bank, L3 port, DRAM
channel, capacity manager — holds one ``_probe`` attribute, ``None``
while no view is attached, so each hook site costs a single
``is not None`` test when disabled.  Components pass plain integers
(track, thread, cycle, duration, queue depth) and never build an event
object; the probe fans each call out to whichever views are attached.
Hooks fire at component action sites shared verbatim by the cycle and
batch kernels, so every view is kernel-identical by construction.

Two families of views ride the probe:

* the **lifecycle views** follow a demand or prefetch read through
  eight stages, from the cycle its MSHR is allocated to the cycle its
  fill returns.  :class:`~repro.telemetry.cycles.CycleAccounting` keeps
  a per-thread census of outstanding reads per stage (the memory half
  of a CPI stack); :class:`~repro.telemetry.requests.RequestTracer`
  keeps one journey per demand load (its segment waterfall).  The probe
  turns each component event into a stage transition once; neither view
  classifies component events itself.
* the **counting views** aggregate: the windowed
  :class:`~repro.telemetry.metrics.MetricsCollector`, the
  :class:`~repro.telemetry.attribution.InterferenceAttributor`, and the
  :class:`~repro.core.monitor.QoSMonitor` bandwidth audit.  They see
  every arbiter enqueue and grant (with the thread's queue depth after
  it), every resource busy interval, MSHR occupancy changes,
  capacity-manager victimizations and request retirements.

The probe also keeps the run's per-thread load counters (loads retired
and their latency sums), which the QoS control plane diffs at epoch
boundaries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# Stage indices, ordered shallow -> deep (a load-stalled thread is
# charged to the deepest stage any of its reads occupies).  Order is
# part of both view schemas — CPI stacks and exemplar segments are
# emitted positionally — so append-only.
S_XFER = 0      # crossbar transit, core <-> bank
S_BANKQ = 1     # parked in the bank input load queue (bank conflict)
S_TAGQ = 2      # waiting in the L2 tag arbiter queue
S_L2SVC = 3     # in service inside the L2 (tag/data/bus busy)
S_DATAQ = 4     # waiting in the L2 data-array arbiter queue
S_BUSQ = 5      # waiting in the L2 data-bus arbiter queue
S_DRAMQ = 6     # below the L2: controller/L3/DRAM queueing
S_DRAMSVC = 7   # DRAM device service (activate/column/burst)

STAGES = (
    "l1_transit", "bank_conflict", "l2_tag_queue", "l2_service",
    "l2_data_queue", "l2_bus_queue", "dram_queue", "dram_service",
)
N_STAGES = len(STAGES)

# A read entering a resource's arbiter queue in a given bank state:
# (stage it leaves, queue stage it enters).  The grant leaves that
# queue stage for l2_service.  ``None`` marks the bus queue's origin,
# which depends on the hit bit (see LifecycleProbe.queued).  Fill-side
# states (FILLTAG/WBDATA/FILLDATA) are absent: they follow the critical
# word, when the read is already back in transit to its core.
_QUEUED = {
    "tag": {"TAG_WAIT": (S_BANKQ, S_TAGQ), "MISSTAG_WAIT": (S_L2SVC, S_TAGQ)},
    "data": {"DATA_WAIT": (S_L2SVC, S_DATAQ)},
    "bus": {"BUS_WAIT": (None, S_BUSQ)},
}

#: The view attributes a probe fans out to.
VIEWS = ("acct", "tracer", "metrics", "attributor", "monitor")


class LifecycleProbe:
    """Classifies component events and fans them out to the views.

    One instance per :class:`~repro.system.cmp.CMPSystem`, created by
    the first view attached to it; the view attributes (``acct``,
    ``tracer``, ``metrics``, ``attributor``, ``monitor``) are ``None``
    when off, and :meth:`attach` sets them.  The system wires the probe
    only onto components whose events an attached view consumes.
    Pickled with the system object graph, so checkpoints carry it and
    every view on it.

    ``dram_hooked`` is False when an L3 sits in front of memory: DRAM
    device service is then not a lifecycle stage, and all below-L2 time
    stays in ``dram_queue``.
    """

    def __init__(self, n_threads: int, dram_hooked: bool) -> None:
        # Deferred: the bank module imports the telemetry package.
        from repro.cache.bank import SMState
        self._queued = {
            resource: {SMState[name]: step for name, step in states.items()}
            for resource, states in _QUEUED.items()
        }
        # Where a missed read's data comes from when it queues for the
        # bank bus: the DRAM device, or opaque below-L2 time.
        self._memory_stage = S_DRAMSVC if dram_hooked else S_DRAMQ
        self.acct = None
        self.tracer = None
        self.metrics = None
        self.attributor = None
        self.monitor = None
        self.staged = False    # a lifecycle view is attached
        self.counting = False  # an arbiter-level view is attached
        # (thread, line) -> req_id of a traced read below the L2: DRAM
        # channels carry no request.  MSHR coalescing plus the bank's
        # active-line exclusion allow at most one read per key there.
        self._below: Dict[Tuple[int, int], int] = {}
        # The run's load counters: per thread, loads retired and their
        # issue-to-critical-word latency sums since the probe existed.
        self.loads = [0] * n_threads
        self.load_latency = [0] * n_threads

    def attach(self, **views) -> None:
        """Set view attributes (``acct=...``, ``metrics=...``)."""
        for name, view in views.items():
            if name not in VIEWS:
                raise ValueError(f"unknown probe view {name!r}")
            setattr(self, name, view)
        self.staged = self.acct is not None or self.tracer is not None
        self.counting = (self.metrics is not None
                         or self.attributor is not None
                         or self.monitor is not None)

    def _move(self, request, old: int, new: int, now: int) -> None:
        if self.acct is not None:
            self.acct.move(request.thread_id, old, new, now)
        if self.tracer is not None and not request.is_prefetch:
            self.tracer.shift(request.req_id, new, now)

    # ----------------- core side (wired with CPI stacks) -------------- #

    def progress(self, tid: int, now: int, reason: int) -> None:
        """A core tick at ``now`` dispatched work."""
        self.acct.progress(tid, now, reason)

    def stall(self, tid: int, now: int, reason: int) -> None:
        """A core tick at ``now`` dispatched nothing."""
        self.acct.stall(tid, now, reason)

    def mshr_allocated(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """A primary L2 read left the core: it enters l1_transit, and
        ``track``'s MSHR file now holds ``outstanding`` entries."""
        if self.acct is not None:
            self.acct.mshr_allocated(tid, now)
        if self.metrics is not None:
            self.metrics.mshr(track, now, outstanding)

    def mshr_completed(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """The fill came back; the read leaves the lifecycle."""
        if self.acct is not None:
            self.acct.mshr_completed(tid, now)
        if self.metrics is not None:
            self.metrics.mshr(track, now, outstanding)

    # --------------------------- memory side -------------------------- #

    def accepted(self, request, now: int) -> None:
        """A request reached its bank.  A read parks in the input load
        queue, and a demand load's journey opens, back-dated to its
        issue cycle."""
        if self.metrics is not None:
            self.metrics.accepted()
        if not self.staged or not request.is_read:
            return
        if self.acct is not None:
            self.acct.move(request.thread_id, S_XFER, S_BANKQ, now)
        if self.tracer is not None and not request.is_prefetch:
            self.tracer.open(request, now)

    def queued(self, resource, sm, now: int) -> None:
        """A bank state machine entered ``resource``'s arbiter queue."""
        request = sm.request
        if self.counting:
            arbiter = resource.arbiter
            tid = request.thread_id
            self.arbiter_enqueued(arbiter.trace_name, tid, now,
                                  arbiter.pending_for(tid))
        if not self.staged or not request.is_read:
            return
        step = self._queued[resource.name].get(sm.state)
        if step is None:
            return
        old, new = step
        if old is None:
            old = S_L2SVC if sm.hit else self._memory_stage
        self._move(request, old, new, now)

    def granted(self, resource, sm, duration: int, now: int) -> None:
        """A queued state machine won arbitration and holds ``resource``
        for ``duration`` cycles: L2 service begins."""
        request = sm.request
        if self.counting:
            arbiter = resource.arbiter
            tid = request.thread_id
            self.arbiter_granted(arbiter.trace_name, tid, now, duration,
                                 arbiter.pending_for(tid), resource.track)
        if not self.staged or not request.is_read:
            return
        step = self._queued[resource.name].get(sm.state)
        if step is not None:
            self._move(request, step[1], S_L2SVC, now)

    def arbiter_enqueued(self, track: str, tid: int, now: int,
                         pending: int) -> None:
        """``tid`` entered arbiter ``track``'s queue, holding ``pending``
        entries there afterwards (bank resources and the L3 port)."""
        if self.metrics is not None:
            self.metrics.enqueued(track, now, pending)
        if self.attributor is not None:
            self.attributor.enqueued(track, tid, now)
        if self.monitor is not None:
            self.monitor.enqueued(track, tid, now, pending)

    def arbiter_granted(self, track: str, tid: int, now: int,
                        duration: int, pending: int,
                        busy_track: Optional[str] = None) -> None:
        """Arbiter ``track`` granted ``tid`` ``duration`` service cycles,
        leaving ``pending`` of its entries queued; the grant holds
        resource ``busy_track`` (if any) busy meanwhile."""
        if self.metrics is not None:
            self.metrics.granted(track, tid, now, duration, pending,
                                 busy_track)
        if self.attributor is not None:
            self.attributor.granted(track, tid, now, duration)
        if self.monitor is not None:
            self.monitor.granted(track, tid, now, duration, pending)

    def mem_queued(self, request, now: int) -> None:
        """A read miss left the L2 for the below-L2 hierarchy."""
        if not self.staged:
            return
        self._move(request, S_L2SVC, S_DRAMQ, now)
        if self.tracer is not None and not request.is_prefetch:
            self._below[(request.thread_id, request.line)] = request.req_id

    def dram_issued(self, track: str, tid: int, line: int, tracked: bool,
                    start: int, duration: int, now: int) -> None:
        """A DRAM channel issued an access at ``now``; its data occupies
        channel ``track``'s bus for ``duration`` cycles from ``start``.
        A ``tracked`` read of ``tid``'s ``line`` begins device service."""
        if self.metrics is not None:
            self.metrics.busy(track, start, duration)
        if not tracked or not self.staged:
            return
        if self.acct is not None:
            self.acct.move(tid, S_DRAMQ, S_DRAMSVC, now)
        if self.tracer is not None:
            req_id = self._below.pop((tid, line), None)
            if req_id is not None:
                self.tracer.shift(req_id, S_DRAMSVC, now)

    def victimized(self, condition: str, tid: int, now: int) -> None:
        """A capacity manager evicted under ``condition`` ("cond1" or
        "cond2") to make room for ``tid``'s line."""
        if self.metrics is not None:
            self.metrics.victimized(condition, tid, now)

    def responded(self, request, now: int) -> None:
        """A request retired toward its core: a load's critical word
        left the bank, or a store was acknowledged by its gather
        buffer."""
        if not request.is_read:
            if self.metrics is not None:
                self.metrics.store_retired(now)
            return
        tid = request.thread_id
        issued = request.issued_cycle
        critical = request.critical_word_cycle
        latency = critical - issued if 0 <= issued <= critical else 0
        self.loads[tid] += 1
        self.load_latency[tid] += latency
        if self.metrics is not None:
            self.metrics.load_retired(tid, now, latency)
        if self.acct is not None:
            self.acct.move(tid, S_L2SVC, S_XFER, now)
        if self.tracer is not None and not request.is_prefetch:
            self._below.pop((tid, request.line), None)
            self.tracer.complete(request, now)
