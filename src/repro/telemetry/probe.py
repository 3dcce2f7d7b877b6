"""The lifecycle probe: one hook slot per component, one event stream.

Every hooked component — core, MSHR file, L2 bank, L3 port, DRAM
channel, capacity manager, crossbar — holds one ``_probe`` attribute,
``None`` while no view is attached, so each hook site costs a single
``is not None`` test when disabled.  Components pass plain values
(track, thread, cycle, duration, queue depth, the request or state
machine at hand) and never build an event object; the probe fans each
call out to whichever views are attached.  Hooks fire at component
action sites shared verbatim by the cycle and batch kernels, so every
view is kernel-identical by construction.

Three families of views ride the probe:

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
* the **trace views**: a trace sink (``sink``, anything with
  ``emit(TraceEvent)``, e.g. a
  :class:`~repro.telemetry.bus.RingBufferSink` behind ``--trace``)
  receives one :class:`~repro.telemetry.events.TraceEvent` per hooked
  action, built here from what the hook received; the latency
  histograms (``--histograms``) and the request log
  (``record_requests``) are handed each retired read.

The probe also keeps the run's per-thread load counters (loads retired
and their latency sums), which the QoS control plane diffs at epoch
boundaries.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.cache.bank import SMState
from repro.core.vpc_arbiter import VPCArbiter
from repro.telemetry.events import (
    CAT_ARBITER,
    CAT_CACHE,
    CAT_DRAM,
    CAT_KERNEL,
    CAT_MSHR,
    CAT_REQUEST,
    CAT_RESOURCE,
    CAT_SGB,
    CAT_XBAR,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
    TraceEvent,
)

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
    "tag": {SMState.TAG_WAIT: (S_BANKQ, S_TAGQ),
            SMState.MISSTAG_WAIT: (S_L2SVC, S_TAGQ)},
    "data": {SMState.DATA_WAIT: (S_L2SVC, S_DATAQ)},
    "bus": {SMState.BUS_WAIT: (None, S_BUSQ)},
}

# The trace's occupancy-slice label for a grant, by the state the
# granted state machine waited in.
_SLICES = {
    SMState.TAG_WAIT: "tag",
    SMState.MISSTAG_WAIT: "misstag",
    SMState.FILLTAG_WAIT: "filltag",
    SMState.DATA_WAIT: "data",
    SMState.WBDATA_WAIT: "wbdata",
    SMState.FILLDATA_WAIT: "filldata",
    SMState.BUS_WAIT: "bus",
}

#: The view attributes a probe fans out to.
VIEWS = ("acct", "tracer", "metrics", "attributor", "monitor",
         "sink", "histograms", "log")


class LifecycleProbe:
    """Classifies component events and fans them out to the views.

    One instance per :class:`~repro.system.cmp.CMPSystem`, created by
    the first view attached to it; the view attributes (``acct``,
    ``tracer``, ``metrics``, ``attributor``, ``monitor``, ``sink``,
    ``histograms``, ``log``) are ``None`` when off, and :meth:`attach`
    sets them.  The system wires the probe only onto components whose
    events an attached view consumes.  Pickled with the system object
    graph, so checkpoints carry it and every view on it.

    ``dram_hooked`` is False when an L3 sits in front of memory: DRAM
    device service is then not a lifecycle stage, and all below-L2 time
    stays in ``dram_queue``.
    """

    def __init__(self, n_threads: int, dram_hooked: bool) -> None:
        # Where a missed read's data comes from when it queues for the
        # bank bus: the DRAM device, or opaque below-L2 time.
        self._memory_stage = S_DRAMSVC if dram_hooked else S_DRAMQ
        self.acct = None
        self.tracer = None
        self.metrics = None
        self.attributor = None
        self.monitor = None
        self.sink = None
        self.histograms = None
        self.log = None
        self.staged = False      # a lifecycle view is attached
        self.arbitrated = False  # a view reads arbiter traffic
        # (thread, line) -> req_id of a traced read below the L2: DRAM
        # channels carry no request.  MSHR coalescing plus the bank's
        # active-line exclusion allow at most one read per key there.
        self._below: Dict[Tuple[int, int], int] = {}
        # The run's load counters: per thread, loads retired and their
        # issue-to-critical-word latency sums since the probe existed.
        self.loads = [0] * n_threads
        self.load_latency = [0] * n_threads

    def attach(self, **views) -> None:
        """Set view attributes (``acct=...``, ``sink=...``)."""
        for name, view in views.items():
            if name not in VIEWS:
                raise ValueError(f"unknown probe view {name!r}")
            setattr(self, name, view)
        self.staged = self.acct is not None or self.tracer is not None
        self.arbitrated = (self.metrics is not None
                           or self.attributor is not None
                           or self.monitor is not None
                           or self.sink is not None)

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

    def _occupancy(self, track: str, outstanding: int, now: int) -> None:
        # Counter events carry numeric series only (Perfetto renders each
        # args key as one counter series; strings would corrupt the
        # track).
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_COUNTER, category=CAT_MSHR, name=track,
            track=track, args={"outstanding": outstanding},
        ))

    def mshr_allocated(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """A primary L2 read left the core: it enters l1_transit, and
        ``track``'s MSHR file now holds ``outstanding`` entries."""
        if self.sink is not None:
            self._occupancy(track, outstanding, now)
        if self.acct is not None:
            self.acct.mshr_allocated(tid, now)
        if self.metrics is not None:
            self.metrics.mshr(track, now, outstanding)

    def mshr_completed(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """The fill came back; the read leaves the lifecycle."""
        if self.sink is not None:
            self._occupancy(track, outstanding, now)
        if self.acct is not None:
            self.acct.mshr_completed(tid, now)
        if self.metrics is not None:
            self.metrics.mshr(track, now, outstanding)

    # --------------------------- memory side -------------------------- #

    def _span(self, phase: str, request, now: int, args) -> None:
        """One end of ``request``'s span on its thread's timeline."""
        tid = request.thread_id
        if request.is_write:
            name = "store"
        else:
            name = "prefetch" if request.is_prefetch else "load"
        self.sink.emit(TraceEvent(
            ts=now, phase=phase, category=CAT_REQUEST, name=name,
            track=f"t{tid}", tid=tid, id=request.req_id, args=args,
        ))

    def crossed(self, name: str, request, duration: int, now: int) -> None:
        """``request`` entered the crossbar (``xbar-req`` toward its
        bank, ``xbar-resp`` back to its core) for ``duration`` cycles.
        Only the trace reads transport, so only a sink wires it."""
        tid = request.thread_id
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_COMPLETE, category=CAT_XBAR, name=name,
            track=f"t{tid}", tid=tid, dur=duration,
            args={"req": request.req_id},
        ))

    def accepted(self, request, bank_id: int, now: int) -> None:
        """A request reached bank ``bank_id``.  Its trace span opens; a
        read parks in the input load queue, and a demand load's journey
        opens, back-dated to its issue cycle."""
        if self.sink is not None:
            self._span(PH_BEGIN, request, now,
                       {"line": request.line, "bank": bank_id})
        if self.metrics is not None:
            self.metrics.accepted()
        if not self.staged or not request.is_read:
            return
        if self.acct is not None:
            self.acct.move(request.thread_id, S_XFER, S_BANKQ, now)
        if self.tracer is not None and not request.is_prefetch:
            self.tracer.open(request, now)

    def gathered(self, bank_id: int, tid: int, line: int, now: int) -> None:
        """``tid``'s store to ``line`` merged into bank ``bank_id``'s
        gather buffer (only the trace marks merges)."""
        if self.sink is not None:
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_INSTANT, category=CAT_SGB, name="gather",
                track=f"bank{bank_id}.sgb", tid=tid, args={"line": line},
            ))

    def queued(self, resource, sm, now: int) -> None:
        """A bank state machine entered ``resource``'s arbiter queue."""
        request = sm.request
        if self.arbitrated:
            self.arbiter_enqueued(resource.arbiter, request.thread_id, now)
        if not self.staged or not request.is_read:
            return
        step = _QUEUED[resource.name].get(sm.state)
        if step is None:
            return
        old, new = step
        if old is None:
            old = S_L2SVC if sm.hit else self._memory_stage
        self._move(request, old, new, now)

    def granted(self, resource, sm, duration: int, now: int) -> None:
        """A queued state machine won arbitration and holds ``resource``
        for ``duration`` cycles: L2 service begins.  The trace shows the
        arbiter's grant, then the resource's occupancy slice."""
        request = sm.request
        if self.arbitrated:
            self.arbiter_granted(resource.arbiter, request.thread_id, now,
                                 duration, resource.track)
        if self.sink is not None:
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_COMPLETE, category=CAT_RESOURCE,
                name=_SLICES[sm.state], track=resource.track,
                tid=request.thread_id, dur=duration,
                args={"req": request.req_id},
            ))
        if not self.staged or not request.is_read:
            return
        step = _QUEUED[resource.name].get(sm.state)
        if step is not None:
            self._move(request, step[1], S_L2SVC, now)

    def arbiter_enqueued(self, arbiter, tid: int, now: int) -> None:
        """``tid`` entered ``arbiter``'s queue (a bank resource's or the
        L3 port's).  A VPC arbiter's trace instant carries the thread's
        virtual start time, ``R.S[tid]`` after Eq. 6."""
        track = arbiter.trace_name
        pending = arbiter.pending_for(tid)
        if self.sink is not None:
            args = {"pending": pending}
            if isinstance(arbiter, VPCArbiter):
                args["vstart"] = arbiter._r_s[tid]
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
                name="enqueue", track=track, tid=tid, args=args,
            ))
        if self.metrics is not None:
            self.metrics.enqueued(track, now, pending)
        if self.attributor is not None:
            self.attributor.enqueued(track, tid, now)
        if self.monitor is not None:
            self.monitor.enqueued(track, tid, now, pending)

    def arbiter_granted(self, arbiter, tid: int, now: int, duration: int,
                        busy_track: Optional[str] = None) -> None:
        """``arbiter`` granted ``tid`` ``duration`` service cycles; the
        grant holds resource ``busy_track`` (if any) busy meanwhile.  A
        VPC arbiter's trace instant carries the granted entry's virtual
        finish time: ``R.S[tid]`` after Eq. 5, or infinity for a
        zero-share thread, whose grant leaves ``R.S`` alone."""
        track = arbiter.trace_name
        pending = arbiter.pending_for(tid)
        if self.sink is not None:
            args = {"pending": pending}
            if isinstance(arbiter, VPCArbiter):
                args["vfinish"] = (math.inf if arbiter._r_l[tid] == math.inf
                                   else arbiter._r_s[tid])
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
                name="grant", track=track, tid=tid, dur=duration, args=args,
            ))
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

    def dram_issued(self, track: str, tid: int, line: int, is_write: bool,
                    bank: Optional[int], tracked: bool, start: int,
                    duration: int, now: int) -> None:
        """A DRAM channel issued ``tid``'s access to ``line`` at ``now``
        on device bank ``bank`` (``None``: the shared channel's trace
        names no bank); its data occupies channel ``track``'s bus for
        ``duration`` cycles from ``start``.  A ``tracked`` read begins
        device service."""
        if self.sink is not None:
            args = {"line": line}
            if bank is not None:
                args["bank"] = bank
            self.sink.emit(TraceEvent(
                ts=start, phase=PH_COMPLETE, category=CAT_DRAM,
                name="write" if is_write else "read", track=track, tid=tid,
                dur=duration, args=args,
            ))
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

    def victimized(self, condition: str, tid: int, now: int, track: str,
                   set_view, way: int, occupancy, excess: int) -> None:
        """Capacity manager ``track`` evicted ``way`` of ``set_view``
        under ``condition`` ("cond1" or "cond2", the victim's owner
        ``excess`` ways over quota) to make room for ``tid``'s line.
        ``occupancy`` is the set's pre-eviction per-thread way count."""
        if self.sink is not None:
            index = set_view.index
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_INSTANT, category=CAT_CACHE,
                name=condition, track=track, tid=tid,
                args={"set": index, "way": way,
                      "victim": set_view.owners[way], "excess": excess},
            ))
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_COUNTER, category=CAT_CACHE, name="ways",
                track=f"{track}.set{index}",
                args={f"t{owner}": ways
                      for owner, ways in enumerate(occupancy)},
            ))
        if self.metrics is not None:
            self.metrics.victimized(condition, tid, now)

    def responded(self, request, now: int) -> None:
        """A request retired toward its core: a load's critical word
        left the bank, or a store was acknowledged by its gather
        buffer.  Its trace span closes first, carrying the request."""
        if self.sink is not None:
            self._span(PH_END, request, now, {"request": request})
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
        if self.log is not None:
            self.log.record(request)
        if request.is_prefetch:
            return
        if self.tracer is not None:
            self._below.pop((tid, request.line), None)
            self.tracer.complete(request, now)
        if self.histograms is not None:
            self.histograms.record(tid, request)

    # ---------------------------- kernel side -------------------------- #

    def skipped(self, now: int, cycles: int, target: int, total: int) -> None:
        """The batch kernel jumped ``cycles`` quiescent cycles from
        ``now`` to ``target`` (``total`` skipped so far).  Only the
        trace marks skips, so the kernel calls this only with a sink."""
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_KERNEL, name="skip",
            track="kernel", dur=cycles,
            args={"to": target, "skipped_total": total},
        ))
