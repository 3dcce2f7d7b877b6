"""The lifecycle probe: one hook slot per component, one record log.

Every hooked component — core, MSHR file, L2 bank, L3 port, DRAM
channel, capacity manager, crossbar — holds one ``_probe`` attribute,
``None`` while no view is attached, so each hook site costs a single
``is not None`` test when disabled.  Components pass plain values
(track, thread, cycle, duration, queue depth, the request or state
machine at hand) and never build an event object.  Hooks fire at
component action sites shared verbatim by the cycle and batch kernels,
so every view is kernel-identical by construction.

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

Record and fold.  The trace views are fed at hook time: the sink's
event order is part of its output.  The lifecycle and counting views
are not called per event.  A hook classifies its event once and
appends one flat record (a tuple whose first field is its kind, below)
to each log an attached view consumes: the *arbiter log* (metrics,
attribution, the QoS monitor), the *counter log* (metrics), the *stage
log* (CPI stacks) and the *journey log* (request tracing).  Each view's
``fold(records)`` applies its per-event rule to a log in one loop;
:meth:`LifecycleProbe.flush` hands every log to its consumers and
empties it.  The probe flushes at every
:meth:`~repro.system.cmp.CMPSystem.run` exit, before every
:meth:`~LifecycleProbe.attach`, and whenever a log reaches
:data:`LOG_LIMIT` records.  Everything that reads a view — window
samples, ``rebase``, checkpoints, the live plane, QoS controller
epochs, the documents — runs between ``run()`` calls, so it always
sees every event folded.  A value that changes after the hook (a bank
state, an arbiter's queue depth) is captured into the record; a
request is recorded by reference, for its fields the folds read
(``req_id``, ``seq``, ``line``, ``issued_cycle``, ``thread_id``) never
change after it reaches its bank.

The probe also keeps the run's per-thread load counters (loads retired
and their latency sums), which the QoS control plane diffs at epoch
boundaries; they, like the trace views, are updated at hook time.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.cache.bank import SMState
from repro.common.records import AccessType
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

#: Records a log holds before the probe folds it into its views.  Any
#: bound gives the same documents (every fold is exact at any record
#: boundary).  A small one keeps a log's memory constant however long a
#: ``run()`` call is, and folds records while they are young: logs of
#: thousands of tuples outlive the garbage collector's first generation,
#: and at 4096 a fig10_observed pass spent three times as long
#: collecting.
LOG_LIMIT = 512

# Record kinds: the first field of every logged record.  The layouts,
# by log and consumer:
#
# arbiter log (MetricsCollector, InterferenceAttributor, QoSMonitor):
#   (ENQUEUED, track, tid, cycle, pending, 0, None)
#   (GRANTED, track, tid, cycle, pending, duration, busy_track)
#   ``pending`` is the thread's queue depth in ``track`` after the
#   event; ``busy_track`` is the resource the grant holds busy (None:
#   the L3 port keeps no busy series).
# counter log (MetricsCollector):
#   (ACCEPTED,)                         a request reached its bank
#   (LOAD, tid, cycle, latency)         a load retired
#   (STORE, cycle)                      a store was acknowledged
#   (MSHRS, track, cycle, outstanding)  an MSHR file's occupancy
#   (BUSY, track, start, duration)      a DRAM data burst
#   (VICTIMIZED, condition, tid, cycle) a capacity-manager eviction
# stage log (CycleAccounting):
#   (PROGRESS, tid, cycle, reason, 0)   a core tick dispatched work
#   (STALL, tid, cycle, reason, 0)      a core tick dispatched nothing
#   (MOVE, tid, cycle, old, new)        a read changed stage
#   (ALLOCATED, tid, cycle, 0, 0)       a read entered l1_transit
#   (COMPLETED, tid, cycle, 0, 0)       a read's fill came back
# journey log (RequestTracer):
#   (OPENED, request, 0, cycle)         a demand load reached its bank
#   (SHIFTED, req_id, stage, cycle)     its journey entered ``stage``
#   (DONE, request, 0, cycle)           its critical word came back
(ENQUEUED, GRANTED, ACCEPTED, LOAD, STORE, MSHRS, BUSY, VICTIMIZED,
 PROGRESS, STALL, MOVE, ALLOCATED, COMPLETED,
 OPENED, SHIFTED, DONE) = range(16)

_ACCEPTED = (ACCEPTED,)
_READ = AccessType.READ

#: The view attributes a probe feeds.
VIEWS = ("acct", "tracer", "metrics", "attributor", "monitor",
         "sink", "histograms", "log")

#: The record logs, each with the view attributes that fold it.
LOGS = {
    "_arbiter_log": ("metrics", "attributor", "monitor"),
    "_counter_log": ("metrics",),
    "_stage_log": ("acct",),
    "_journey_log": ("tracer",),
}


class LifecycleProbe:
    """Classifies component events into records for the views.

    One instance per :class:`~repro.system.cmp.CMPSystem`, created by
    the first view attached to it; the view attributes (``acct``,
    ``tracer``, ``metrics``, ``attributor``, ``monitor``, ``sink``,
    ``histograms``, ``log``) are ``None`` when off, and :meth:`attach`
    sets them.  The system wires the probe only onto components whose
    events an attached view consumes.  Pickled with the system object
    graph, so checkpoints carry it and every view on it; a checkpoint
    is written between ``run()`` calls, when every log is empty.

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
        # (thread, line) -> req_id of a traced read below the L2: DRAM
        # channels carry no request.  MSHR coalescing plus the bank's
        # active-line exclusion allow at most one read per key there.
        self._below: Dict[Tuple[int, int], int] = {}
        # The run's load counters: per thread, loads retired and their
        # issue-to-critical-word latency sums since the probe existed.
        self.loads = [0] * n_threads
        self.load_latency = [0] * n_threads
        for name in LOGS:
            setattr(self, name, [])
        self._wire()

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # A probe pickled before the record log existed has no logs.
        for name in LOGS:
            if name not in state:
                setattr(self, name, [])
        self._wire()

    def _wire(self) -> None:
        """Derive which record families the attached views consume."""
        self.staged = self.acct is not None or self.tracer is not None
        self.counting = (self.metrics is not None
                         or self.attributor is not None
                         or self.monitor is not None)
        # Arbiter events matter to the counting views and the trace.
        self.arbitrated = self.counting or self.sink is not None

    def attach(self, **views) -> None:
        """Set view attributes (``acct=...``, ``sink=...``).  Records
        logged so far fold into the views attached so far: a view sees
        only events after its attach."""
        for name in views:
            if name not in VIEWS:
                raise ValueError(f"unknown probe view {name!r}")
        self.flush()
        for name, view in views.items():
            setattr(self, name, view)
        self._wire()

    def flush(self) -> None:
        """Fold every log into the views that consume it, emptying it."""
        for name in LOGS:
            if getattr(self, name):
                self._fold(name)

    def _fold(self, name: str) -> None:
        """Fold log ``name`` into its consumers and empty it.  Each view
        folds its logs independently, so one log may fold alone."""
        records = getattr(self, name)
        for consumer in LOGS[name]:
            view = getattr(self, consumer)
            if view is not None:
                view.fold(records)
        records.clear()

    # ----------------- core side (wired with CPI stacks) -------------- #

    def progress(self, tid: int, now: int, reason: int) -> None:
        """A core tick at ``now`` dispatched work."""
        log = self._stage_log
        log.append((PROGRESS, tid, now, reason, 0))
        if len(log) >= LOG_LIMIT:
            self._fold("_stage_log")

    def stall(self, tid: int, now: int, reason: int) -> None:
        """A core tick at ``now`` dispatched nothing."""
        log = self._stage_log
        log.append((STALL, tid, now, reason, 0))
        if len(log) >= LOG_LIMIT:
            self._fold("_stage_log")

    def _occupancy(self, track: str, outstanding: int, now: int) -> None:
        # Counter events carry numeric series only (Perfetto renders each
        # args key as one counter series; strings would corrupt the
        # track).
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_COUNTER, category=CAT_MSHR, name=track,
            track=track, args={"outstanding": outstanding},
        ))

    def _mshr(self, kind: int, tid: int, track: str, outstanding: int,
              now: int) -> None:
        if self.sink is not None:
            self._occupancy(track, outstanding, now)
        if self.acct is not None:
            log = self._stage_log
            log.append((kind, tid, now, 0, 0))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.metrics is not None:
            log = self._counter_log
            log.append((MSHRS, track, now, outstanding))
            if len(log) >= LOG_LIMIT:
                self._fold("_counter_log")

    def mshr_allocated(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """A primary L2 read left the core: it enters l1_transit, and
        ``track``'s MSHR file now holds ``outstanding`` entries."""
        self._mshr(ALLOCATED, tid, track, outstanding, now)

    def mshr_completed(self, tid: int, track: str, outstanding: int,
                       now: int) -> None:
        """The fill came back; the read leaves the lifecycle."""
        self._mshr(COMPLETED, tid, track, outstanding, now)

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
            log = self._counter_log
            log.append(_ACCEPTED)
            if len(log) >= LOG_LIMIT:
                self._fold("_counter_log")
        if not self.staged or request.access is not _READ:
            return
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, request.thread_id, now, S_XFER, S_BANKQ))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.tracer is not None and not request.is_prefetch:
            log = self._journey_log
            log.append((OPENED, request, 0, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_journey_log")

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
            arbiter = resource.arbiter
            tid = request.thread_id
            pending = arbiter.pending_for(tid)
            if self.sink is not None:
                self._enqueue_instant(arbiter, tid, now, pending)
            if self.counting:
                log = self._arbiter_log
                log.append((ENQUEUED, arbiter.trace_name, tid, now, pending,
                            0, None))
                if len(log) >= LOG_LIMIT:
                    self._fold("_arbiter_log")
        if not self.staged or request.access is not _READ:
            return
        step = _QUEUED[resource.name].get(sm.state)
        if step is None:
            return
        old, new = step
        if old is None:
            old = S_L2SVC if sm.hit else self._memory_stage
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, request.thread_id, now, old, new))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.tracer is not None and not request.is_prefetch:
            log = self._journey_log
            log.append((SHIFTED, request.req_id, new, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_journey_log")

    def granted(self, resource, sm, duration: int, now: int) -> None:
        """A queued state machine won arbitration and holds ``resource``
        for ``duration`` cycles: L2 service begins.  The trace shows the
        arbiter's grant, then the resource's occupancy slice."""
        request = sm.request
        if self.arbitrated:
            arbiter = resource.arbiter
            tid = request.thread_id
            pending = arbiter.pending_for(tid)
            if self.sink is not None:
                self._grant_instant(arbiter, tid, now, duration, pending)
            if self.counting:
                log = self._arbiter_log
                log.append((GRANTED, arbiter.trace_name, tid, now, pending,
                            duration, resource.track))
                if len(log) >= LOG_LIMIT:
                    self._fold("_arbiter_log")
        if self.sink is not None:
            self.sink.emit(TraceEvent(
                ts=now, phase=PH_COMPLETE, category=CAT_RESOURCE,
                name=_SLICES[sm.state], track=resource.track,
                tid=request.thread_id, dur=duration,
                args={"req": request.req_id},
            ))
        if not self.staged or request.access is not _READ:
            return
        step = _QUEUED[resource.name].get(sm.state)
        if step is None:
            return
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, request.thread_id, now, step[1], S_L2SVC))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.tracer is not None and not request.is_prefetch:
            log = self._journey_log
            log.append((SHIFTED, request.req_id, S_L2SVC, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_journey_log")

    def arbiter_enqueued(self, arbiter, tid: int, now: int) -> None:
        """``tid`` entered the L3 port ``arbiter``'s queue; a bank
        resource's enqueue arrives through :meth:`queued` and logs the
        same record.  A VPC arbiter's trace instant carries the thread's
        virtual start time, ``R.S[tid]`` after Eq. 6."""
        pending = arbiter.pending_for(tid)
        if self.sink is not None:
            self._enqueue_instant(arbiter, tid, now, pending)
        if self.counting:
            log = self._arbiter_log
            log.append((ENQUEUED, arbiter.trace_name, tid, now, pending, 0,
                        None))
            if len(log) >= LOG_LIMIT:
                self._fold("_arbiter_log")

    def _enqueue_instant(self, arbiter, tid: int, now: int,
                         pending: int) -> None:
        args = {"pending": pending}
        if isinstance(arbiter, VPCArbiter):
            args["vstart"] = arbiter._r_s[tid]
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
            name="enqueue", track=arbiter.trace_name, tid=tid, args=args,
        ))

    def arbiter_granted(self, arbiter, tid: int, now: int, duration: int,
                        busy_track: Optional[str] = None) -> None:
        """The L3 port ``arbiter`` granted ``tid`` ``duration`` service
        cycles; the grant holds resource ``busy_track`` (if any) busy
        meanwhile.  A bank resource's grant arrives through
        :meth:`granted` and logs the same record.  A VPC arbiter's trace
        instant carries the granted entry's virtual finish time:
        ``R.S[tid]`` after Eq. 5, or infinity for a zero-share thread,
        whose grant leaves ``R.S`` alone."""
        pending = arbiter.pending_for(tid)
        if self.sink is not None:
            self._grant_instant(arbiter, tid, now, duration, pending)
        if self.counting:
            log = self._arbiter_log
            log.append((GRANTED, arbiter.trace_name, tid, now, pending,
                        duration, busy_track))
            if len(log) >= LOG_LIMIT:
                self._fold("_arbiter_log")

    def _grant_instant(self, arbiter, tid: int, now: int, duration: int,
                       pending: int) -> None:
        args = {"pending": pending}
        if isinstance(arbiter, VPCArbiter):
            args["vfinish"] = (math.inf if arbiter._r_l[tid] == math.inf
                               else arbiter._r_s[tid])
        self.sink.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
            name="grant", track=arbiter.trace_name, tid=tid, dur=duration,
            args=args,
        ))

    def mem_queued(self, request, now: int) -> None:
        """A read miss left the L2 for the below-L2 hierarchy."""
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, request.thread_id, now, S_L2SVC, S_DRAMQ))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.tracer is not None and not request.is_prefetch:
            log = self._journey_log
            log.append((SHIFTED, request.req_id, S_DRAMQ, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_journey_log")
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
            log = self._counter_log
            log.append((BUSY, track, start, duration))
            if len(log) >= LOG_LIMIT:
                self._fold("_counter_log")
        if not tracked or not self.staged:
            return
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, tid, now, S_DRAMQ, S_DRAMSVC))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.tracer is not None:
            req_id = self._below.pop((tid, line), None)
            if req_id is not None:
                log = self._journey_log
                log.append((SHIFTED, req_id, S_DRAMSVC, now))
                if len(log) >= LOG_LIMIT:
                    self._fold("_journey_log")

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
            log = self._counter_log
            log.append((VICTIMIZED, condition, tid, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_counter_log")

    def responded(self, request, now: int) -> None:
        """A request retired toward its core: a load's critical word
        left the bank, or a store was acknowledged by its gather
        buffer.  Its trace span closes first, carrying the request."""
        if self.sink is not None:
            self._span(PH_END, request, now, {"request": request})
        if request.access is not _READ:
            if self.metrics is not None:
                log = self._counter_log
                log.append((STORE, now))
                if len(log) >= LOG_LIMIT:
                    self._fold("_counter_log")
            return
        tid = request.thread_id
        issued = request.issued_cycle
        critical = request.critical_word_cycle
        latency = critical - issued if 0 <= issued <= critical else 0
        self.loads[tid] += 1
        self.load_latency[tid] += latency
        if self.metrics is not None:
            log = self._counter_log
            log.append((LOAD, tid, now, latency))
            if len(log) >= LOG_LIMIT:
                self._fold("_counter_log")
        if self.acct is not None:
            log = self._stage_log
            log.append((MOVE, tid, now, S_L2SVC, S_XFER))
            if len(log) >= LOG_LIMIT:
                self._fold("_stage_log")
        if self.log is not None:
            self.log.record(request)
        if request.is_prefetch:
            return
        if self.tracer is not None:
            self._below.pop((tid, request.line), None)
            log = self._journey_log
            log.append((DONE, request, 0, now))
            if len(log) >= LOG_LIMIT:
                self._fold("_journey_log")
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
