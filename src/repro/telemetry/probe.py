"""The lifecycle probe: one hook slot per component, one stage taxonomy.

A demand or prefetch read walks eight stages from the cycle its MSHR
is allocated to the cycle its fill returns.  Two views consume that
walk:

* :class:`~repro.telemetry.cycles.CycleAccounting` keeps a per-thread
  census of outstanding reads per stage (the memory half of a CPI
  stack);
* :class:`~repro.telemetry.requests.RequestTracer` keeps one journey
  per demand load (its segment waterfall).

Every hooked component — core, MSHR file, L2 bank, DRAM channel — holds
one ``_probe`` attribute, ``None`` while no view is attached, so each
hook site costs a single ``is not None`` test when disabled.  The probe
turns each component event into a stage transition once and forwards
it to whichever views are attached; neither view classifies component
events itself.  Hooks fire at component action sites shared verbatim
by the cycle and batch kernels, so both views are kernel-identical by
construction.
"""

from __future__ import annotations

from typing import Dict, Tuple

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


class LifecycleProbe:
    """Classifies component events and fans them out to the views.

    One instance per :class:`~repro.system.cmp.CMPSystem`, created by
    the first ``attach_cycle_accounting``/``attach_request_tracing``
    call; ``acct`` and ``tracer`` hold the attached views (``None``
    when off).  Pickled with the system object graph, so checkpoints
    carry it.

    ``dram_hooked`` is False when an L3 sits in front of memory: the
    DRAM channels are then not hooked, and all below-L2 time stays in
    ``dram_queue``.
    """

    def __init__(self, dram_hooked: bool) -> None:
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
        # (thread, line) -> req_id of a traced read below the L2: DRAM
        # channels carry no request.  MSHR coalescing plus the bank's
        # active-line exclusion allow at most one read per key there.
        self._below: Dict[Tuple[int, int], int] = {}

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

    def mshr_allocated(self, tid: int, now: int) -> None:
        """A primary L2 read left the core: it enters l1_transit."""
        self.acct.mshr_allocated(tid, now)

    def mshr_completed(self, tid: int, now: int) -> None:
        """The fill came back; the read leaves the lifecycle."""
        self.acct.mshr_completed(tid, now)

    # --------------------------- memory side -------------------------- #

    def accepted(self, request, now: int) -> None:
        """A read parked in its bank's input load queue.  A demand
        load's journey opens here, back-dated to its issue cycle."""
        if self.acct is not None:
            self.acct.move(request.thread_id, S_XFER, S_BANKQ, now)
        if self.tracer is not None and not request.is_prefetch:
            self.tracer.open(request, now)

    def queued(self, resource: str, sm, now: int) -> None:
        """A bank state machine entered ``resource``'s arbiter queue."""
        request = sm.request
        if not request.is_read:
            return
        step = self._queued[resource].get(sm.state)
        if step is None:
            return
        old, new = step
        if old is None:
            old = S_L2SVC if sm.hit else self._memory_stage
        self._move(request, old, new, now)

    def granted(self, resource: str, sm, now: int) -> None:
        """A queued state machine won arbitration: L2 service begins."""
        request = sm.request
        if not request.is_read:
            return
        step = self._queued[resource].get(sm.state)
        if step is not None:
            self._move(request, step[1], S_L2SVC, now)

    def mem_queued(self, request, now: int) -> None:
        """A read miss left the L2 for the below-L2 hierarchy."""
        self._move(request, S_L2SVC, S_DRAMQ, now)
        if self.tracer is not None and not request.is_prefetch:
            self._below[(request.thread_id, request.line)] = request.req_id

    def dram_issued(self, tid: int, line: int, now: int) -> None:
        """DRAM device service began for a read of ``tid``'s ``line``."""
        if self.acct is not None:
            self.acct.move(tid, S_DRAMQ, S_DRAMSVC, now)
        if self.tracer is not None:
            req_id = self._below.pop((tid, line), None)
            if req_id is not None:
                self.tracer.shift(req_id, S_DRAMSVC, now)

    def responded(self, request, now: int) -> None:
        """The critical word left the bank toward the core."""
        if self.acct is not None:
            self.acct.move(request.thread_id, S_L2SVC, S_XFER, now)
        if self.tracer is not None and not request.is_prefetch:
            self._below.pop((request.thread_id, request.line), None)
            self.tracer.complete(request, now)
