"""Batched structure-of-arrays kernel: per-component selective
activation with lazy bulk settling.

``run_batch`` is the default simulation kernel and must be
**bit-identical** to the ``run_cycle`` oracle — every counter, IPC,
utilization, trace-visible request timestamp, and metrics window
(``tests/test_kernel_equivalence.py``).  It tracks each component's
next possible state change in flat per-run lists (one wake cycle per
bank, one sleep flag and settle cycle per core) and, inside every
executed cycle, runs only the components that are due:

* **cores** sleep individually the moment they report
  :meth:`~repro.cpu.core_model.CoreModel.quiescent`, and are settled in
  bulk with ``fast_forward`` when a crossbar response (the only thing
  that can wake a core) arrives for them — the wake is driven by the
  response delay-line head, so a core blocked on a DRAM round trip
  costs nothing until its data comes back;
* **banks** tick only at or after their ``next_event`` bound, and the
  tick itself is *lean*: each stage (event pop, store admission,
  controller admission, memory retry, per-resource grant) runs behind
  the exact no-op guard ``next_event`` documents for it, so a bank
  whose tag meter is busy for 4 cycles pays zero for the three
  guaranteed-``None`` grants the full tick would attempt;
* **whole cycles** are jumped when every core sleeps, to the minimum
  over the wake list, the crossbar lane heads, and memory/L3's next
  event.

The hot loop trades indirection for flat state: every stable component
reference (event heaps, queues, gather buffers, arbiter/meter pairs —
all init-assigned and only ever mutated in place) is captured once per
``run()`` into a per-bank context tuple, the lean tick computes the
bank's next wake in the same pass over the same locals instead of
re-walking the object graph through ``next_event``, and the crossbar
delay lines are drained with direct deque pops rather than generator
calls.

Exactness argument (docs/ARCHITECTURE.md, "Batched kernel"): ticking a
component *early* is always safe — an un-due tick is exactly the no-op
the cycle kernel would have executed — so wake entries only need to be
true lower bounds, and every rule below only ever *lowers* them.  The
dangerous direction, missing a state-changing tick, is excluded by the
``next_event`` contract documented at each component, plus two
cross-component edges handled explicitly: an L3/memory tick can push a
completion into a bank's event heap or free transaction-buffer
capacity a bank's ``_mem_wait`` head is blocked on, so after any
effective L3/memory tick the waiting banks' wake entries are
re-lowered from the post-tick state.

The wake state is **ephemeral**: rebuilt from the object graph at
every ``run()`` entry and fully settled back at exit (all sleeping
cores fast-forwarded to the end cycle).  At ``run()`` boundaries the
system object graph is therefore bit-identical to what the cycle
kernel leaves — which is what makes metrics windows, chunked runs, and
REPRO-CKPT checkpoint/resume work unchanged (the checkpoint pickles
the object graph between ``run()`` calls and never sees kernel state).
"""

from __future__ import annotations

from heapq import heappop

from repro.common.latch import NEVER
from repro.telemetry.events import CAT_KERNEL, PH_INSTANT, TraceEvent


def _resource_context(resource):
    """One shared resource flattened for the hot loop: the queue
    emptiness probe avoids a ``len()``/``__len__`` round trip per guard.

    ``mode`` 0 reads captured deques directly (FCFS: its single queue;
    RoW-FCFS: reads and writes); mode 1 reads the VPC arbiter's
    incremental ``_size``; mode 2 falls back to ``len()`` for unknown
    arbiter types.  All captured containers are init-assigned and only
    mutated in place.
    """
    arbiter = resource.arbiter
    meter = resource.meter
    queue = getattr(arbiter, "_queue", None)
    if queue is not None:
        return (resource, arbiter, meter, 0, queue, ())
    reads = getattr(arbiter, "_reads", None)
    if reads is not None:
        return (resource, arbiter, meter, 0, reads, arbiter._writes)
    if getattr(arbiter, "_size", None) is not None:
        return (resource, arbiter, meter, 1, (), ())
    return (resource, arbiter, meter, 2, (), ())


def _bank_context(bank, memory):
    """Flatten one bank's stable hot-path references (see module
    docstring) into the tuple ``_tick_bank`` unpacks."""
    return (
        bank._events._heap,
        bank._handle_event,
        bank.sgbs,
        bank._pending_stores,
        bank._load_q,
        bank._sm_count,
        bank.config.state_machines_per_thread,
        bank._mem_wait,
        bank._wbmem_wait,
        tuple(_resource_context(res) for res in bank.resources),
        bank._admit_stores,
        bank._admit_to_controller,
        bank._retry_memory,
        bank._apply_grant,
        range(bank.n_threads),
        memory.can_accept_read,
        memory.can_accept_write,
    )


def _tick_bank(ctx, now: int) -> int:
    """One bank tick in :meth:`~repro.cache.bank.CacheBank.tick`'s exact
    stage order, with each stage behind the no-op guard documented in
    ``CacheBank.next_event`` — then the bank's next wake cycle, computed
    in the same pass (``next_event(now + 1)`` inlined over the locals
    the tick already holds).

    Every guard matches the condition under which the full stage call
    provably mutates nothing: event pops are bounded by the heap head;
    ``_admit_stores`` breaks on a non-merging head with a full SGB;
    ``_admit_to_controller``'s no-op scan rotates the round-robin
    pointer by a full lap (net zero); ``_retry_memory`` breaks on an
    unacceptable head; ``_Resource.grant`` returns ``None`` — without
    consulting the arbiter — while the meter is busy or the queue is
    empty.  Guard-passing stages call the *real* bank methods, so the
    state transition logic exists in exactly one place.
    """
    (heap, handle_event, sgbs, pending_stores, load_q, sm_count, sm_limit,
     mem_wait, wbmem_wait, res_ctx, admit_stores, admit_to_controller,
     retry_memory, apply_grant, tids, can_read, can_write) = ctx
    while heap and heap[0][0] <= now:
        event = heappop(heap)[2]
        handle_event(event[0], event[1], now)
    for tid in tids:
        pending = pending_stores[tid]
        if pending:
            sgb = sgbs[tid]
            if len(sgb._entries) < sgb.capacity or pending[0].line in sgb._by_line:
                admit_stores(now)
                break
    for tid in tids:
        if sm_count[tid] < sm_limit:
            sgb = sgbs[tid]
            if (
                load_q[tid]
                or len(sgb._entries) >= sgb.high_water
                or sgb._flush_count
            ):
                admit_to_controller(now)
                break
    if (mem_wait and can_read(mem_wait[0].request.thread_id)) or (
        wbmem_wait and can_write(wbmem_wait[0].request.thread_id)
    ):
        retry_memory(now)

    # Grants, merged with each resource's wake contribution.  Grants on
    # one resource never touch another resource's arbiter or meter (they
    # only push future events into the bank heap), so the per-resource
    # post-grant state read here is final for this cycle.
    nxt = now + 1
    res_wake = NEVER
    for resource, arbiter, meter, mode, q_a, q_b in res_ctx:
        if mode == 0:
            waiting = q_a or q_b
        elif mode == 1:
            waiting = arbiter._size
        else:
            waiting = len(arbiter)
        if not waiting:
            continue
        if meter._busy_until <= now:
            # Proven free and non-empty: select directly, skipping
            # _Resource.grant's re-checks.
            entry = arbiter.select(now)
            if entry is not None:
                meter.mark_busy(
                    now, resource.base_latency * entry.service_quanta
                )
                apply_grant(resource, entry, now)
            if mode == 0:
                waiting = q_a or q_b
            elif mode == 1:
                waiting = arbiter._size
            else:
                waiting = len(arbiter)
            if not waiting:
                continue
        busy = meter._busy_until
        if busy < res_wake:
            res_wake = busy if busy > nxt else nxt

    # Next wake: CacheBank.next_event(now + 1) over the post-tick state.
    if mem_wait and can_read(mem_wait[0].request.thread_id):
        return nxt
    if wbmem_wait and can_write(wbmem_wait[0].request.thread_id):
        return nxt
    for tid in tids:
        sgb = sgbs[tid]
        entries = sgb._entries
        pending = pending_stores[tid]
        if pending and (
            len(entries) < sgb.capacity or pending[0].line in sgb._by_line
        ):
            return nxt
        if sm_count[tid] < sm_limit and (
            load_q[tid]
            or len(entries) >= sgb.high_water
            or sgb._flush_count
        ):
            return nxt
    wake = res_wake
    if heap:
        head = heap[0][0]
        if head < wake:
            wake = head if head > nxt else nxt
    return wake


def run_batch(system, cycles: int) -> None:
    """Advance ``system`` by ``cycles`` using selective activation."""
    if cycles <= 0:
        return
    start = system.cycle
    end = start + cycles
    n_threads = system.config.n_threads
    cores = system.cores
    n_cores = len(cores)
    core_of_thread = system._core_of_thread
    core_index = {id(core): index for index, core in enumerate(cores)}
    core_idx_of_thread = [
        core_index[id(core_of_thread[tid])] for tid in range(n_threads)
    ]
    crossbar = system.crossbar
    # Lane deques are drained directly (FIFO, so the head bounds the
    # lane) rather than through Crossbar's generator methods.
    resp_lanes = [crossbar._responses[tid]._items for tid in range(n_threads)]
    req_lanes = [crossbar._requests[tid]._items for tid in range(n_threads)]
    l2 = system.l2
    l2_accept = l2.accept
    bank_of = l2.bank_of
    banks = system.banks
    n_banks = len(banks)
    l3 = system.l3
    memory = system.memory
    # Private channels expose their read/write deques (probed without a
    # property call); the shared fair-queued channel falls back to its
    # `pending` property.
    deque_channels = []
    prop_channels = []
    for channel in memory.channels:
        reads = getattr(channel, "_reads", None)
        if reads is not None:
            deque_channels.append((channel.tick, reads, channel._writes))
        else:
            prop_channels.append(channel)
    can_read = memory.can_accept_read
    can_write = memory.can_accept_write
    trace = system.telemetry
    # The only mid-cycle reader of system.cycle is the replacement
    # policies' clock, which stamps victimizations for the bus and for
    # the probe's metrics view — keep the attribute synchronized
    # exactly when one of them can observe it.
    probe = system._probe
    sync_clock = trace is not None or (
        probe is not None and probe.metrics is not None)

    # Scheduling state — ephemeral, rebuilt every run() (see module
    # docstring).  Sleep flags seed from the (sticky) quiescence memo;
    # settled[ci] is the first cycle core ci has not yet accounted.
    sleeping = [core.quiescent() for core in cores]
    settled = [start] * n_cores
    awake = n_cores - sum(sleeping)
    bank_ctx = [_bank_context(bank, memory) for bank in banks]
    bank_wake = [bank.next_event(start) for bank in banks]

    tid_range = range(n_threads)
    core_range = range(n_cores)
    bank_range = range(n_banks)
    attempts = 0
    taken = 0

    now = start
    while now < end:
        if sync_clock:
            system.cycle = now

        # 1. Response delivery (step() order: per thread id).  A
        # response is the only event that can wake a sleeping core; the
        # core settles its skipped cycles *before* on_response runs,
        # because fast_forward's probing predicate reads load state
        # that on_response mutates.
        for tid in tid_range:
            items = resp_lanes[tid]
            if items and items[0][0] <= now:
                ci = core_idx_of_thread[tid]
                core = cores[ci]
                if sleeping[ci]:
                    delta = now - settled[ci]
                    if delta:
                        core.fast_forward(delta, now)
                    settled[ci] = now
                    sleeping[ci] = False
                    awake += 1
                on_response = core.on_response
                while items and items[0][0] <= now:
                    on_response(items.popleft()[1], now)

        # 2. Core ticks.  The post-tick quiescence check equals the
        # top-of-next-cycle check: nothing can touch core state between
        # here and the next response delivery.
        for ci in core_range:
            if not sleeping[ci]:
                core = cores[ci]
                core.tick(now)
                settled[ci] = now + 1
                if core.quiescent():
                    sleeping[ci] = True
                    awake -= 1

        # 3. Request delivery: wake the target bank this cycle.
        for tid in tid_range:
            items = req_lanes[tid]
            if items and items[0][0] <= now:
                while items and items[0][0] <= now:
                    request = items.popleft()[1]
                    l2_accept(request, now)
                    index = bank_of(request.line)
                    if bank_wake[index] > now:
                        bank_wake[index] = now

        # 4. Banks due this cycle (lean tick + merged wake recompute).
        for index in bank_range:
            if bank_wake[index] <= now:
                bank_wake[index] = _tick_bank(bank_ctx[index], now)

        # 5. L3 and memory — the L3 ticks only when its next_event is
        # due, and each memory channel only while it has work pending.
        l3_did = False
        if l3 is not None and l3.next_event(now) <= now:
            l3.tick(now)
            l3_did = True
        mem_did = False
        for channel_tick, reads, writes in deque_channels:
            if reads or writes:
                channel_tick(now)
                mem_did = True
        for channel in prop_channels:
            if channel.pending:
                channel.tick(now)
                mem_did = True

        # 6. Cross-component wake edges: an L3 hit/fill notification
        # lands in a bank's event heap *at* `now` (banks already ticked
        # this cycle — handle it next cycle), a DRAM completion lands
        # at a future cycle possibly earlier than the bank's recorded
        # wake, and a memory issue frees transaction-buffer capacity
        # that a bank's _mem_wait head is blocked on.
        if mem_did or l3_did:
            nxt = now + 1
            for index in bank_range:
                wake = bank_wake[index]
                if wake <= nxt:
                    continue
                ctx = bank_ctx[index]
                mem_wait = ctx[7]
                wbmem_wait = ctx[8]
                if (
                    mem_wait and can_read(mem_wait[0].request.thread_id)
                ) or (
                    wbmem_wait and can_write(wbmem_wait[0].request.thread_id)
                ):
                    bank_wake[index] = nxt
                    continue
                heap = ctx[0]
                if heap:
                    head = heap[0][0]
                    if head < wake:
                        bank_wake[index] = head if head > now else nxt

        # 7. Advance — jump over whole cycles while every core sleeps
        # (global quiescence), reusing the wake list instead of
        # rescanning every bank.
        if awake:
            now += 1
            continue
        attempts += 1
        target = min(bank_wake) if bank_wake else NEVER
        if target > end:
            target = end
        if target > now + 1:
            for tid in tid_range:
                items = resp_lanes[tid]
                if items and items[0][0] < target:
                    target = items[0][0]
                items = req_lanes[tid]
                if items and items[0][0] < target:
                    target = items[0][0]
            if target > now + 1:
                nxt = memory.next_event(now + 1)
                if nxt < target:
                    target = nxt
                if l3 is not None and target > now + 1:
                    nxt = l3.next_event(now + 1)
                    if nxt < target:
                        target = nxt
        if target <= now + 1:
            now += 1
            continue
        delta = target - (now + 1)
        system.skipped_cycles += delta
        taken += 1
        if trace is not None:
            trace.emit(TraceEvent(
                ts=now + 1, phase=PH_INSTANT, category=CAT_KERNEL,
                name="skip", track="kernel", dur=delta,
                args={"to": target,
                      "skipped_total": system.skipped_cycles},
            ))
        now = target

    # Settle: every sleeping core owes per-cycle accounting up to the
    # end of the interval, so the object graph leaves this run in the
    # exact state the cycle kernel would have produced.
    for ci in core_range:
        delta = end - settled[ci]
        if sleeping[ci] and delta:
            cores[ci].fast_forward(delta, end)
    system.skip_attempts += attempts
    system.skips_taken += taken
    system.cycle = end
