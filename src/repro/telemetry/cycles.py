"""Per-thread CPI-stack cycle accounting with exact conservation.

Attributes **every simulated cycle of every hardware thread to exactly
one bucket** — base compute, idle, store-buffer stall, MSHR-full stall,
then the eight memory stages of :data:`repro.telemetry.probe.STAGES`
(L1/crossbar transit, bank conflict, the three per-VPC-resource L2
arbiter queues, L2 service, DRAM queueing and DRAM service) — so
"thread 2 slowed down 1.8x" becomes "thread 2 spent 41% of its cycles
in the L2 bus queue".  This is the monitoring substrate the paper's
argument needs (VPC exists to bound the queueing components of
slowdown) and the signal base the dynamic QoS controllers consume.

Conservation contract (enforced by ``verify_stack`` and the property
tests): for every thread, the bucket sums equal the measured cycles
**bit-for-bit**, on both kernels (cycle and batch).

Design — lazy spans, not per-cycle sampling
-------------------------------------------
A per-cycle "where is this thread stalled" sample would break the
batch kernel (its cores sleep while banks and DRAM keep running, so
nobody is there to sample).  Instead each thread carries an
always-open span ``[mark, now)`` presumed charged to its current
bucket:

* a **progressing tick** closes the open span, charges one cycle to
  ``base``, and re-opens at ``now + 1`` with a freshly classified stall
  reason;
* a **stalled tick** closes the span only when the core-local stall
  reason changes (store-queue full vs. MSHR-full vs. waiting on loads);
* while the reason is "waiting on loads", **census moves** split the
  span whenever the deepest stage occupied by the thread's outstanding
  lines changes — at the exact cycle the component acts, whether or
  not the core is awake.

Core ticks, MSHR allocate/complete and the stage moves all arrive
through the :class:`~repro.telemetry.probe.LifecycleProbe`, which
classifies component events into stage transitions and logs one record
per event; :meth:`CycleAccounting.fold` applies a run of records in
order, so this module only keeps stall reasons, the census and the
buckets.  Every record is stamped with the same ``(thread, cycle)`` in
both kernels, so the buckets are kernel-identical *by construction* —
``fast_forward`` needs no hook at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.stats import sum_in_order
from repro.telemetry.events import CAT_CPI, PH_COUNTER, TraceEvent
from repro.telemetry.probe import (
    ALLOCATED,
    COMPLETED,
    MOVE,
    N_STAGES,
    PROGRESS,
    S_BUSQ,
    S_DATAQ,
    S_TAGQ,
    S_XFER,
    STAGES,
    STALL,
)

#: Schema tag of a standalone CPI-stack JSON document.
CPI_SCHEMA = "repro.cpi-stack/1"
#: Schema tag of a solo-vs-shared slowdown decomposition table.
DECOMPOSITION_SCHEMA = "repro.cpi-decomposition/1"

# Core-local bucket indices.  The memory-stage buckets follow them in
# probe.STAGES order.  Order is part of the schema (stacks are emitted
# as plain lists): a new bucket can only be a new stage, appended there.
B_BASE = 0          # the cycle dispatched at least one instruction
B_IDLE = 1          # trace drained (thread done)
B_STORE = 2         # store queue full, SGB ack outstanding
B_MSHR = 3          # L1 miss with no MSHR to allocate
_B_STAGE = B_MSHR + 1  # bucket index of stage 0

BUCKETS = ("base", "idle", "store_buffer", "mshr") + STAGES
N_BUCKETS = len(BUCKETS)

# Core-local stall reasons (classified by CoreModel._stall_reason).
R_IDLE = 0    # trace drained / nothing to do
R_LOAD = 1    # blocked on outstanding loads (window, dependence, retry)
R_MSHR = 2    # L1 miss with a full MSHR file
R_STORE = 3   # store queue full
_REASON_BUCKET = {R_IDLE: B_IDLE, R_MSHR: B_MSHR, R_STORE: B_STORE}

# The L2-queueing buckets the VPC arbiters exist to bound — the fig10
# decomposition highlights these rows.
QUEUE_BUCKETS = tuple(STAGES[stage] for stage in (S_TAGQ, S_DATAQ, S_BUSQ))


def _deepest(census: List[int], below: int = N_STAGES) -> int:
    """The deepest stage under ``below`` that the per-stage read
    ``census`` occupies, or l1_transit when none is: where a
    load-stalled thread's cycles go."""
    stage = below - 1
    while stage > S_XFER and not census[stage]:
        stage -= 1
    return stage


class CycleAccounting:
    """Mutable accounting state folded from the lifecycle probe's stage
    log.

    One instance per :class:`~repro.system.cmp.CMPSystem`, attached via
    ``system.attach_cycle_accounting()``.  The probe folds at every
    ``run()`` exit, so the buckets are complete whenever a run is not
    in progress.  Pickled with the system object graph, so
    checkpoint/resume keeps the stacks exact for free.
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads < 1:
            raise ValueError("cycle accounting needs at least one thread")
        self.n_threads = n_threads
        self._buckets = [[0] * N_BUCKETS for _ in range(n_threads)]
        self._census = [[0] * N_STAGES for _ in range(n_threads)]
        self._mark = [0] * n_threads       # open-span start per thread
        self._reason = [R_IDLE] * n_threads
        self._bucket = [B_IDLE] * n_threads  # bucket of the open span
        self._base_cycle = 0
        self._baseline = [[0] * N_BUCKETS for _ in range(n_threads)]

    # ------------------------------------------------------------------ #
    # Span engine, folded from the probe's stage log.
    # ------------------------------------------------------------------ #

    def fold(self, records) -> None:
        """Apply a run of stage-log records, in order.

        Closing a thread's open span charges ``[mark, now)`` to its
        bucket (clamped: a same-cycle record after a progressing tick
        must not re-charge the base cycle).  A stalled thread's bucket
        is its stall reason's, or for a load stall the deepest stage
        any of its reads occupies (``l1_transit`` when none is out).

        * a progressing tick at ``now`` closes the span, charges one
          base cycle, and re-opens the span at ``now + 1`` under the
          post-tick reason;
        * a stalled tick closes the span only when the stall reason
          changed (cycle ``now`` itself goes to the new reason);
        * a stage move, an MSHR allocation (into ``l1_transit``) or a
          completion (out of it) updates the thread's census; while the
          thread is load-stalled and its deepest stage changed, the
          span closes at ``now`` and re-opens in the new stage.

        A census that would go negative raises, naming the thread, the
        stage and the cycle of the offending record.
        """
        buckets = self._buckets
        census = self._census
        marks = self._mark
        reasons = self._reason
        spans = self._bucket
        # Each thread's deepest occupied stage, kept current per record.
        deepest = [_deepest(counts) for counts in census]
        for kind, tid, now, value, new in records:
            # ``value``: a tick's post-tick reason, a move's old stage.
            if kind == PROGRESS:
                row = buckets[tid]
                mark = marks[tid]
                if now > mark:
                    row[spans[tid]] += now - mark
                row[B_BASE] += 1
                marks[tid] = now + 1
                reasons[tid] = value
                spans[tid] = (_B_STAGE + deepest[tid] if value == R_LOAD
                              else _REASON_BUCKET[value])
                continue
            if kind == STALL:
                if value == reasons[tid]:
                    continue
                mark = marks[tid]
                if now > mark:
                    buckets[tid][spans[tid]] += now - mark
                    marks[tid] = now
                reasons[tid] = value
                spans[tid] = (_B_STAGE + deepest[tid] if value == R_LOAD
                              else _REASON_BUCKET[value])
                continue
            counts = census[tid]
            if kind == MOVE:
                counts[value] -= 1
                if counts[value] < 0:
                    raise RuntimeError(
                        f"cycle-accounting census underflow: thread {tid} "
                        f"stage {STAGES[value]} at cycle {now}"
                    )
                counts[new] += 1
                stage = deepest[tid]
                if new > stage:
                    deepest[tid] = new
                elif value == stage and not counts[value]:
                    deepest[tid] = _deepest(counts, value)
            elif kind == ALLOCATED:
                counts[S_XFER] += 1
            elif kind == COMPLETED:
                counts[S_XFER] -= 1
                if counts[S_XFER] < 0:
                    raise RuntimeError(
                        f"cycle-accounting census underflow: thread {tid} "
                        f"completion without allocation at cycle {now}"
                    )
            else:
                raise ValueError(f"not a stage record: {kind!r}")
            if reasons[tid] == R_LOAD:
                bucket = _B_STAGE + deepest[tid]
                if bucket != spans[tid]:
                    mark = marks[tid]
                    if now > mark:
                        buckets[tid][spans[tid]] += now - mark
                        marks[tid] = now
                    spans[tid] = bucket

    # ------------------------------------------------------------------ #
    # Interval snapshots.
    # ------------------------------------------------------------------ #

    def rebase(self, now: int) -> None:
        """Start the measurement interval at ``now`` (end of warmup):
        snapshots report buckets accumulated since this point."""
        for tid in range(self.n_threads):
            baseline = self._baseline[tid]
            buckets = self._buckets[tid]
            for index in range(N_BUCKETS):
                baseline[index] = buckets[index]
            delta = now - self._mark[tid]  # virtually close the open span
            if delta > 0:
                baseline[self._bucket[tid]] += delta
        self._base_cycle = now

    def interval_stacks(self, now: int) -> List[List[int]]:
        """Per-thread bucket cycles over ``[rebase, now)``; each row sums
        to exactly ``now - rebase``."""
        out = []
        for tid in range(self.n_threads):
            virtual = list(self._buckets[tid])
            delta = now - self._mark[tid]
            if delta > 0:
                virtual[self._bucket[tid]] += delta
            baseline = self._baseline[tid]
            out.append([virtual[i] - baseline[i] for i in range(N_BUCKETS)])
        return out

    def snapshot(self, now: int) -> Dict:
        """Schema-tagged CPI-stack document for cycle ``now``."""
        return {
            "schema": CPI_SCHEMA,
            "n_threads": self.n_threads,
            "buckets": list(BUCKETS),
            "measured_cycles": now - self._base_cycle,
            "threads": self.interval_stacks(now),
        }

    def emit_counters(self, bus, now: int) -> None:
        """Per-thread stacked counter tracks for the Perfetto exporter
        (one ``C`` event per thread per metrics window; args are the
        numeric-only series the trace validator requires)."""
        for tid, stack in enumerate(self.interval_stacks(now)):
            bus.emit(TraceEvent(
                ts=now, phase=PH_COUNTER, category=CAT_CPI,
                name="cpi", track=f"cpi.t{tid}", tid=tid,
                args={BUCKETS[i]: stack[i] for i in range(N_BUCKETS)},
            ))


# ---------------------------------------------------------------------- #
# Offline verification + derived tables (pure functions of snapshots).
# ---------------------------------------------------------------------- #

def verify_stack(payload: Dict) -> List[str]:
    """Re-check the conservation invariant on a CPI-stack document;
    returns a list of human-readable errors (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["cpi-stack: not a JSON object"]
    if payload.get("schema") != CPI_SCHEMA:
        errors.append(
            f"cpi-stack: schema {payload.get('schema')!r} != {CPI_SCHEMA!r}"
        )
    buckets = payload.get("buckets")
    if buckets != list(BUCKETS):
        errors.append(f"cpi-stack: bucket taxonomy mismatch: {buckets!r}")
    n_threads = payload.get("n_threads")
    threads = payload.get("threads")
    measured = payload.get("measured_cycles")
    if not isinstance(threads, list) or not isinstance(n_threads, int):
        errors.append("cpi-stack: missing threads/n_threads")
        return errors
    if len(threads) != n_threads:
        errors.append(
            f"cpi-stack: {len(threads)} stacks for {n_threads} threads"
        )
    for tid, stack in enumerate(threads):
        if not isinstance(stack, list) or len(stack) != N_BUCKETS:
            errors.append(f"cpi-stack: thread {tid} stack malformed")
            continue
        if any((not isinstance(v, int)) or v < 0 for v in stack):
            errors.append(f"cpi-stack: thread {tid} has non-count entries")
            continue
        total = sum(stack)
        if total != measured:
            errors.append(
                f"cpi-stack: thread {tid} buckets sum to {total}, "
                f"measured_cycles is {measured} (conservation violated)"
            )
    return errors


def _stack_group(snapshot: Dict) -> Optional[str]:
    """Decomposition column for one point snapshot: solo reference runs
    (single-thread private-equivalent machines) vs. shared runs keyed by
    arbiter policy."""
    if snapshot.get("cpi_stacks") is None:
        return None
    if snapshot.get("n_threads") == 1:
        return "solo"
    arbiter = snapshot.get("arbiter")
    return str(arbiter) if arbiter else None


def decompose_slowdown(per_point) -> Optional[Dict]:
    """Solo-vs-shared slowdown decomposition from per-point metrics
    snapshots (the fig10 table: which buckets each arbiter policy
    inflates over the private-machine baseline).

    Sums bucket cycles and instructions across threads and points per
    group, then reports cycles-per-instruction per bucket — comparable
    between the 1-thread solo runs and the shared mixes.  Returns
    ``None`` unless a solo reference and at least one shared group carry
    stacks.
    """
    cycles: Dict[str, List[int]] = {}
    instructions: Dict[str, int] = {}
    for snapshot in per_point or []:
        group = _stack_group(snapshot)
        if group is None:
            continue
        stacks = snapshot["cpi_stacks"].get("threads") or []
        insns = snapshot.get("instructions") or []
        totals = cycles.setdefault(group, [0] * N_BUCKETS)
        for stack in stacks:
            for index in range(min(N_BUCKETS, len(stack))):
                totals[index] += stack[index]
        instructions[group] = instructions.get(group, 0) + sum(insns)
    shared = [g for g in cycles if g != "solo"]
    if "solo" not in cycles or not shared:
        return None
    groups = ["solo"] + sorted(shared)
    cpi = {
        group: [
            cycles[group][index] / instructions[group]
            if instructions[group] else 0.0
            for index in range(N_BUCKETS)
        ]
        for group in groups
    }
    return {
        "schema": DECOMPOSITION_SCHEMA,
        "buckets": list(BUCKETS),
        "groups": groups,
        "cycles": {group: cycles[group] for group in groups},
        "instructions": {group: instructions[group] for group in groups},
        "cpi": cpi,
    }


def render_decomposition(decomposition: Dict) -> List[str]:
    """Aligned text table for a decomposition document (report cards)."""
    groups = decomposition["groups"]
    cpi = decomposition["cpi"]
    label_width = max(len("bucket"), max(len(b) for b in BUCKETS))
    header = f"  {'bucket':<{label_width}}"
    for group in groups:
        header += f"  {group:>9}"
    if "fcfs" in groups and "vpc" in groups:
        header += f"  {'vpc-fcfs':>9}"
    lines = ["slowdown decomposition (cycles per instruction):", header]
    for index, bucket in enumerate(BUCKETS):
        row = f"  {bucket:<{label_width}}"
        for group in groups:
            row += f"  {cpi[group][index]:>9.4f}"
        if "fcfs" in groups and "vpc" in groups:
            delta = cpi["vpc"][index] - cpi["fcfs"][index]
            row += f"  {delta:>+9.4f}"
        lines.append(row)
    total = f"  {'total':<{label_width}}"
    for group in groups:
        total += f"  {sum_in_order(cpi[group]):>9.4f}"
    if "fcfs" in groups and "vpc" in groups:
        delta = sum_in_order(cpi["vpc"]) - sum_in_order(cpi["fcfs"])
        total += f"  {delta:>+9.4f}"
    lines.append(total)
    return lines
