"""The VPC Arbiter (paper Section 4.1).

A fair-queuing arbiter for one shared cache resource.  Hardware state,
exactly as the paper describes (Figure 3):

* ``R.clk`` — a real-time cycle counter (we use the ``now`` argument);
* ``R.L[i]`` — thread *i*'s virtual service time ``L / phi_i``, where
  ``L`` is the resource latency.  Recomputed only when the share changes;
* ``R.S[i]`` — the virtual time thread *i*'s virtual private resource
  next becomes available.

Per-request equations (Section 4.1.1):

* Eq. 3': ``S_i^k = R.S[i]`` — the optimized start-time, valid because of
  the Eq. 6 maintenance rule;
* Eq. 4:  ``F_i^k = S_i^k + R.L[i]`` (``+ 2 R.L[i]`` for a data-array
  write, generalized here via ``service_quanta``);
* Eq. 5:  on grant, ``R.S[i] <- F_i^k``;
* Eq. 6:  on enqueue into an *empty* thread buffer, if ``R.S[i] <=
  R.clk`` then ``R.S[i] <- R.clk``.

The arbiter grants the thread with the earliest virtual finish time
(EDF).  Because ``R.S[i]`` depends only on how much service the thread
has received — not on *which* request is served — requests inside a
thread's buffer may be reordered freely; we implement the paper's
Read-over-Write intra-thread optimization (Section 4.1.1, last
paragraph), controllable via ``intra_thread_row`` for the ablation study.

Zero-share threads ("VPC 0 %" in Figure 8) have an infinite virtual
service time: they are served only when every finite-share buffer is
empty (the fairness policy's work-conserving excess distribution), FCFS
among themselves.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.core.arbiter import Arbiter, ArbiterEntry


class VPCArbiter(Arbiter):
    """Fair-queuing arbiter for a single shared resource."""

    __slots__ = ("selection", "intra_thread_row", "_shares", "_r_l",
                 "_r_s", "_buffers", "_size", "service_granted")

    def __init__(
        self,
        n_threads: int,
        shares: Sequence[float],
        service_latency: int,
        intra_thread_row: bool = True,
        selection: str = "finish",
    ) -> None:
        super().__init__(n_threads, service_latency)
        if len(shares) != n_threads:
            raise ValueError(
                f"{len(shares)} shares supplied for {n_threads} threads"
            )
        if selection not in ("finish", "start"):
            raise ValueError(
                f"selection must be 'finish' (EDF/WFQ) or 'start' (SFQ), "
                f"got {selection!r}"
            )
        # "finish" = earliest-virtual-finish-first, the paper's policy.
        # "start" = earliest-virtual-start-first (start-time fair
        # queuing), an alternative fairness policy for the comparison the
        # paper defers to future work (Section 4.1.3): SFQ is gentler on
        # threads with large service quanta (writes) when distributing
        # excess bandwidth.
        self.selection = selection
        if sum(shares) > 1.0 + 1e-9:
            raise ValueError(f"shares over-allocate the resource: {list(shares)}")
        if any(s < 0 for s in shares):
            raise ValueError(f"negative share in {list(shares)}")

        self.intra_thread_row = intra_thread_row
        self._shares: List[float] = list(shares)
        # R.L[i] = L / phi_i  (infinite for zero-share threads).
        self._r_l: List[float] = [self._virtual_service(s) for s in shares]
        # R.S[i]: virtual availability time of thread i's virtual resource.
        self._r_s: List[float] = [0.0] * n_threads
        self._buffers: List[Deque[ArbiterEntry]] = [deque() for _ in range(n_threads)]
        self._size = 0  # incremental total; len() sits on the bank hot path
        # Instrumentation: real service cycles granted per thread.
        # (trace_name / service_latency live on the base class.)
        self.service_granted: List[int] = [0] * n_threads

    # ------------------------------------------------------------------ #
    # Control-register interface (software-visible, Section 4 intro).
    # ------------------------------------------------------------------ #

    def _virtual_service(self, share: float) -> float:
        if share == 0.0:
            return math.inf
        return self.service_latency / share

    @property
    def shares(self) -> List[float]:
        return list(self._shares)

    def set_share(self, thread_id: int, share: float) -> None:
        """Change a thread's bandwidth allocation at run time.

        The paper notes R.L only needs recomputation on share changes;
        R.S is left alone so in-progress virtual time stays consistent.
        """
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"share must be in [0, 1], got {share}")
        others = sum(s for t, s in enumerate(self._shares) if t != thread_id)
        if others + share > 1.0 + 1e-9:
            raise ValueError("share change would over-allocate the resource")
        self._shares[thread_id] = share
        self._r_l[thread_id] = self._virtual_service(share)

    def set_shares(self, shares: Sequence[float]) -> None:
        """Vector form of :meth:`set_share`: mirror a whole register
        vector in one step.  Needed for transactional reprogramming
        (``VPCControlRegisters.load_allocation``): applying an
        already-validated vector thread by thread could transiently
        over-allocate mid-update, so the whole vector is validated and
        assigned together.
        """
        if len(shares) != self.n_threads:
            raise ValueError(
                f"{len(shares)} shares supplied for {self.n_threads} threads"
            )
        if any(not 0.0 <= share <= 1.0 for share in shares):
            raise ValueError(f"share out of [0, 1] in {list(shares)}")
        if sum(shares) > 1.0 + 1e-9:
            raise ValueError(f"shares over-allocate the resource: {list(shares)}")
        for thread_id, share in enumerate(shares):
            if share != self._shares[thread_id]:
                self._shares[thread_id] = share
                self._r_l[thread_id] = self._virtual_service(share)

    # ------------------------------------------------------------------ #
    # Arbitration.
    # ------------------------------------------------------------------ #

    def enqueue(self, entry: ArbiterEntry, now: int) -> None:
        self._check_thread(entry)
        entry.arrival = now
        tid = entry.thread_id
        buffer = self._buffers[tid]
        if not buffer and self._r_s[tid] <= now:
            self._r_s[tid] = float(now)  # Eq. 6
        buffer.append(entry)
        self._size += 1

    def select(self, now: int) -> Optional[ArbiterEntry]:
        # Hot path: this runs on every grant of every shared resource.
        # The comparison below is the unrolled lexicographic order of the
        # tuple key (rank, arrival, order) — int/float comparisons are
        # exact here (cycle counts and order stamps stay far below 2**53).
        buffers = self._buffers
        r_s = self._r_s
        r_l = self._r_l
        inf = math.inf
        sfq = self.selection == "start"
        row = self.intra_thread_row
        best_tid = -1
        best_rank = inf
        best_arrival = inf
        best_order = inf
        best_finish = math.inf
        best_entry: Optional[ArbiterEntry] = None
        for tid, buffer in enumerate(buffers):
            if not buffer:
                continue
            # Inlined _pick_within_thread fast path: the head already is
            # the oldest demand read (or intra-thread RoW is off).
            entry = buffer[0]
            if row and (entry.is_write or entry.is_prefetch):
                entry = self._pick_within_thread(buffer)
            finish = r_s[tid] + entry.service_quanta * r_l[tid]
            if sfq:
                # SFQ: order by virtual start; infinite-R.L threads still
                # sort last via the finish value.
                rank = r_s[tid] if finish != inf else inf
            else:
                rank = finish
            if rank < best_rank or (
                rank == best_rank
                and (
                    entry.arrival < best_arrival
                    or (entry.arrival == best_arrival
                        and entry.order < best_order)
                )
            ):
                best_rank = rank
                best_arrival = entry.arrival
                best_order = entry.order
                best_tid = tid
                best_entry = entry
                best_finish = finish
        if best_entry is None:
            return None

        buffer = buffers[best_tid]
        if buffer[0] is best_entry:
            buffer.popleft()
        else:
            buffer.remove(best_entry)
        self._size -= 1
        if best_finish != math.inf:
            self._r_s[best_tid] = best_finish  # Eq. 5
        self.service_granted[best_tid] += (
            best_entry.service_quanta * self.service_latency
        )
        self.grants += 1
        return best_entry

    def _pick_within_thread(self, buffer: Deque[ArbiterEntry]) -> ArbiterEntry:
        """Intra-thread candidate: oldest demand read, else oldest
        prefetch read, else oldest entry (Read-over-Write plus the
        demand-over-prefetch ordering Section 4.1.1 mentions).

        Legal per Section 4.1.1: any request in the thread's buffer may be
        served without changing the thread's bandwidth accounting.
        """
        first = buffer[0]
        if not self.intra_thread_row:
            return first
        if not first.is_write and not first.is_prefetch:
            return first  # head is already the oldest demand read
        prefetch_read = None
        for entry in buffer:
            if entry.is_write:
                continue
            if not entry.is_prefetch:
                return entry
            if prefetch_read is None:
                prefetch_read = entry
        return prefetch_read if prefetch_read is not None else buffer[0]

    def __len__(self) -> int:
        return self._size

    def pending_for(self, thread_id: int) -> int:
        return len(self._buffers[thread_id])

    def virtual_finish_preview(self, thread_id: int) -> float:
        """The virtual finish time the thread's next grant would get.

        Exposed for tests and for the fairness-policy analysis: the paper
        observes this value doubles as an indicator of excess service
        received (Section 4.1.3).
        """
        buffer = self._buffers[thread_id]
        if not buffer:
            return math.inf
        entry = self._pick_within_thread(buffer)
        return self._r_s[thread_id] + entry.service_quanta * self._r_l[thread_id]
