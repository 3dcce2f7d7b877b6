"""Shared-resource arbiters: the interface plus the paper's baselines.

Every shared L2 resource (tag array, data array, per-bank data bus) has
an arbiter.  The bank pushes waiting work in as :class:`ArbiterEntry`
objects and, whenever the resource is free, asks ``select(now)`` for the
next entry to service.

Baselines from Section 3.1 / 5.1:

* :class:`FCFSArbiter` — first-come first-serve by arrival order.  The
  paper's *multiprocessor* baseline for shared resources.
* :class:`RoWFCFSArbiter` — Read-over-Write, FCFS within each class.
  Optimal for private caches, but in a shared cache a load-heavy thread
  starves other threads' stores (demonstrated by Figure 8).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional

from repro.telemetry.events import CAT_ARBITER, PH_INSTANT, TraceEvent


_entry_order = itertools.count()


@dataclass(slots=True)
class ArbiterEntry:
    """One unit of work waiting for a shared resource.

    ``service_quanta`` is how many base service times the access consumes
    (2 for a write on the data array — the ECC read-merge-write pair,
    Eq. 4's ``2 * R.L_i`` case); the VPC arbiter uses it for virtual-time
    accounting, and the bank uses it to size the busy window.

    Slotted: entries are created on every resource enqueue, squarely on
    the engine hot path.  ``order`` must keep resolving ``_entry_order``
    through the module global at call time — the checkpoint restore path
    rebinds it (repro.resilience.snapshot).
    """

    thread_id: int
    payload: Any
    is_write: bool = False
    is_prefetch: bool = False
    service_quanta: int = 1
    arrival: int = 0
    order: int = field(default_factory=lambda: next(_entry_order))


class Arbiter(ABC):
    """Selects which pending entry accesses the shared resource next.

    Every arbiter — baseline or VPC — emits ``enqueue``/``grant``
    trace events when a bus is attached (``_trace`` is ``None``
    otherwise: the zero-overhead-when-disabled contract).  The
    interference attributor and QoS metrics count the same enqueues and
    grants through the lifecycle probe of the component that owns the
    arbiter (an L2 bank or the L3 port), so the baselines the paper
    indicts are observable with the same instruments as the VPC design
    that fixes them.  ``service_latency`` sizes the real busy window a
    grant implies (``service_quanta`` base latencies).

    The hierarchy is slotted (``abc.ABC`` contributes empty slots):
    enqueue/select attribute reads sit on the engine hot path.
    """

    __slots__ = ("n_threads", "service_latency", "grants", "_trace",
                 "trace_name")

    def __init__(self, n_threads: int, service_latency: int = 1) -> None:
        if n_threads < 1:
            raise ValueError("arbiter needs at least one thread")
        if service_latency <= 0:
            raise ValueError(
                f"service latency must be positive: {service_latency}"
            )
        self.n_threads = n_threads
        self.service_latency = service_latency
        self.grants = 0
        self._trace = None
        self.trace_name = "arbiter"

    @abstractmethod
    def enqueue(self, entry: ArbiterEntry, now: int) -> None:
        """Admit ``entry`` into arbitration at cycle ``now``."""

    @abstractmethod
    def select(self, now: int) -> Optional[ArbiterEntry]:
        """Pop and return the next entry to service, or None if idle."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of entries currently waiting."""

    def _check_thread(self, entry: ArbiterEntry) -> None:
        if not 0 <= entry.thread_id < self.n_threads:
            raise ValueError(
                f"thread {entry.thread_id} out of range [0, {self.n_threads})"
            )

    def _emit_enqueue(self, entry: ArbiterEntry, now: int, pending: int) -> None:
        self._trace.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
            name="enqueue", track=self.trace_name, tid=entry.thread_id,
            args={"pending": pending},
        ))

    def _emit_grant(self, entry: ArbiterEntry, now: int, pending: int) -> None:
        self._trace.emit(TraceEvent(
            ts=now, phase=PH_INSTANT, category=CAT_ARBITER,
            name="grant", track=self.trace_name, tid=entry.thread_id,
            dur=entry.service_quanta * self.service_latency,
            args={"pending": pending},
        ))


class FCFSArbiter(Arbiter):
    """Strict arrival-order service across all threads."""

    __slots__ = ("_queue", "_pending")

    def __init__(self, n_threads: int, service_latency: int = 1) -> None:
        super().__init__(n_threads, service_latency)
        self._queue: Deque[ArbiterEntry] = deque()
        self._pending: List[int] = [0] * n_threads

    def enqueue(self, entry: ArbiterEntry, now: int) -> None:
        self._check_thread(entry)
        entry.arrival = now
        self._queue.append(entry)
        self._pending[entry.thread_id] += 1
        if self._trace is not None:
            self._emit_enqueue(entry, now, self._pending[entry.thread_id])

    def select(self, now: int) -> Optional[ArbiterEntry]:
        if not self._queue:
            return None
        self.grants += 1
        entry = self._queue.popleft()
        self._pending[entry.thread_id] -= 1
        if self._trace is not None:
            self._emit_grant(entry, now, self._pending[entry.thread_id])
        return entry

    def __len__(self) -> int:
        return len(self._queue)

    def pending_for(self, thread_id: int) -> int:
        return self._pending[thread_id]


class RoWFCFSArbiter(Arbiter):
    """Reads strictly before writes; FCFS inside each class.

    This is the private-cache-optimal policy that, on a *shared* resource,
    lets an aggressive load stream starve other threads' stores
    indefinitely (Section 3.1, demonstrated in Section 5.3).
    """

    __slots__ = ("_reads", "_writes", "_pending")

    def __init__(self, n_threads: int, service_latency: int = 1) -> None:
        super().__init__(n_threads, service_latency)
        self._reads: Deque[ArbiterEntry] = deque()
        self._writes: Deque[ArbiterEntry] = deque()
        self._pending: List[int] = [0] * n_threads

    def enqueue(self, entry: ArbiterEntry, now: int) -> None:
        self._check_thread(entry)
        entry.arrival = now
        if entry.is_write:
            self._writes.append(entry)
        else:
            self._reads.append(entry)
        self._pending[entry.thread_id] += 1
        if self._trace is not None:
            self._emit_enqueue(entry, now, self._pending[entry.thread_id])

    def select(self, now: int) -> Optional[ArbiterEntry]:
        if self._reads:
            entry = self._reads.popleft()
        elif self._writes:
            entry = self._writes.popleft()
        else:
            return None
        self.grants += 1
        self._pending[entry.thread_id] -= 1
        if self._trace is not None:
            self._emit_grant(entry, now, self._pending[entry.thread_id])
        return entry

    def __len__(self) -> int:
        return len(self._reads) + len(self._writes)

    def pending_for(self, thread_id: int) -> int:
        return self._pending[thread_id]


def round_robin_order(start: int, n: int):
    """Thread visit order for round-robin scans beginning after ``start``."""
    for offset in range(1, n + 1):
        yield (start + offset) % n
