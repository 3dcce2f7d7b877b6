"""Request records shared by every layer of the simulator.

A :class:`MemoryRequest` is created by a core (or directly by a test) and
travels: core -> crossbar -> L2 bank (store gathering, controller state
machine, tag array, data array, data bus) -> possibly the memory
controller -> back to the core.  The record carries lifecycle timestamps
so experiments can audit per-stage latency (used by the Figure-4 timing
reproduction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum


class AccessType(IntEnum):
    """Kind of L2 access.  Values are stable (used as array indices)."""

    READ = 0
    WRITE = 1


# Bound once: on CPython 3.11 ``AccessType.WRITE`` inside a function
# costs several module-global reads, and these are read per request.
_READ = AccessType.READ
_WRITE = AccessType.WRITE

_request_ids = itertools.count()


@dataclass(slots=True)
class MemoryRequest:
    """A single L2 cache request.

    ``addr`` is a byte address; ``line`` is the cache-line address
    (``addr // line_size``) and is what every structure beyond the core
    keys on.  ``seq`` is the issuing core's instruction sequence number,
    used to unblock the core's window when a load completes.

    Slotted: one is created per memory operation, so construction cost
    is engine-hot.  ``req_id`` must keep resolving ``_request_ids``
    through the module global at call time — the checkpoint restore path
    rebinds it (repro.resilience.snapshot).
    """

    thread_id: int
    addr: int
    access: AccessType
    line: int
    seq: int = -1
    issued_cycle: int = -1
    # Lifecycle timestamps (processor cycles), filled in as the request
    # moves through the bank.  -1 means "has not reached that stage".
    arrived_bank_cycle: int = -1
    entered_arbitration_cycle: int = -1
    tag_done_cycle: int = -1
    data_done_cycle: int = -1
    critical_word_cycle: int = -1
    completed_cycle: int = -1
    # True when this request was produced by merging one or more stores in
    # the store gathering buffer (instrumentation for Figure 7).
    gathered_stores: int = 0
    # True for requests the L2 generated itself (line fills, writebacks).
    is_internal: bool = False
    # True for hardware-prefetch reads (lower intra-thread priority than
    # demand reads in the VPC arbiters; see repro.cpu.prefetch).
    is_prefetch: bool = False
    req_id: int = field(default_factory=lambda: next(_request_ids))

    @property
    def is_read(self) -> bool:
        return self.access is _READ

    @property
    def is_write(self) -> bool:
        return self.access is _WRITE

    def __repr__(self) -> str:  # compact, for debugging traces
        kind = "R" if self.is_read else "W"
        return f"<{kind} t{self.thread_id} line={self.line:#x} id={self.req_id}>"


def make_request(
    thread_id: int,
    addr: int,
    access: AccessType,
    line_size: int,
    seq: int = -1,
    issued_cycle: int = -1,
) -> MemoryRequest:
    """Build a request, deriving the line address from ``addr``."""
    if addr < 0:
        raise ValueError(f"negative address: {addr}")
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(f"line_size must be a positive power of two: {line_size}")
    return MemoryRequest(thread_id, addr, access, addr // line_size, seq,
                         issued_cycle)
