"""Core <-> L2 crossbar (paper Section 3.1, Figure 2a).

Each processor has private read/write ports into every cache bank, so
the request path is contention-free — the crossbar contributes latency
only (Table 1: 2 cycles at half core frequency, each direction).  The
*return* path contention lives on each bank's data bus, which is
modelled inside the bank; by the time a response enters the crossbar it
has already won bus arbitration.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.common.config import CrossbarConfig
from repro.common.latch import DelayLine
from repro.common.records import MemoryRequest


class Crossbar:
    """Pure-latency interconnect with per-core request/response lanes."""

    def __init__(self, n_cores: int, config: CrossbarConfig) -> None:
        if n_cores < 1:
            raise ValueError("crossbar needs at least one core")
        self.config = config
        self._requests: List[DelayLine] = [
            DelayLine(config.latency) for _ in range(n_cores)
        ]
        self._responses: List[DelayLine] = [
            DelayLine(config.response_latency) for _ in range(n_cores)
        ]
        # Lifecycle probe (repro.telemetry.probe): None = disabled =
        # free; wired only for a trace sink, the one view of transport.
        self._probe = None

    def send_request(self, core_id: int, request: MemoryRequest, now: int) -> None:
        if self._probe is not None:
            self._probe.crossed("xbar-req", request, self.config.latency,
                                now)
        self._requests[core_id].push(now, request)

    def deliver_requests(self, core_id: int, now: int) -> Iterator[MemoryRequest]:
        return self._requests[core_id].pop_ready(now)

    def send_response(self, core_id: int, request: MemoryRequest, now: int) -> None:
        if self._probe is not None:
            self._probe.crossed("xbar-resp", request,
                                self.config.response_latency, now)
        self._responses[core_id].push(now, request)

    def deliver_responses(self, core_id: int, now: int) -> Iterator[MemoryRequest]:
        return self._responses[core_id].pop_ready(now)

    def busy(self) -> bool:
        return any(len(line) for line in self._requests) or any(
            len(line) for line in self._responses
        )
