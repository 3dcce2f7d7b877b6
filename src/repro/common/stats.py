"""Statistics primitives: utilization meters, counters, and summaries.

Every shared resource owns a :class:`UtilizationMeter`; the experiments
read utilizations over the *measurement* interval only, so meters support
snapshot/interval arithmetic (warmup exclusion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


class UtilizationMeter:
    """Tracks how many cycles a resource was busy.

    ``mark_busy(start, duration)`` is called when an access is granted;
    overlapping grants are a modelling bug, so the meter asserts
    monotonically non-overlapping usage.  Slotted: ``mark_busy`` runs on
    every grant of every shared resource.
    """

    __slots__ = ("name", "busy_cycles", "_busy_until")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.busy_cycles = 0
        self._busy_until = 0

    def mark_busy(self, start: int, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"{self.name}: negative duration {duration}")
        if start < self._busy_until:
            raise RuntimeError(
                f"{self.name}: overlapping grant at {start}, busy until "
                f"{self._busy_until}"
            )
        self.busy_cycles += duration
        self._busy_until = start + duration

    @property
    def busy_until(self) -> int:
        return self._busy_until

    def is_free(self, now: int) -> bool:
        return now >= self._busy_until

    def utilization(self, total_cycles: int, since_busy: int = 0) -> float:
        """Fraction of ``total_cycles`` the resource was busy."""
        if total_cycles <= 0:
            return 0.0
        return (self.busy_cycles - since_busy) / total_cycles

    def snapshot(self) -> int:
        """Busy-cycle count for later interval subtraction."""
        return self.busy_cycles


@dataclass
class Counters:
    """A named bag of integer counters with snapshot support."""

    values: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.values)

    def since(self, snap: Dict[str, int]) -> Dict[str, int]:
        keys = set(self.values) | set(snap)
        return {k: self.values.get(k, 0) - snap.get(k, 0) for k in keys}


def sum_in_order(values: Iterable[float]) -> float:
    """``sum(values)`` as CPython computed it before 3.12: left to right,
    each float addition rounded.  3.12 made ``sum()`` compensate float
    rounding, which can move the last digit of a float total.  Every
    float sum whose value reaches a simulated decision (the QoS
    controller's shares), a ``SimulationResult`` field or a figure table
    goes through here, so those numbers read the same on every
    interpreter; integer sums are exact either way and keep ``sum()``."""
    total = 0
    for value in values:
        total += value
    return total


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean; the paper's headline throughput metric.

    Raises on non-positive inputs — a zero normalized IPC would make the
    harmonic mean undefined, and hiding that would hide a starved thread.
    """
    vals: List[float] = list(values)
    if not vals:
        raise ValueError("harmonic mean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError(f"harmonic mean requires positive values: {vals}")
    return len(vals) / sum_in_order(1.0 / v for v in vals)


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every thread gets equal (normalized) throughput, ``1/n``
    when one thread takes everything.  Zero-throughput vectors index to
    0.0 rather than raising — an all-stalled window is maximally unfair
    information, not an error.
    """
    vals: List[float] = list(values)
    if not vals:
        raise ValueError("Jain index of an empty sequence")
    if any(v < 0 for v in vals):
        raise ValueError(f"Jain index requires non-negative values: {vals}")
    square_sum = sum_in_order(v * v for v in vals)
    if square_sum == 0.0:
        return 0.0
    total = sum_in_order(vals)
    return (total * total) / (len(vals) * square_sum)


def weighted_mean(values: Iterable[float], weights: Iterable[float]) -> float:
    vals, wts = list(values), list(weights)
    if len(vals) != len(wts):
        raise ValueError("values and weights differ in length")
    total = sum_in_order(wts)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum_in_order(v * w for v, w in zip(vals, wts)) / total
