"""Simulation kernels: the cycle-by-cycle stepper (the oracle) and the
batched kernel (:mod:`repro.system.batch_kernel`, the default).

Both advance a :class:`~repro.system.cmp.CMPSystem` and must produce
**bit-identical** results — every counter, IPC, and utilization
(guarded by ``tests/test_kernel_equivalence.py``).  The cycle kernel is
the reference: it calls ``system.step()`` once per processor cycle.
"""

from __future__ import annotations

from repro.system.batch_kernel import run_batch


def run_cycle(system, cycles: int) -> None:
    """The seed kernel: one full ``step`` per processor cycle."""
    for _ in range(cycles):
        system.step()


KERNELS = {"cycle": run_cycle, "batch": run_batch}

#: The kernel every system, point, and CLI runs under unless told
#: otherwise.
DEFAULT_KERNEL = "batch"
