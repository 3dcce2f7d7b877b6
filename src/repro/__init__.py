"""repro — a reproduction of "Virtual Private Caches" (ISCA 2007).

Public API tour
---------------

* :mod:`repro.common` — system configuration (paper Table 1), request
  records, statistics primitives.
* :mod:`repro.core` — the paper's contribution: VPC arbiters, the VPC
  Capacity Manager, control registers, and QoS accounting.
* :mod:`repro.cache`, :mod:`repro.interconnect`, :mod:`repro.memory`,
  :mod:`repro.cpu` — the CMP substrate (banked shared L2 with store
  gathering buffers, crossbar, DDR2 memory, window/MLP core model).
* :mod:`repro.workloads` — the Table-2 microbenchmarks and synthetic
  SPEC stand-in profiles.
* :mod:`repro.system` — whole-chip assembly and the simulation driver.
* :mod:`repro.experiments` — one module per paper table/figure;
  ``python -m repro.experiments <id>`` regenerates it.

Quick start::

    from repro import baseline_config, CMPSystem, run_simulation
    from repro.workloads import loads_trace, stores_trace

    config = baseline_config(n_threads=2, arbiter="vpc")
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    result = run_simulation(system)
    print(result.ipcs, result.utilizations)
"""

from repro.common import (
    AccessType,
    MemoryRequest,
    SystemConfig,
    VPCAllocation,
    baseline_config,
    harmonic_mean,
    private_equivalent,
)
from repro.core import (
    FCFSArbiter,
    QoSOutcome,
    RoWFCFSArbiter,
    VPCArbiter,
    VPCCapacityManager,
    VPCControlRegisters,
)
from repro.system import (
    CMPSystem,
    SimulationResult,
    qos_outcomes,
    run_simulation,
    target_ipc,
    workload_summary,
)

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "CMPSystem",
    "FCFSArbiter",
    "MemoryRequest",
    "QoSOutcome",
    "RoWFCFSArbiter",
    "SimulationResult",
    "SystemConfig",
    "VPCAllocation",
    "VPCArbiter",
    "VPCCapacityManager",
    "VPCControlRegisters",
    "__version__",
    "baseline_config",
    "harmonic_mean",
    "private_equivalent",
    "qos_outcomes",
    "run_simulation",
    "target_ipc",
    "workload_summary",
]
