#!/usr/bin/env python
"""Closing the loop: system software finds the right allocation.

The paper deliberately separates mechanism from policy: the VPC
hardware *enforces* whatever shares software programs, and choosing the
shares is an OS problem.  This example plays the OS: a soft-real-time
thread (stand-in video decoder) must sustain a frame-rate IPC, but the
right share is unknown — it depends on the workload and on what the
co-runners do.  A :class:`~repro.qos.TargetController` starts from a
deliberately wrong allocation, observes achieved IPC every epoch, and
reprograms the VPC control registers until the deadline IPC is met with
the smallest sufficient share; everything left over flows to the batch
co-runner through the fairness policy.

Run:  python examples/autopilot_allocation.py
"""

from repro import CMPSystem, baseline_config
from repro.common.config import VPCAllocation
from repro.qos import TargetController
from repro.workloads import loads_trace, stores_trace

TARGET_IPC = 0.20       # the "frame deadline" for the decoder stand-in
EPOCH = 4_000


def main() -> None:
    # Start badly provisioned: the real-time thread gets only 10%.
    config = baseline_config(
        n_threads=2, arbiter="vpc",
        vpc=VPCAllocation([0.10, 0.90], [0.5, 0.5]),
    )
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(30_000)

    controller = system.attach_qos_controller(TargetController(
        2, thread_id=0, target_ipc=TARGET_IPC, epoch_cycles=EPOCH,
    ))
    print(f"target IPC {TARGET_IPC:.2f}; starting share "
          f"{system.registers.bandwidth['data'][0]:.2f}\n")
    print(f"{'epoch':>5} {'share':>6} {'IPC':>7}  status")
    for index in range(16):
        share = system.registers.bandwidth["data"][0]
        system.run(EPOCH)
        decision = controller.on_epoch(system)
        ipc = decision.ipcs[0]
        met = ipc >= TARGET_IPC * 0.97
        status = "meets deadline" if met else "UNDER target"
        print(f"{index:>5} {share:>6.2f} {ipc:>7.3f}  {status}")
        if controller.converged() and index >= 5:
            break

    final = controller.decisions[-1]
    print(f"\nconverged at share {final.phi[0]:.2f} "
          f"(IPC {final.ipcs[0]:.3f})")
    if final.ipcs[0] < TARGET_IPC * 0.9:
        raise SystemExit("controller failed to reach the target")
    print("the hardware guaranteed every intermediate allocation while the")
    print("software searched; the co-runner absorbed all released bandwidth.")


if __name__ == "__main__":
    main()
