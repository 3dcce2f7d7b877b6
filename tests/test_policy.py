"""Tests for the IPC-target share controller (software policy layer)."""

import json

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.qos import TargetController
from repro.resilience.snapshot import (
    Checkpointer,
    ResumableTrace,
    resume_simulation,
)
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.validate import validate
from repro.workloads import loads_trace, spec_trace, stores_trace


def make_system(shares=(0.5, 0.5)):
    config = baseline_config(
        n_threads=2, arbiter="vpc",
        vpc=VPCAllocation(list(shares), [0.5, 0.5]),
    )
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(30_000)   # steady state before control starts
    return system


def control(system, epochs, **kwargs):
    """Attach a controller mid-run and drive ``epochs`` epochs by hand,
    the way system software would."""
    controller = system.attach_qos_controller(
        TargetController(system.config.n_threads, **kwargs))
    for _ in range(epochs):
        system.run(controller.epoch_cycles)
        controller.on_epoch(system)
    return controller


def trajectory(controller):
    tid = controller.thread_id
    return [(d.ipcs[tid], d.phi[tid]) for d in controller.decisions]


class TestValidation:
    def test_requires_vpc(self):
        config = baseline_config(n_threads=2, arbiter="fcfs")
        system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
        with pytest.raises(ValueError):
            system.attach_qos_controller(
                TargetController(2, 0, target_ipc=0.1))

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            TargetController(2, 5, target_ipc=0.1)
        with pytest.raises(ValueError):
            TargetController(2, 0, target_ipc=0.0)
        with pytest.raises(ValueError):
            TargetController(2, 0, target_ipc=0.1, epoch_cycles=0)


class TestControlLoop:
    def test_grows_share_to_meet_target(self):
        """Loads starts at 25% (IPC ~0.078); a 0.2-IPC target needs ~65%."""
        system = make_system(shares=(0.25, 0.75))
        controller = control(system, 14, thread_id=0, target_ipc=0.20,
                             epoch_cycles=4_000)
        assert controller.converged()
        last = controller.decisions[-1]
        assert last.ipcs[0] >= 0.19
        assert last.phi[0] > 0.25

    def test_releases_excess_share(self):
        """Loads at 90% overshoots a 0.1-IPC target; the controller
        shrinks its share and the neighbour speeds up."""
        system = make_system(shares=(0.9, 0.1))
        stores_before = system.cores[1].dispatched
        controller = control(system, 14, thread_id=0, target_ipc=0.10,
                             epoch_cycles=4_000)
        last = controller.decisions[-1]
        assert last.phi[0] < 0.9
        assert last.ipcs[0] >= 0.09   # still meets the target
        assert system.cores[1].dispatched > stores_before

    def test_infeasible_target_pins_at_max(self):
        system = make_system()
        controller = control(system, 10, thread_id=0, target_ipc=5.0,
                             epoch_cycles=3_000)
        assert system.registers.bandwidth["data"][0] == pytest.approx(
            TargetController.max_share)
        assert controller.converged()   # pinned counts as converged

    def test_decisions_recorded(self):
        system = make_system()
        controller = control(system, 1, thread_id=0, target_ipc=0.1,
                             epoch_cycles=2_000)
        [decision] = controller.decisions
        assert decision.cycle == system.cycle
        assert decision.cycles == 2_000
        assert decision.phi == system.registers.bandwidth["data"]
        # The epoch started from the configured 50%: it moved only if
        # the controller programmed a new allocation.
        assert decision.programmed == (decision.phi[0] != 0.5)

    def test_shares_always_feasible(self):
        """Register writes never over-allocate mid-adjustment."""
        system = make_system(shares=(0.25, 0.75))
        controller = control(system, 8, thread_id=0, target_ipc=0.25,
                             epoch_cycles=2_000)
        for decision in controller.decisions:
            assert sum(decision.phi) <= 1.0 + 1e-9
        for resource in ("tag", "data", "bus"):
            assert sum(system.registers.bandwidth[resource]) <= 1.0 + 1e-9


class TestRecordedTrajectories:
    """Every epoch's exact ``(observed IPC, share after)``, recorded
    from the two-thread feedback allocator this controller replaced;
    the controller must reproduce them bit for bit."""

    def test_example_schedule(self):
        # examples/autopilot_allocation.py: Loads at 10% against Stores.
        system = make_system(shares=(0.10, 0.90))
        controller = control(system, 12, thread_id=0, target_ipc=0.20,
                             epoch_cycles=4_000)
        assert trajectory(controller) == [
            (0.03125, 0.125),
            (0.03875, 0.15625),
            (0.0445, 0.1953125),
            (0.061, 0.244140625),
            (0.0765, 0.30517578125),
            (0.0955, 0.3814697265625),
            (0.11925, 0.476837158203125),
            (0.14875, 0.5960464477539062),
            (0.1865, 0.7450580596923828),
            (0.2325, 0.6705522537231445),
            (0.2095, 0.6034970283508301),
            (0.18875, 0.7543712854385376),
        ]
        assert system.cycle == 78_000
        assert [core.dispatched for core in system.cores] == [6731, 8271]

    def test_art_against_three_store_streams(self):
        config = baseline_config(
            n_threads=4, arbiter="vpc",
            vpc=VPCAllocation([0.5, 0.1, 0.1, 0.1], [0.25] * 4),
        )
        system = CMPSystem(config, [spec_trace("art", 0)]
                           + [stores_trace(tid) for tid in (1, 2, 3)])
        system.run(30_000)
        controller = control(system, 10, thread_id=0, target_ipc=0.4,
                             epoch_cycles=3_000)
        assert trajectory(controller) == [
            (0.7416666666666667, 0.45),
            (0.753, 0.405),
            (0.7513333333333333, 0.36450000000000005),
            (0.761, 0.32805000000000006),
            (0.83, 0.2952450000000001),
            (0.796, 0.2657205000000001),
            (0.736, 0.23914845000000007),
            (0.6243333333333333, 0.21523360500000008),
            (0.7876666666666666, 0.19371024450000007),
            (0.7146666666666667, 0.17433922005000008),
        ]
        assert system.registers.bandwidth["data"] == [
            0.17433922005000008] + [0.2752202599833333] * 3
        assert system.registers.capacity == [0.25] * 4
        assert [core.dispatched for core in system.cores] == [
            42457, 1922, 1925, 1923]


class TestHarness:
    """What the epoch harness gives the target policy."""

    def _system(self):
        config = baseline_config(
            n_threads=2, arbiter="vpc",
            vpc=VPCAllocation([0.25, 0.75], [0.5, 0.5]),
        )
        # Picklable traces, so a checkpoint can carry the whole system.
        return CMPSystem(config, [ResumableTrace(("loads",), 0),
                                  ResumableTrace(("stores",), 1)])

    def test_decisions_document_validates(self):
        system = self._system()
        controller = system.attach_qos_controller(
            TargetController(2, 0, target_ipc=0.2, epoch_cycles=4_000))
        result = run_simulation(system, warmup=10_000, measure=20_000)
        doc = json.loads(json.dumps(result.qos))
        assert validate(doc, "qos") == []
        assert doc["policy"] == "target"
        assert doc["epochs"] == controller.epochs == 5
        assert any(d["programmed"] for d in doc["decisions"])

    def test_checkpoint_resume_keeps_the_control_trail(self, tmp_path):
        def attached():
            system = self._system()
            system.attach_qos_controller(
                TargetController(2, 0, target_ipc=0.2, epoch_cycles=3_000))
            return system

        reference = run_simulation(attached(), warmup=10_000,
                                   measure=15_000)
        path = tmp_path / "target.ckpt"
        checkpointer = Checkpointer(path, every=5_000)
        checkpointed = run_simulation(attached(), warmup=10_000,
                                      measure=15_000,
                                      checkpoint=checkpointer)
        assert checkpointer.saved == 2
        resumed = resume_simulation(path)
        for result in (checkpointed, resumed):
            assert result.qos == reference.qos
            assert result.ipcs == reference.ipcs
        assert any(d["programmed"] for d in reference.qos["decisions"])
