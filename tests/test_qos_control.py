"""QoS control plane: classifier hysteresis, register-only programming,
cross-kernel bit-identity with a controller attached, and the policy
acceptance inequalities (LFOC/dynamic beat FCFS on fairness without
giving up static VPC's throughput).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.common.config import VPCAllocation, baseline_config
from repro.core.capacity import ways_quota
from repro.qos import (
    CONTROLLERS,
    FairnessController,
    LFOCController,
    QOS_DECISIONS_SCHEMA,
    EpochSignals,
    QoSController,
    ThreadClassifier,
    make_controller,
)
from repro.qos.classifier import (
    LABEL_HUNGRY,
    LABEL_LIGHT,
    LABEL_STREAMING,
    LABELS,
)
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry import RingBufferSink, TelemetryBus
from repro.telemetry.validate import validate
from repro.workloads.profiles import (
    PHASED_MIXES,
    phased_profile_trace,
    spec_trace,
)


def _signals(ipcs, loads, latency, cycles=5_000, cycle=5_000, ways=None):
    n = len(ipcs)
    return EpochSignals(
        cycle=cycle, cycles=cycles, ipcs=list(ipcs), loads=list(loads),
        load_latency=list(latency), ways=list(ways or [0] * n),
    )


class TestClassifier:
    def test_taxonomy_rules(self):
        clf = ThreadClassifier(3)
        # t0: intense + high latency (streaming); t1: intense + near-hit
        # latency (hungry); t2: barely touches the L2 (light).
        signals = _signals(
            ipcs=[0.5, 0.8, 1.5],
            loads=[100, 100, 5],
            latency=[100 * 230, 100 * 70, 5 * 60],
        )
        assert clf.classify(signals) == [
            LABEL_STREAMING, LABEL_HUNGRY, LABEL_LIGHT,
        ]

    def test_no_loads_is_light(self):
        clf = ThreadClassifier(1)
        assert clf.classify(_signals([0.0], [0], [0])) == [LABEL_LIGHT]

    def test_miss_rate_estimate_clamped(self):
        clf = ThreadClassifier(1)
        assert clf.miss_rate_estimate(
            _signals([1.0], [10], [10 * 1_000]), 0) == 1.0
        assert clf.miss_rate_estimate(
            _signals([1.0], [10], [10 * 5]), 0) == 0.0

    def test_hysteresis_damps_single_epoch_blips(self):
        clf = ThreadClassifier(1, hysteresis=2)
        hungry = _signals([1.0], [100], [100 * 70])
        streamy = _signals([1.0], [100], [100 * 230])
        assert clf.classify(hungry) == [LABEL_HUNGRY]
        # One off-label epoch must NOT flip the committed label...
        assert clf.classify(streamy) == [LABEL_HUNGRY]
        # ...returning to the committed label resets the streak...
        assert clf.classify(hungry) == [LABEL_HUNGRY]
        assert clf.classify(streamy) == [LABEL_HUNGRY]
        # ...and only `hysteresis` consecutive epochs commit the switch.
        assert clf.classify(streamy) == [LABEL_STREAMING]

    def test_alternating_signal_never_flaps(self):
        clf = ThreadClassifier(1, hysteresis=2)
        hungry = _signals([1.0], [100], [100 * 70])
        streamy = _signals([1.0], [100], [100 * 230])
        labels = [clf.classify(hungry)[0]]
        for _ in range(10):
            labels.append(clf.classify(streamy)[0])
            labels.append(clf.classify(hungry)[0])
        # A strictly alternating raw signal keeps the committed label.
        assert set(labels) == {LABEL_HUNGRY}

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadClassifier(0)
        with pytest.raises(ValueError):
            ThreadClassifier(1, hysteresis=0)
        with pytest.raises(ValueError):
            ThreadClassifier(1, hit_latency=100.0, miss_latency=50.0)


class TestRuntimeQuotas:
    def test_set_quotas_reprograms_without_rebuild(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        policy = system.banks[0].array.policy
        before = policy.quotas
        system.registers.write_capacity(0, 0.25)
        # The SAME policy object (no cache rebuild) now enforces the
        # new register-implied quotas on every bank.
        assert system.banks[0].array.policy is policy
        expected = ways_quota(system.registers.capacity, policy.ways)
        assert policy.quotas == expected != before
        for bank in system.banks:
            assert bank.array.policy.quotas == expected

    def test_set_quotas_validates_length(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        with pytest.raises(ValueError):
            system.banks[0].array.policy.set_quotas([0.5])

    def test_audit_catches_quota_drift(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        controller = system.attach_qos_controller(QoSController(2))
        controller.audit(system)  # consistent at attach time
        system.banks[0].array.policy.quotas = [1, 1]  # drift behind the
        with pytest.raises(RuntimeError):              # registers' back
            controller.audit(system)


class TestControllerHarness:
    def test_attach_requires_vpc_arbiter(self):
        config = baseline_config(n_threads=2, arbiter="fcfs")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)],
                           capacity_policy="lru")
        with pytest.raises(ValueError):
            system.attach_qos_controller(QoSController(2))

    def test_attach_requires_matching_width(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        with pytest.raises(ValueError):
            system.attach_qos_controller(QoSController(4))

    def test_lfoc_needs_one_way_per_thread(self):
        controller = LFOCController(4)
        controller.ways = 2
        config = baseline_config(n_threads=4, arbiter="vpc")
        system = CMPSystem(
            config, [spec_trace("art", tid) for tid in range(4)])
        assert system.config.l2.ways >= 4  # baseline qualifies
        # An undersized cache is rejected at attach time.
        from dataclasses import replace
        small = replace(
            config, l2=replace(config.l2, ways=2)
        ).validate()
        tiny = CMPSystem(
            small, [spec_trace("art", tid) for tid in range(4)])
        with pytest.raises(ValueError):
            tiny.attach_qos_controller(LFOCController(4))

    def test_make_controller_dispatch(self):
        assert set(CONTROLLERS) == {"lfoc", "fairness"}
        assert isinstance(make_controller("lfoc", 2), LFOCController)
        assert isinstance(make_controller("fairness", 2),
                          FairnessController)
        with pytest.raises(ValueError):
            make_controller("pid", 2)

    def test_epochs_fire_and_program_registers(self):
        config = baseline_config(n_threads=4, arbiter="vpc",
                                 vpc=VPCAllocation.equal(4))
        system = CMPSystem(
            config,
            [phased_profile_trace("art-sixtrack", 0), spec_trace("mcf", 1),
             phased_profile_trace("equake-art", 2), spec_trace("gzip", 3)])
        controller = system.attach_qos_controller(
            LFOCController(4, epoch_cycles=2_000))
        result = run_simulation(system, warmup=4_000, measure=10_000)
        assert controller.epochs == 5
        assert [d.cycle for d in controller.decisions] == [
            4_000 + 2_000 * (k + 1) for k in range(5)
        ]
        assert any(d.programmed for d in controller.decisions)
        # The programmed allocation is visible in the register file and
        # mirrored into every bank's quota vector.
        final = controller.decisions[-1]
        assert system.registers.bandwidth["data"] == final.phi
        assert system.registers.capacity == final.beta
        controller.audit(system)
        assert result.qos is not None
        assert result.qos["schema"] == QOS_DECISIONS_SCHEMA
        assert result.qos["epochs"] == 5

    def test_partial_final_epoch_fires(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        controller = system.attach_qos_controller(
            FairnessController(2, epoch_cycles=4_000))
        run_simulation(system, warmup=2_000, measure=6_000)
        # 6000 measured cycles = one full epoch + a 2000-cycle tail.
        assert controller.epochs == 2
        assert controller.decisions[-1].cycles == 2_000

    def test_labels_change_under_phased_workload(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(
            config,
            [phased_profile_trace("art-sixtrack", 0), spec_trace("mcf", 1)])
        controller = system.attach_qos_controller(
            LFOCController(2, epoch_cycles=2_000))
        run_simulation(system, warmup=2_000, measure=40_000)
        trail = [tuple(d.labels) for d in controller.decisions]
        assert len(set(trail)) > 1, "phased mix never re-labelled"
        assert all(label in LABELS for labels in trail for label in labels)

    def test_decisions_document_is_json_and_valid(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        controller = system.attach_qos_controller(
            FairnessController(2, epoch_cycles=2_000,
                               baseline_ipcs=[1.0, 0.8]))
        run_simulation(system, warmup=2_000, measure=8_000)
        doc = json.loads(json.dumps(controller.decisions_document()))
        assert validate(doc, "qos") == []
        assert doc["policy"] == "fairness"
        assert doc["baseline_ipcs"] == [1.0, 0.8]
        assert doc["final"]["labels"] == doc["decisions"][-1]["labels"]

    def test_fairness_controller_narrows_slowdown_spread(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        controller = system.attach_qos_controller(
            FairnessController(2, epoch_cycles=2_000))
        run_simulation(system, warmup=4_000, measure=20_000)
        programmed = [d for d in controller.decisions if d.programmed]
        assert programmed, "controller never acted"
        # Shares moved off equal toward the slower thread, and every
        # programmed vector conserves the resource.
        final = controller.decisions[-1].phi
        assert final != [0.5, 0.5]
        for decision in controller.decisions:
            assert sum(decision.phi) <= 1.0 + 1e-9
            assert sum(decision.beta) <= 1.0 + 1e-9


class TestLFOCClustering:
    def test_capacity_pins_streaming_and_splits_hungry(self):
        controller = LFOCController(4)
        controller.ways = 8
        beta = controller.cluster_capacity(
            [LABEL_STREAMING, LABEL_HUNGRY, LABEL_HUNGRY, LABEL_LIGHT])
        # streaming/light pinned to 1 way; 6 remaining split 3+3.
        assert beta == [1 / 8, 3 / 8, 3 / 8, 1 / 8]

    def test_capacity_equal_without_hungry(self):
        controller = LFOCController(4)
        controller.ways = 8
        assert controller.cluster_capacity([LABEL_LIGHT] * 4) == [0.25] * 4

    def test_bandwidth_shaves_streaming_for_hungry(self):
        controller = LFOCController(4, streaming_phi_scale=0.8)
        phi = controller.cluster_bandwidth(
            [LABEL_STREAMING, LABEL_HUNGRY, LABEL_HUNGRY, LABEL_LIGHT])
        assert phi[0] == pytest.approx(0.25 * 0.8)
        assert phi[1] == phi[2] > 0.25
        assert phi[3] == 0.25
        assert sum(phi) == pytest.approx(1.0)

    def test_reprograms_only_on_label_change(self):
        controller = LFOCController(2)
        controller.ways = 8
        signals = _signals([1.0, 1.0], [10, 10], [700, 700])
        labels = [LABEL_HUNGRY, LABEL_STREAMING]
        assert controller.decide(signals, labels) is not None
        assert controller.decide(signals, labels) is None
        assert controller.decide(
            signals, [LABEL_HUNGRY, LABEL_HUNGRY]) is not None


class TestKernelBitIdentityWithController:
    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_all_kernels_agree_with_controller_attached(self, name):
        def run(kernel):
            config = baseline_config(n_threads=4, arbiter="vpc",
                                     vpc=VPCAllocation.equal(4))
            system = CMPSystem(
                config,
                [phased_profile_trace("art-sixtrack", 0),
                 spec_trace("mcf", 1),
                 phased_profile_trace("equake-art", 2),
                 spec_trace("gzip", 3)],
                kernel=kernel)
            system.attach_qos_controller(
                make_controller(name, 4, epoch_cycles=2_000))
            return run_simulation(system, warmup=4_000, measure=8_000)

        reference = run("cycle")
        assert reference.qos["epochs"] == 4
        assert asdict(run("batch")) == asdict(reference)


class TestTelemetry:
    def test_decisions_land_on_the_bus(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        bus = TelemetryBus()
        ring = bus.attach(RingBufferSink())
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)],
                           telemetry=bus)
        system.attach_qos_controller(LFOCController(2, epoch_cycles=2_000))
        run_simulation(system, warmup=2_000, measure=4_000)
        events = [e for e in ring if e.track.startswith("qos.")]
        instants = [e for e in events if e.name == "decision"]
        assert len(instants) == 2
        assert instants[0].args["policy"] == "lfoc"
        assert instants[0].args["labels"].count(",") == 1
        counters = {e.name for e in events} - {"decision"}
        assert {"phi", "beta", "jain"} <= counters

    def test_feedback_allocator_emits_decisions(self):
        from repro.policy.feedback import FeedbackAllocator
        config = baseline_config(n_threads=2, arbiter="vpc")
        bus = TelemetryBus()
        ring = bus.attach(RingBufferSink())
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)],
                           telemetry=bus)
        system.run(2_000)
        allocator = FeedbackAllocator(system, thread_id=1, target_ipc=0.9,
                                      epoch_cycles=1_000)
        allocator.run(3)
        instants = [e for e in ring
                    if e.track == "qos.controller" and e.name == "feedback"]
        assert len(instants) == 3
        assert instants[0].tid == 1
        assert instants[0].args["target_ipc"] == 0.9
        shares = [e for e in ring
                  if e.track == "qos.shares" and e.name == "phi"]
        assert [e.args["t1"] for e in shares] == [
            d.share_after for d in allocator.decisions
        ]


class TestValidators:
    def _doc(self):
        config = baseline_config(n_threads=2, arbiter="vpc")
        system = CMPSystem(config, [spec_trace("art", 0),
                                    spec_trace("mcf", 1)])
        system.attach_qos_controller(LFOCController(2, epoch_cycles=2_000))
        result = run_simulation(system, warmup=2_000, measure=6_000)
        return json.loads(json.dumps(result.qos))

    def test_valid_document_passes(self):
        assert validate(self._doc(), "qos") == []

    def test_tampering_is_caught(self):
        doc = self._doc()
        doc["decisions"][0]["labels"][0] = "confused"
        assert any("taxonomy" in e for e in validate(doc, "qos"))
        doc = self._doc()
        doc["decisions"][-1]["phi"] = [0.9, 0.9]
        assert any("sum" in e for e in validate(doc, "qos"))
        doc = self._doc()
        doc["final"]["jain"] = 0.123
        assert any("final.jain" in e for e in validate(doc, "qos"))
        doc = self._doc()
        doc["epochs"] += 1
        assert validate(doc, "qos")

    def test_frontier_validator_shapes(self):
        good = {
            "schema": "repro.policy-frontier/1",
            "policies": ["fcfs", "vpc"],
            "epoch_cycles": 5_000, "warmup": 1_000, "measure": 2_000,
            "mixes": [{
                "mix": "pmix1", "workloads": ["a", "b"],
                "targets": [1.0, 0.5],
                "points": {
                    "fcfs": {"jain": 0.9, "aggregate_ipc": 2.0,
                             "hmean": 1.0, "min": 0.8,
                             "normalized_ipcs": [1.0, 1.1], "epochs": 0},
                    "vpc": {"jain": 0.95, "aggregate_ipc": 2.1,
                            "hmean": 1.1, "min": 0.9,
                            "normalized_ipcs": [1.0, 1.2], "epochs": 0},
                },
            }],
            "aggregate": {"fcfs": {"jain": 0.9}, "vpc": {"jain": 0.95}},
        }
        assert validate(good, "frontier") == []
        bad = json.loads(json.dumps(good))
        del bad["mixes"][0]["points"]["vpc"]
        assert any("points cover" in e for e in validate(bad, "frontier"))
        bad = json.loads(json.dumps(good))
        bad["mixes"][0]["points"]["fcfs"]["jain"] = 1.5
        assert any("jain" in e for e in validate(bad, "frontier"))
        assert validate({"schema": "nope"}, "frontier")


class TestPolicyRemap:
    def _point(self, n_threads=4):
        from repro.experiments.parallel import SimPoint
        return SimPoint(
            config=baseline_config(n_threads=n_threads, arbiter="vpc"),
            traces=tuple(("spec", "art") for _ in range(n_threads)),
            warmup=1_000, measure=1_000, capacity_policy="vpc",
        )

    def test_apply_policy_families(self):
        from repro.experiments.parallel import RunSpec, apply_policy
        fcfs = apply_policy(self._point(), RunSpec(policy="fcfs"))
        assert fcfs.config.arbiter == "fcfs"
        assert fcfs.capacity_policy == "lru"
        assert fcfs.controller is None
        lfoc_spec = RunSpec(policy="lfoc", epoch=2_000)
        lfoc = apply_policy(self._point(), lfoc_spec)
        assert lfoc.config.arbiter == "vpc"
        assert lfoc.controller == "lfoc"
        assert lfoc.epoch_cycles == 2_000
        # Solo target points are never remapped.
        solo = apply_policy(self._point(n_threads=1), lfoc_spec)
        assert solo.controller is None
        assert solo.config.arbiter == "vpc"

    def test_configure_validation(self):
        from repro.experiments import parallel
        try:
            with pytest.raises(ValueError):
                parallel.configure(policy="sjf")
            with pytest.raises(ValueError):
                parallel.configure(controller="pid")
            with pytest.raises(ValueError):
                parallel.configure(policy="fcfs", controller="lfoc")
            with pytest.raises(ValueError):
                parallel.configure(controller="lfoc", epoch=0)
        finally:
            parallel.configure(jobs=1, cache=True)


class TestAcceptance:
    """The PR's golden gate: under a phase-changing fig10-style mix,
    the LFOC policy and the dynamic fairness controller each achieve
    strictly higher Jain fairness than FCFS while keeping aggregate
    IPC within 5% of static VPC.  Everything is deterministic, so the
    inequalities are exact gates, not statistical ones."""

    @pytest.fixture(scope="class")
    def frontier(self):
        from repro.experiments import run_experiment
        return run_experiment("policy-frontier", fast=True)

    def test_figure_document_validates(self, frontier):
        doc = json.loads(json.dumps(frontier.figure))
        assert validate(doc, "frontier") == []
        assert doc["policies"] == ["fcfs", "vpc", "lfoc", "dynamic"]

    def test_dynamic_policies_beat_fcfs_on_fairness(self, frontier):
        for mix in frontier.figure["mixes"]:
            points = mix["points"]
            assert points["lfoc"]["jain"] > points["fcfs"]["jain"], mix["mix"]
            assert points["dynamic"]["jain"] > points["fcfs"]["jain"], \
                mix["mix"]

    def test_throughput_within_five_percent_of_static_vpc(self, frontier):
        for mix in frontier.figure["mixes"]:
            points = mix["points"]
            floor = 0.95 * points["vpc"]["aggregate_ipc"]
            assert points["lfoc"]["aggregate_ipc"] >= floor, mix["mix"]
            assert points["dynamic"]["aggregate_ipc"] >= floor, mix["mix"]

    def test_controllers_actually_ran(self, frontier):
        for mix in frontier.figure["mixes"]:
            assert mix["points"]["lfoc"]["epochs"] > 0
            assert mix["points"]["dynamic"]["epochs"] > 0
            assert mix["points"]["fcfs"]["epochs"] == 0
            assert mix["points"]["vpc"]["epochs"] == 0

    def test_deterministic(self, frontier):
        from repro.experiments import run_experiment
        again = run_experiment("policy-frontier", fast=True)
        assert again.rows == frontier.rows
        assert json.dumps(again.figure, sort_keys=True) == \
            json.dumps(frontier.figure, sort_keys=True)


class TestCLI:
    def test_policy_lfoc_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        log = tmp_path / "qos.json"
        code = main(["art-sixtrack", "mcf", "--policy", "lfoc",
                     "--warmup", "2000", "--cycles", "6000",
                     "--epoch", "2000", "--qos-log", str(log)])
        assert code == 0
        out = capsys.readouterr().out
        assert "qos: lfoc controller, 3 epochs" in out
        doc = json.loads(log.read_text())
        assert validate(doc, "qos") == []
        assert doc["epoch_cycles"] == 2_000

    def test_phased_mix_names_resolve(self):
        # Every workload named by the frontier's mixes is a valid CLI
        # positional (steady or phased), and resolves to the spec kind
        # the frontier's cached target points were keyed on.
        from repro.workloads import PHASED_PROFILES, build_trace, workload_spec
        for mix in PHASED_MIXES.values():
            for name in mix:
                kind = "phased" if name in PHASED_PROFILES else "spec"
                assert workload_spec(name) == (kind, name)
                next(iter(build_trace(workload_spec(name), 0)))

    def test_inline_phase_spec(self, capsys):
        from repro.cli import main
        assert main(["phase:art+sixtrack@4000", "gzip",
                     "--warmup", "1000", "--cycles", "2000"]) == 0
        assert "phase:art+sixtrack@4000" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["art", "mcf", "--policy", "fcfs", "--controller", "lfoc"],
        ["art", "mcf", "--arbiter", "fcfs", "--controller", "fairness"],
        ["art", "mcf", "--epoch", "1000"],
        ["art", "mcf", "--qos-log", "x.json"],
        ["art", "mcf", "--policy", "lfoc", "--epoch", "0"],
    ])
    def test_flag_combinations_rejected(self, argv):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_resume_cannot_change_controller(self, tmp_path):
        from repro.cli import main
        ckpt = tmp_path / "c.pkl"
        assert main(["art", "mcf", "--policy", "lfoc",
                     "--warmup", "1000", "--cycles", "4000",
                     "--checkpoint", str(ckpt),
                     "--checkpoint-every", "2000"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--resume-checkpoint", str(ckpt), "--policy", "vpc"])
        assert exc.value.code == 2

    def test_resume_preserves_controller_trail(self, tmp_path, capsys):
        from repro.cli import main
        ckpt = tmp_path / "c.pkl"
        log = tmp_path / "qos.json"
        assert main(["art", "mcf", "--policy", "lfoc",
                     "--warmup", "1000", "--cycles", "4000",
                     "--checkpoint", str(ckpt),
                     "--checkpoint-every", "2000"]) == 0
        capsys.readouterr()
        # The snapshot carries the controller; resuming re-finalizes the
        # same decision trail and can still export it.
        assert main(["--resume-checkpoint", str(ckpt),
                     "--qos-log", str(log)]) == 0
        assert "qos: lfoc controller" in capsys.readouterr().out
        assert validate(json.loads(log.read_text()), "qos") == []

    def test_resume_keeps_the_runs_own_metrics(self, tmp_path):
        """A controller's private collector shares the run's bus; the
        resumed run must still write the run's metrics (window 1000, not
        the controller's epoch-sized windows), byte for byte."""
        from repro.cli import main
        ckpt = tmp_path / "c.ckpt"
        full, resumed = tmp_path / "full.json", tmp_path / "resumed.json"
        assert main(["art", "mcf", "--policy", "lfoc", "--epoch", "2000",
                     "--warmup", "2000", "--cycles", "8000",
                     "--metrics-window", "1000", "--metrics", str(full),
                     "--checkpoint", str(ckpt),
                     "--checkpoint-every", "4000"]) == 0
        assert main(["--resume-checkpoint", str(ckpt),
                     "--metrics", str(resumed)]) == 0
        assert resumed.read_bytes() == full.read_bytes()
