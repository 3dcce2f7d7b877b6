"""Resilience subsystem tests: checkpoint determinism, journal replay,
and chaos recovery.

The load-bearing contract mirrors test_kernel_equivalence: a run that
was checkpointed, killed, and resumed must produce a
:class:`~repro.system.simulator.SimulationResult` (and metrics
snapshot) **exactly equal** to the uninterrupted run — no tolerances.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import baseline_config
from repro.experiments import parallel
from repro.experiments.parallel import SimPoint
from repro.resilience import (
    ChaosConfig,
    CheckpointError,
    Checkpointer,
    FleetAborted,
    PointsExcludedError,
    ResilienceConfig,
    ResumableTrace,
    RunJournal,
    load_checkpoint,
    read_checkpoint_header,
    replay,
    resume_simulation,
    write_checkpoint,
)
from repro.resilience.chaos import corrupt_file
from repro.resilience.snapshot import CHECKPOINT_SCHEMA_VERSION
from repro.resilience.journal import (
    load_result,
    result_path,
    store_result,
)
from repro.system.cmp import CMPSystem
from repro.system.simulator import run_simulation
from repro.telemetry.metrics import MetricsCollector
from repro.workloads import build_trace

WARMUP, MEASURE = 6_000, 4_000
SPECS = (("loads",), ("stores",))


@pytest.fixture(autouse=True)
def _reset_execution_policy():
    """Leave the module-level execution policy exactly as the rest of
    the suite expects (serial, cache on, no resilience/observers)."""
    yield
    parallel.configure(jobs=1, cache=True)


def _system(arbiter: str, wrapped: bool, with_metrics: bool = False):
    config = baseline_config(n_threads=2, arbiter=arbiter)
    traces = [
        ResumableTrace(spec, tid) if wrapped else build_trace(spec, tid)
        for tid, spec in enumerate(SPECS)
    ]
    system = CMPSystem(config, traces)
    metrics = None
    if with_metrics:
        metrics = system.attach_metrics(MetricsCollector(2, window=500))
        system.attach_attribution()
    return system, metrics


class TestCheckpointDeterminism:
    """Golden checks: checkpointed/resumed == uninterrupted, bit for bit."""

    @pytest.mark.parametrize("arbiter", ["vpc", "fcfs"])
    def test_resume_matches_uninterrupted(self, tmp_path, arbiter):
        ref_system, _ = _system(arbiter, wrapped=False)
        reference = run_simulation(ref_system, warmup=WARMUP, measure=MEASURE)

        ckpt = tmp_path / "point.ckpt"
        system, _ = _system(arbiter, wrapped=True)
        checkpointer = Checkpointer(ckpt, every=1_000, point_key="golden")
        chunked = run_simulation(system, warmup=WARMUP, measure=MEASURE,
                                 checkpoint=checkpointer)
        # Checkpointing itself must not perturb the simulation...
        assert asdict(chunked) == asdict(reference)
        assert checkpointer.saved >= 2
        # ...and the tail resumed from the last mid-run snapshot must
        # land on the identical result in a "different process".
        resumed = resume_simulation(ckpt)
        assert asdict(resumed) == asdict(reference)

    def test_resume_preserves_metrics_byte_identity(self, tmp_path):
        ref_system, ref_metrics = _system("vpc", wrapped=False,
                                          with_metrics=True)
        reference = run_simulation(ref_system, warmup=WARMUP,
                                   measure=MEASURE, metrics=ref_metrics)
        ref_json = json.dumps(reference.metrics, indent=2, sort_keys=True)

        ckpt = tmp_path / "point.ckpt"
        system, metrics = _system("vpc", wrapped=True, with_metrics=True)
        checkpointer = Checkpointer(ckpt, every=1_200, point_key="m")
        run_simulation(system, warmup=WARMUP, measure=MEASURE,
                       metrics=metrics, checkpoint=checkpointer)
        assert checkpointer.saved >= 1

        resumed = resume_simulation(ckpt)
        assert asdict(resumed) == asdict(reference)
        assert json.dumps(resumed.metrics, indent=2,
                          sort_keys=True) == ref_json

    def test_wrapped_traces_do_not_perturb(self):
        plain, _ = _system("vpc", wrapped=False)
        wrapped, _ = _system("vpc", wrapped=True)
        a = run_simulation(plain, warmup=WARMUP, measure=MEASURE)
        b = run_simulation(wrapped, warmup=WARMUP, measure=MEASURE)
        assert asdict(a) == asdict(b)


class TestCheckpointFile:
    def test_header_fields(self, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        system, _ = _system("vpc", wrapped=True)
        system.run(100)
        write_checkpoint(ckpt, system, _state_stub(), point_key="abc")
        header = read_checkpoint_header(ckpt)
        assert header["point_key"] == "abc"
        assert header["cycle"] == system.cycle
        assert header["schema"] >= 1

    def test_key_mismatch_rejected(self, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        system, _ = _system("vpc", wrapped=True)
        write_checkpoint(ckpt, system, _state_stub(), point_key="mine")
        with pytest.raises(CheckpointError, match="mine"):
            load_checkpoint(ckpt, expect_key="other")

    def test_missing_and_garbage_files(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint_header(tmp_path / "nope.ckpt")
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            read_checkpoint_header(garbage)

    @pytest.mark.parametrize("schema", [1, 2, 3])
    def test_stale_schema_refused(self, tmp_path, schema):
        # A valid checkpoint from an older schema: its pickled classes
        # may not fit the current ones, so it is refused, never loaded.
        assert schema < CHECKPOINT_SCHEMA_VERSION
        stale = _stale_checkpoint(tmp_path / "stale.ckpt", schema)
        with pytest.raises(CheckpointError,
                           match=f"{schema} != {CHECKPOINT_SCHEMA_VERSION}"):
            load_checkpoint(stale)


def _stale_checkpoint(path, schema: int):
    """A valid checkpoint whose header claims ``schema``."""
    system, _ = _system("vpc", wrapped=True)
    write_checkpoint(path, system, _state_stub(), point_key="old")
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    fields["schema"] = schema
    path.write_bytes(magic + b"\n" + json.dumps(fields).encode()
                     + b"\n" + payload)
    return path


def _state_stub():
    from repro.system.simulator import MeasureState
    return MeasureState(warmup=1, measure=2, remaining=2,
                        dispatched_before=[0, 0], meter_snaps=[],
                        counter_snaps=[])


class TestSnapshotRoundTripProperties:
    """Hypothesis round-trips for the snapshot serialization layer."""

    @settings(max_examples=20, deadline=None)
    @given(spec=st.sampled_from([("loads",), ("stores",), ("spec", "art")]),
           consumed=st.integers(min_value=0, max_value=300))
    def test_resumable_trace_roundtrip(self, spec, consumed):
        original = ResumableTrace(spec, 1)
        for _ in range(consumed):
            next(original)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.count == original.count
        for _ in range(64):
            assert next(clone) == next(original)

    @settings(max_examples=15, deadline=None)
    @given(warmup=st.integers(min_value=0, max_value=10**6),
           measure=st.integers(min_value=1, max_value=10**6),
           remaining=st.integers(min_value=0, max_value=10**6),
           since=st.integers(min_value=0, max_value=10**6),
           dispatched=st.lists(st.integers(min_value=0, max_value=10**9),
                               min_size=1, max_size=8),
           key=st.text(
               alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=40))
    def test_measure_state_roundtrip(self, warmup, measure, remaining,
                                     since, dispatched, key):
        from repro.system.simulator import MeasureState
        state = MeasureState(
            warmup=warmup, measure=measure, remaining=remaining,
            dispatched_before=list(dispatched),
            meter_snaps=[(1, 2, 3)], counter_snaps=[{"a": 1}],
            since_checkpoint=since,
        )
        system = _TinySystem(cycle=warmup + (measure - remaining))
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "rt.ckpt"
            write_checkpoint(path, system, state, point_key=key)
            payload = load_checkpoint(path, expect_key=key)
        assert payload["state"].__dict__ == state.__dict__
        assert payload["system"].cycle == system.cycle

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_payload_corruption_always_detected(self, seed):
        import random
        system = _TinySystem(cycle=123)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "c.ckpt"
            write_checkpoint(path, system, _state_stub(), point_key="k")
            raw = path.read_bytes()
            header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1
            rng = random.Random(seed)
            offset = rng.randrange(header_end, len(raw))
            mutated = bytearray(raw)
            mutated[offset] ^= 0xFF
            path.write_bytes(bytes(mutated))
            with pytest.raises(CheckpointError):
                load_checkpoint(path, expect_key="k")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    # Drew the same offset twice, which once left the file unchanged.
    @example(seed=66875)
    def test_chaos_corruption_always_detected(self, seed):
        import random
        system = _TinySystem(cycle=5)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "c.ckpt"
            write_checkpoint(path, system, _state_stub())
            corrupt_file(path, random.Random(seed))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


class _TinySystem:
    """Minimal picklable stand-in for checkpoint-format round-trips."""

    def __init__(self, cycle: int) -> None:
        self.cycle = cycle


class TestJournal:
    def test_replay_roundtrip(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.run_started("fig10", n_points=3)
            journal.point_started("aaa", 0, 1)
            journal.point_finished("aaa", 0, 1)
            journal.point_started("bbb", 1, 1)
            journal.point_failed("bbb", 1, 1, "worker exited 137",
                                 retry_in=0.5)
            journal.point_started("ccc", 2, 1)
            journal.point_excluded("ccc", 2, 3, "kept timing out")
        state = replay(tmp_path)
        assert state.exp_id == "fig10"
        assert state.records["aaa"].status == "done"
        assert state.records["bbb"].status == "pending"  # retriable
        assert state.records["bbb"].last_error == "worker exited 137"
        assert state.records["ccc"].status == "excluded"
        assert not state.finished
        assert state.summary() == {"pending": 1, "running": 0,
                                   "done": 1, "excluded": 1}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.run_started("x", n_points=1)
            journal.point_started("aaa", 0, 1)
            journal.point_finished("aaa", 0, 1)
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write('{"event": "point_started", "key": "bbb"')  # no \n
        state = replay(tmp_path)
        assert state.skipped_lines == 1
        assert state.records["aaa"].status == "done"
        assert "bbb" not in state.records

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.run_started("x", n_points=1)
        with open(tmp_path / "journal.jsonl", "a") as fh:
            fh.write("}}}garbage{{{\n")
        with RunJournal(tmp_path) as journal:
            journal.point_started("aaa", 0, 1)
            journal.point_finished("aaa", 0, 1)
        state = replay(tmp_path)
        assert state.skipped_lines == 1
        assert state.records["aaa"].status == "done"

    def test_result_sidecar_roundtrip_and_corruption(self, tmp_path):
        system, _ = _system("fcfs", wrapped=False)
        result = run_simulation(system, warmup=2_000, measure=1_000)
        path = result_path(tmp_path, "k")
        store_result(path, result)
        assert asdict(load_result(path)) == asdict(result)
        path.write_bytes(path.read_bytes()[:10])  # truncate
        assert load_result(path) is None

    def test_missing_journal_is_fresh_state(self, tmp_path):
        state = replay(tmp_path / "never-created")
        assert state.records == {}
        assert state.started == 0


class TestChaosConfig:
    def test_parse(self):
        cfg = ChaosConfig.parse("kill=0.3,corrupt=0.2,seed=7,abort_after=2")
        assert cfg.kill == 0.3
        assert cfg.corrupt == 0.2
        assert cfg.seed == 7
        assert cfg.abort_after == 2
        assert cfg.armed()
        assert not ChaosConfig.parse("").armed()

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown chaos parameter"):
            ChaosConfig.parse("explode=1.0")

    def test_injector_is_deterministic(self):
        from repro.resilience.chaos import _rng_for
        cfg = ChaosConfig(seed=3)
        a = _rng_for(cfg, "key", 1)
        b = _rng_for(cfg, "key", 1)
        assert [a.random() for _ in range(5)] == [b.random()
                                                 for _ in range(5)]
        assert _rng_for(cfg, "key", 2).random() != _rng_for(
            cfg, "key", 1).random()


def _points(arbiters=("vpc", "fcfs")):
    return [
        SimPoint(config=baseline_config(n_threads=2, arbiter=arb),
                 traces=SPECS, warmup=4_000, measure=3_000,
                 capacity_policy="lru")
        for arb in arbiters
    ]


class TestResilientFleet:
    def test_chaos_killed_fleet_resumes_byte_identical(self, tmp_path):
        """The acceptance scenario: kill workers mid-point, corrupt some
        checkpoints, crash the orchestrator, then --resume — the final
        aggregate must be byte-identical to a clean run's and completed
        points must not re-simulate."""
        points = _points()
        parallel.configure(jobs=1, cache=False, metrics=500)
        clean = parallel.run_points(points)
        clean_json = [json.dumps(r.metrics, sort_keys=True) for r in clean]

        run_dir = tmp_path / "run"

        def resilient(chaos=None):
            parallel.configure(
                jobs=2, cache=False, metrics=500,
                resilience=ResilienceConfig(
                    run_dir=str(run_dir), checkpoint_every=1_000,
                    point_timeout=120.0, max_retries=4,
                    backoff_base=0.05, chaos=chaos),
            )
            return parallel.run_points(points)

        chaos = ChaosConfig(seed=11, kill=0.5, corrupt=0.3,
                            max_faults_per_point=2, abort_after=1)
        with pytest.raises(FleetAborted):
            resilient(chaos=chaos)

        journal_lines = (run_dir / "journal.jsonl").read_text().splitlines()
        results = resilient()
        assert all(r is not None for r in results)
        for got, want_json, want in zip(results, clean_json, clean):
            assert asdict(got) == asdict(want)
            assert json.dumps(got.metrics, sort_keys=True) == want_json

        # Third invocation: everything is journaled done — nothing runs.
        before = len((run_dir / "journal.jsonl").read_text().splitlines())
        again = resilient()
        after_lines = (run_dir / "journal.jsonl").read_text().splitlines()
        new_events = [json.loads(line)["event"]
                      for line in after_lines[before:]]
        assert "point_started" not in new_events
        for got, want in zip(again, clean):
            assert asdict(got) == asdict(want)

        # The chaos phase must have actually exercised failure paths.
        events = [json.loads(line)["event"] for line in journal_lines]
        assert "point_failed" in events

    def test_always_failing_point_is_excluded_with_report(self, tmp_path):
        points = _points(arbiters=("vpc",))
        chaos = ChaosConfig(seed=5, kill=1.0, max_faults_per_point=99)
        parallel.configure(
            jobs=1, cache=False,
            resilience=ResilienceConfig(
                run_dir=str(tmp_path / "run"), checkpoint_every=1_000,
                max_retries=1, backoff_base=0.01, chaos=chaos),
        )
        with pytest.raises(PointsExcludedError) as excinfo:
            parallel.run_points(points)
        err = excinfo.value
        assert len(err.excluded) == 1
        assert err.results == [None]
        assert "excluded after repeated failures" in str(err)
        state = replay(tmp_path / "run")
        only = next(iter(state.records.values()))
        assert only.status == "excluded"

    def test_resilient_run_without_faults_matches_plain(self, tmp_path):
        points = _points(arbiters=("fcfs",))
        parallel.configure(jobs=1, cache=False)
        clean = parallel.run_points(points)
        parallel.configure(
            jobs=1, cache=False,
            resilience=ResilienceConfig(
                run_dir=str(tmp_path / "run"), checkpoint_every=1_000),
        )
        resilient = parallel.run_points(points)
        assert asdict(resilient[0]) == asdict(clean[0])

    def test_resilient_batch_streams_to_the_live_plane(self, tmp_path):
        """The fleet is an executor of run_points: its batch registers
        on the live plane, its workers stream windows home over the
        managed feed, and every finished point is marked done."""
        from repro.telemetry.metrics import merge_snapshots
        from repro.telemetry.server import LiveRun
        live = LiveRun()
        live.begin_run("fleet")
        subscriber = live.subscribe()
        parallel.configure(
            jobs=2, cache=False, metrics=500, live=live,
            resilience=ResilienceConfig(run_dir=str(tmp_path / "run")))
        results = parallel.run_points(_points())
        health = live.health()
        assert health["points"] == {"done": 2, "total": 2}
        assert health["status"] == "finished"
        assert health["last_window_age_s"] is not None
        # Each point ran in its own process, reaped when it ended.
        assert health["workers"] == {}
        events = []
        while not subscriber.empty():
            events.append(subscriber.get_nowait())
        windows = {(payload["point"], payload["worker"])
                   for event, payload in events if event == "window"}
        assert {point for point, _ in windows} == {0, 1}
        assert os.getpid() not in {worker for _, worker in windows}
        assert [payload["point"] for event, payload in events
                if event == "point"] in ([0, 1], [1, 0])
        assert live.snapshot() == merge_snapshots(
            [result.metrics for result in results])

    def test_cacheable_points_come_from_the_cache_before_the_journal(
            self, tmp_path):
        points = [replace(point, cacheable=True) for point in _points()]

        def journaled(name):
            parallel.configure(
                jobs=1, cache=True,
                resilience=ResilienceConfig(run_dir=str(tmp_path / name)))
            return parallel.run_points(points)

        first = journaled("first")
        assert parallel.cache_stats == {"hits": 0, "misses": 2}
        second = journaled("second")
        assert parallel.cache_stats == {"hits": 2, "misses": 0}
        assert [r.ipcs for r in second] == [r.ipcs for r in first]
        assert not (tmp_path / "second" / "results").exists()

    def test_checkpoint_without_views_resumes_under_a_live_feed(
            self, tmp_path):
        """A point checkpointed by a run without views, resumed with the
        live plane on, finishes without streaming (its revived system
        has no collector) instead of failing on every attempt."""
        from repro.resilience.journal import checkpoint_path
        from repro.telemetry.server import LiveRun
        point = _points(arbiters=("vpc",))[0]
        key = parallel.cache_key(point)
        run_dir = tmp_path / "run"
        ckpt = checkpoint_path(run_dir, key)
        ckpt.parent.mkdir(parents=True)
        plain = parallel.run_point(
            point, checkpoint=Checkpointer(ckpt, 1_000, point_key=key),
            resumable=True)
        live = LiveRun()
        parallel.configure(
            jobs=1, cache=False, metrics=500, live=live,
            resilience=ResilienceConfig(run_dir=str(run_dir),
                                        checkpoint_every=1_000,
                                        max_retries=0))
        (resumed,) = parallel.run_points([point])
        assert asdict(resumed) == asdict(plain)
        assert live.health()["points"] == {"done": 1, "total": 1}


class TestCacheCorruptionSatellite:
    def test_corrupt_cache_entry_is_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        point = _points(arbiters=("vpc",))[0]
        entry = tmp_path / f"{parallel.cache_key(point)}.json"
        entry.write_text('{"cycles": 3000, "warmup_cycl')  # truncated
        assert parallel._cache_load(point) is None
        assert not entry.exists(), "corrupt entry must be deleted"

    def test_missing_entry_is_plain_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        point = _points(arbiters=("vpc",))[0]
        assert parallel._cache_load(point) is None


class TestCliCheckpointResume:
    def test_resume_without_workloads_reprints_original_run(self, tmp_path,
                                                            capsys):
        """`python -m repro --resume-checkpoint X` needs no workload
        arguments — the snapshot restores specs, labels, and topology —
        and its report is byte-identical to the uninterrupted run's."""
        from repro import cli
        ckpt = tmp_path / "run.ckpt"
        assert cli.main(["loads", "stores", "--arbiter", "vpc",
                         "--warmup", "2000", "--cycles", "4000",
                         "--checkpoint", str(ckpt),
                         "--checkpoint-every", "1500"]) == 0
        full = capsys.readouterr().out
        assert cli.main(["--resume-checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().out == full

    def test_resume_rejects_mismatched_workload_count(self, tmp_path,
                                                      capsys):
        from repro import cli
        ckpt = tmp_path / "run.ckpt"
        cli.main(["loads", "stores", "--warmup", "2000", "--cycles", "3000",
                  "--checkpoint", str(ckpt), "--checkpoint-every", "1500"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli.main(["loads", "--resume-checkpoint", str(ckpt)])

    @pytest.mark.parametrize("damage", ["stale", "missing"])
    def test_refused_checkpoint_is_a_usage_error(self, tmp_path, capsys,
                                                 damage):
        """A checkpoint the loader refuses ends the run with one usage
        line naming the file and the reason: exit 2, no traceback."""
        from repro import cli
        ckpt = tmp_path / "run.ckpt"
        if damage == "stale":
            _stale_checkpoint(ckpt, 3)
            reason = f"schema 3 != {CHECKPOINT_SCHEMA_VERSION}"
        else:
            reason = "No such file"
        with pytest.raises(SystemExit) as stopped:
            cli.main(["--resume-checkpoint", str(ckpt)])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert f"--resume-checkpoint: {ckpt}" in err and reason in err
        assert "Traceback" not in err

    def test_workloads_required_without_resume(self):
        from repro import cli
        with pytest.raises(SystemExit):
            cli.main([])


#: A checkpoint with CPI stacks, request tracing, metrics (window 500),
#: attribution and the QoS monitor attached, saved once mid-measurement
#: (cycle 4000 of 5000) by the code before the lifecycle probe logged
#: records, so its probe carries no record logs.
HELD_CHECKPOINT = Path(__file__).parent / "golden" / "views.ckpt"


class TestHeldCheckpoint:
    def test_held_checkpoint_with_views_resumes_to_a_fresh_run(self):
        """A checkpoint written by an earlier layout of the views resumes
        on this code to the ``SimulationResult``, view documents and QoS
        conformance of a fresh, uninterrupted run.  It was written by::

            PYTHONPATH=src python -m repro art mcf --arbiter vpc \\
                --warmup 2000 --cycles 3000 --metrics m.json \\
                --metrics-window 500 --cpi-stacks c.json \\
                --requests r.json --checkpoint tests/golden/views.ckpt \\
                --checkpoint-every 2000

        A layout change keeps it resuming; only a ``CACHE_VERSION`` bump
        may re-record it, with the same command."""
        from repro.experiments.parallel import PointRun
        from repro.resilience import open_checkpoint
        from repro.workloads import workload_spec

        resumed = open_checkpoint(HELD_CHECKPOINT)
        system = resumed.system
        monitor = system._probe.monitor
        result = PointRun.revive(resumed).run()
        monitor.finish(system.cycle)

        point = SimPoint(config=system.config,
                         traces=(workload_spec("art"), workload_spec("mcf")),
                         warmup=2_000, measure=3_000)
        spec = parallel.RunSpec(metrics=500, kernel=system.kernel,
                                cpi_stacks=True, requests=True)
        fresh = PointRun.build(point, spec, resumable=True, monitor=True)
        expected = fresh.run()
        for view in ("metrics", "cpi_stacks", "requests"):
            assert getattr(expected, view) is not None
        assert "attribution" in expected.metrics
        assert asdict(result) == asdict(expected)
        assert monitor.conformance() == fresh.monitor.conformance()


class TestPartialSalvage:
    """An interrupted or incomplete experiment salvages the metrics of
    its own finished points, and only those."""

    def test_other_experiments_points_are_not_salvaged(self, tmp_path):
        from repro.experiments.runner import main
        run_dir = str(tmp_path / "run")
        assert main(["fig8", "--fast", "--jobs", "2", "--run-dir", run_dir,
                     "--metrics", str(tmp_path / "m1")]) == 0
        # Every fig10 point is killed at its first checkpoint and
        # excluded; the run dir's journal still holds fig8's points.
        assert main(["fig10", "--fast", "--jobs", "2", "--run-dir", run_dir,
                     "--metrics", str(tmp_path / "m2"),
                     "--checkpoint-every", "1000", "--max-retries", "0",
                     "--chaos", "kill=1.0,seed=1,max_faults_per_point=5",
                     ]) == 3
        assert not (tmp_path / "m2" / "fig10.metrics.partial.json").exists()

    def test_interrupted_inline_batch_salvages_its_finished_point(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import main
        run_point, finished = parallel.run_point, []

        def interrupt_the_second(*args, **kwargs):
            if finished:
                raise KeyboardInterrupt
            finished.append(run_point(*args, **kwargs))
            return finished[-1]

        monkeypatch.setattr(parallel, "run_point", interrupt_the_second)
        assert main(["fig7", "--fast", "--metrics", str(tmp_path)]) == 130
        partial = json.loads(
            (tmp_path / "fig7.metrics.partial.json").read_text())
        assert partial["per_point"] == [
            json.loads(json.dumps(finished[0].metrics))]
        assert "partial metrics (1 points)" in capsys.readouterr().err


class TestLiveRunResilienceCounters:
    def test_health_reports_retries_and_exclusions(self):
        from repro.telemetry.server import LiveRun
        live = LiveRun(stale_after=5.0)
        live.begin_run("x")
        live.point_retry(0, attempt=2, error="boom")
        live.point_retry(1, attempt=1, error="boom")
        live.point_excluded(0, error="gave up")
        health = live.health()
        assert health["resilience"] == {"retries": 2, "excluded": 1}
        live.begin_run("y")
        assert live.health()["resilience"] == {"retries": 0, "excluded": 0}
