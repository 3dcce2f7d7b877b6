"""The parallel point runner: cross-process determinism and the cache.

The fan-out and the on-disk cache are only sound because a
:class:`~repro.experiments.parallel.SimPoint` simulates bit-identically
wherever and whenever it runs — seeded PRNG traces, no ambient state.
These tests pin that down, then the cache mechanics (hit/miss/write,
key sensitivity, opt-out).  The autouse conftest fixture points
``REPRO_CACHE_DIR`` at a per-test tmp directory.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import pytest

from repro.common.config import VPCAllocation, baseline_config, private_equivalent
from repro.experiments import parallel
from repro.experiments.parallel import SimPoint, run_point, run_points
from repro.telemetry import ProgressReporter, RingBufferSink, TelemetryBus
from repro.workloads import loads_trace, save_trace


@pytest.fixture(autouse=True)
def _reset_execution_policy():
    parallel.configure(jobs=1, cache=True)
    yield
    parallel.configure(jobs=1, cache=True)


def _two_thread_point(**overrides) -> SimPoint:
    params = dict(
        config=baseline_config(n_threads=2, arbiter="vpc",
                               vpc=VPCAllocation.equal(2)),
        traces=(("loads",), ("stores",)),
        warmup=500,
        measure=1_500,
    )
    params.update(overrides)
    return SimPoint(**params)


def _target_point() -> SimPoint:
    private = private_equivalent(baseline_config(n_threads=2),
                                 phi=0.5, beta=0.5)
    return SimPoint(config=private, traces=(("spec", "art"),),
                    warmup=500, measure=1_500, cacheable=True)


def test_cross_process_reproducibility():
    """A point simulated in a worker process matches the in-process run
    exactly — the seeded trace generators leave nothing to the host."""
    point = _two_thread_point()
    local = run_point(point)
    with ProcessPoolExecutor(max_workers=1) as pool:
        remote = pool.submit(run_point, point).result()
    assert remote == local


def test_tracefile_point_runs_plain_and_resumable(tmp_path):
    """A ``("tracefile", path)`` point builds its trace through the one
    spec resolver whether its cursors are plain generators or the
    picklable ones a checkpointed run uses, with equal results."""
    path = tmp_path / "loads.txt"
    save_trace(loads_trace(0), path, limit=3_000)
    point = _two_thread_point(traces=(("tracefile", str(path)),
                                      ("stores",)))
    plain = run_point(point)
    resumable = run_point(point, resumable=True)
    assert plain.instructions[0] > 0
    assert asdict(resumable) == asdict(plain)


def test_run_points_parallel_matches_serial():
    points = [
        _two_thread_point(),
        _two_thread_point(traces=(("spec", "art"), ("spec", "mcf"))),
        _target_point(),
    ]
    serial = run_points(points)
    parallel.configure(jobs=2, cache=False)
    fanned = run_points(points)
    assert fanned == serial


def test_cache_write_then_hit():
    point = _target_point()
    first = run_points([point])[0]
    assert parallel.cache_stats == {"hits": 0, "misses": 1}
    files = list(parallel.cache_dir().glob("*.json"))
    assert len(files) == 1
    second = run_points([point])[0]
    assert parallel.cache_stats == {"hits": 1, "misses": 1}
    assert second == first


def test_uncacheable_points_never_touch_disk():
    run_points([_two_thread_point()])
    assert parallel.cache_stats == {"hits": 0, "misses": 0}
    assert not parallel.cache_dir().exists()


def test_no_cache_disables_reads_and_writes():
    parallel.configure(cache=False)
    run_points([_target_point()])
    assert parallel.cache_stats == {"hits": 0, "misses": 0}
    assert not parallel.cache_dir().exists()


def test_cache_key_covers_every_field():
    base = _target_point()
    variants = [
        _two_thread_point(),
        SimPoint(config=base.config, traces=base.traces,
                 warmup=base.warmup + 1, measure=base.measure,
                 cacheable=True),
        SimPoint(config=base.config, traces=(("spec", "mcf"),),
                 warmup=base.warmup, measure=base.measure, cacheable=True),
    ]
    keys = {parallel.cache_key(p) for p in [base, *variants]}
    assert len(keys) == len(variants) + 1


def test_cache_summary_line():
    assert parallel.cache_summary() is None  # nothing ran yet
    point = _target_point()
    run_points([point])
    summary = parallel.cache_summary()
    assert "0 hits" in summary and "1 misses" in summary
    run_points([point])
    summary = parallel.cache_summary()
    assert "1 hits" in summary and "1 misses" in summary
    assert str(parallel.cache_dir()) in summary


def test_runner_summary_line_reports_cache_hits(capsys, monkeypatch):
    """The end-of-run summary of ``python -m repro.experiments`` surfaces
    the target-cache hit/miss counts accumulated across experiments."""
    from repro.experiments import runner
    from repro.experiments.base import REGISTRY, ExperimentResult

    def fake_experiment(fast=False):
        run_points([_target_point()])
        return ExperimentResult(exp_id="dummy", title="dummy",
                                headers=["x"], rows=[[1]])

    monkeypatch.setitem(REGISTRY, "dummy", fake_experiment)
    assert runner.main(["dummy", "dummy", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "target cache: 1 hits, 1 misses" in out


def test_run_experiment_attaches_manifest(monkeypatch):
    from repro.experiments import runner
    from repro.experiments.base import REGISTRY, ExperimentResult

    def fake_experiment(fast=False):
        run_points([_target_point()])
        return ExperimentResult(exp_id="dummy", title="dummy",
                                headers=["x"], rows=[[1]])

    monkeypatch.setitem(REGISTRY, "dummy", fake_experiment)
    result = runner.run_experiment("dummy", fast=True)
    manifest = result.manifest
    assert manifest is not None
    assert manifest.kernel == "batch"
    assert manifest.cache == {"hits": 0, "misses": 1}
    assert manifest.git_sha
    assert manifest.wall_time_s >= 0
    assert manifest.extra["exp_id"] == "dummy"
    assert manifest.extra["fast"] is True
    # The second run hits the cache; each manifest sees only its delta.
    assert runner.run_experiment("dummy").manifest.cache == {
        "hits": 1, "misses": 0,
    }


def test_runner_manifest_creates_its_directory(tmp_path, monkeypatch):
    """``--manifest DIR`` creates DIR, like the runner's other DIR flags,
    so a run into a fresh output directory does not fail at the end."""
    from repro.experiments import runner
    from repro.experiments.base import REGISTRY, ExperimentResult

    def fake_experiment(fast=False):
        return ExperimentResult(exp_id="dummy", title="dummy",
                                headers=["x"], rows=[[1]])

    monkeypatch.setitem(REGISTRY, "dummy", fake_experiment)
    out = tmp_path / "new" / "dir"
    assert runner.main(["dummy", "--fast", "--manifest", str(out)]) == 0
    assert (out / "dummy.manifest.json").is_file()


def test_progress_reporter_ticks_per_point():
    stream = io.StringIO()
    parallel.configure(progress=ProgressReporter(stream=stream))
    point = _target_point()
    run_points([point, _two_thread_point()])
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    assert "[1/2]" in lines[0] and "[2/2]" in lines[1]
    assert "cache 0/2 hits" in lines[1]
    # A fresh batch with a warm cache reports the hit.
    stream2 = io.StringIO()
    parallel.configure(progress=ProgressReporter(stream=stream2))
    run_points([point])
    assert "cache 1/1 hits" in stream2.getvalue()


def test_orchestration_telemetry_events():
    bus = TelemetryBus()
    ring = bus.attach(RingBufferSink())
    parallel.configure(telemetry=bus)
    point = _target_point()
    run_points([point, _two_thread_point()])
    names = sorted(event.name for event in ring)
    assert names == ["point0", "point1"]
    assert all(event.category == "run" for event in ring)
    run_points([point])
    assert [e.name for e in ring][-1] == "cache-hit"


def test_corrupt_cache_entry_falls_back_to_simulation(tmp_path):
    point = _target_point()
    expected = run_point(point)
    directory = parallel.cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{parallel.cache_key(point)}.json"
    path.write_text("{not json")
    assert run_points([point])[0] == expected
    # ... and the bad entry was repaired in passing.
    assert run_points([point])[0] == expected
    assert parallel.cache_stats["hits"] >= 1
