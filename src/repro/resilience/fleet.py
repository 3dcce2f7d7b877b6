"""Fault-tolerant experiment fleet: journaled, checkpointing, retrying.

An executor of ``repro.experiments.parallel.run_points``: its process
pool assumes workers never die; this one assumes they do.  Each point
runs in its own ``multiprocessing.Process`` — unlike a
``ProcessPoolExecutor``, one SIGKILLed worker cannot poison a shared
pool — under a per-point timeout, with bounded retries on an
exponential backoff, and exclusion (with a clear report) once a point
keeps failing.

Everything observable lands in the run directory's journal
(:mod:`repro.resilience.journal`); finished results are sidecar pickles
and mid-measurement progress is checkpointed
(:mod:`repro.resilience.snapshot`), so a re-invocation with ``--resume``
skips what is done, fast-forwards what is half-done, and re-runs only
what is missing.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.resilience.chaos import ChaosConfig, ChaosInjector
from repro.resilience.journal import (
    RunJournal,
    checkpoint_path,
    load_result,
    replay,
    result_path,
    store_result,
)
from repro.resilience.snapshot import (
    CheckpointError,
    Checkpointer,
    open_checkpoint,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Fleet policy, set once per invocation via ``parallel.configure``."""

    run_dir: str
    checkpoint_every: int = 0      # simulated cycles; 0 = no checkpoints
    point_timeout: float = 0.0     # wall seconds per attempt; 0 = none
    max_retries: int = 2           # retries per point *per invocation*
    backoff_base: float = 0.25     # seconds; doubles per retry
    chaos: Optional[ChaosConfig] = None


class FleetAborted(RuntimeError):
    """The chaos harness's simulated orchestrator crash (``abort_after``).

    Deliberately journals nothing on the way out — a real crash would
    not get to — leaving a half-done run directory for ``--resume``.
    """


class PointsExcludedError(RuntimeError):
    """Some points kept failing and were excluded from the batch.

    Carries the whole batch's ``results`` (``None`` at excluded
    positions) and the exclusion report; callers decide whether partial
    aggregates are acceptable.
    """

    def __init__(self, excluded, results, run_dir) -> None:
        lines = [
            f"{len(excluded)} point(s) excluded after repeated failures "
            f"in {run_dir}:"
        ]
        for index, key, attempts, error in excluded:
            lines.append(
                f"  point {index} ({key[:12]}): {attempts} attempt(s), "
                f"last error: {error}"
            )
        super().__init__("\n".join(lines))
        self.excluded = excluded
        self.results = results
        self.run_dir = run_dir


def _fleet_worker(point, spec, run_dir, key, index, attempt, feed,
                  feed_index, span_ctx) -> None:
    """Child-process entry: run (or resume) one point, streaming on
    ``feed`` as ``feed_index`` like a pool worker, and store its result.

    Exit code 0 with a readable sidecar is the only success signal the
    parent trusts; any exception here prints its traceback and exits 1.
    """
    try:
        run, checkpointer = _point_run(point, spec, run_dir, key, index,
                                       attempt, monitor=feed is not None)
        if run.metrics is None:
            feed = None  # revived from a checkpoint written without views
        store_result(result_path(run_dir, key),
                     run.run(feed, feed_index, checkpointer, span_ctx))
    except Exception:
        traceback.print_exc()
        sys.exit(1)


def _point_run(point, spec, run_dir, key, index, attempt, monitor):
    """The point's :class:`~repro.experiments.parallel.PointRun`, revived
    from its checkpoint when a sound one exists, and its checkpointer."""
    from repro.experiments.parallel import PointRun
    journal = RunJournal(run_dir)
    every = spec.resilience.checkpoint_every
    chaos_config = spec.resilience.chaos
    chaos = None
    if chaos_config is not None and chaos_config.armed():
        chaos = ChaosInjector(chaos_config, key, attempt)
    checkpointer = None
    ckpt = checkpoint_path(run_dir, key)
    if every:
        checkpointer = Checkpointer(ckpt, every, point_key=key, chaos=chaos)
        checkpointer.on_saved = partial(journal.checkpoint_saved, key, index)
        if ckpt.exists():
            try:
                resumed = open_checkpoint(ckpt, expect_key=key)
            except CheckpointError as exc:
                # Corrupt or foreign checkpoint: note it, remove it, and
                # start the point over — never resume from bad state.
                journal.append("checkpoint_rejected", key=key, index=index,
                               error=str(exc))
                try:
                    ckpt.unlink()
                except OSError:
                    pass
            else:
                # The views' state rode the checkpoint pickle (it lives
                # on the system), so the resumed documents equal an
                # uninterrupted run's.
                return PointRun.revive(resumed), checkpointer
    return PointRun.build(point, spec, resumable=bool(every),
                          monitor=monitor), checkpointer


class _Slot:
    """One point's scheduling state in the parent."""

    __slots__ = ("index", "key", "attempt", "tries", "not_before",
                 "span_ctx")

    def __init__(self, index: int, key: str, attempt: int) -> None:
        self.index = index
        self.key = key
        self.attempt = attempt   # global attempt counter (journal-seeded)
        self.tries = 0           # attempts made by THIS invocation
        self.not_before = 0.0    # backoff gate (monotonic seconds)
        self.span_ctx = None     # the worker's span context (all tries)


def run_points_resilient(batch, todo: Sequence[int]) -> List[Tuple]:
    """The journaled executor of ``run_points``: run the points ``todo``
    of ``batch`` (a :class:`repro.experiments.parallel.Batch`, which
    books them) and return the exclusions.

    A point finished in the run directory is booked as cached; the rest
    run process-per-point.  A worker death, hang (``point_timeout``) or
    corrupt result is retried with exponential backoff; a point failing
    ``max_retries + 1`` times this invocation is excluded.  Retries,
    exclusions, attempt spans and journal instants are booked here.
    ``KeyboardInterrupt`` kills the workers, is journaled, and re-raises.
    """
    from repro.experiments.parallel import cache_key

    spec = batch.spec
    resilience = spec.resilience
    progress, live, spans = spec.progress, spec.live, spec.spans
    run_dir = Path(resilience.run_dir)
    state = replay(run_dir)
    journal = RunJournal(run_dir)
    if spans is not None:
        from repro.telemetry.spans import (
            TRACK_JOURNAL,
            TRACK_RETRY,
            TRACK_WORKER,
        )
        journal.on_append = (
            lambda event: spans.instant(f"journal.{event}", TRACK_JOURNAL))
        spans.instant("journal-replay", TRACK_JOURNAL,
                      records=state.started, run_dir=str(run_dir))

    pending: List[_Slot] = []
    reused = 0
    for index in todo:
        key = cache_key(batch.points[index])
        prior = state.completed_result(key)
        if prior is not None:
            batch.finish(index, prior, cached=True)
            reused += 1
            continue
        attempts = state.records[key].attempts if key in state.records else 0
        pending.append(_Slot(index, key, attempts))
    journal.run_started(
        exp_id=state.exp_id or "", n_points=len(todo),
        resumed=state.started > 0, reused=reused,
    )

    slots = max(1, min(spec.jobs, len(pending)) if pending else 1)
    chaos = resilience.chaos
    abort_after = chaos.abort_after if chaos is not None else None
    timeout = resilience.point_timeout
    active = {}
    excluded = []
    finished_this_run = 0
    ctx = multiprocessing.get_context()

    def reap(proc) -> None:
        del active[proc]
        if batch.feed is not None:
            # Through the feed, behind everything the worker streamed, so
            # the live plane drops the worker after its last window.
            batch.feed.put(("reaped", proc.pid))

    def fail(slot: _Slot, span, error: str, **outcome) -> None:
        if span is not None:
            spans.end(span, **outcome)
        if slot.tries >= resilience.max_retries + 1:
            journal.point_excluded(slot.key, slot.index, slot.attempt, error)
            excluded.append((slot.index, slot.key, slot.attempt, error))
            if live is not None:
                live.point_excluded(batch.base + slot.index, error)
            if spans is not None:
                spans.instant("excluded", TRACK_RETRY, point=slot.index,
                              attempt=slot.attempt, error=error)
            if progress is not None:
                progress.point_done(cached=False)
        else:
            delay = resilience.backoff_base * (2 ** (slot.tries - 1))
            journal.point_failed(slot.key, slot.index, slot.attempt, error,
                                 retry_in=delay)
            if live is not None:
                live.point_retry(batch.base + slot.index, slot.attempt, error)
            if spans is not None:
                spans.instant("retry-backoff", TRACK_RETRY, point=slot.index,
                              attempt=slot.attempt, delay_s=delay,
                              error=error)
            slot.not_before = time.monotonic() + delay
            pending.append(slot)

    try:
        while pending or active:
            now = time.monotonic()
            while pending and len(active) < slots:
                ready = next(
                    (s for s in pending if s.not_before <= now), None)
                if ready is None:
                    break
                pending.remove(ready)
                if not ready.tries:
                    ready.span_ctx = batch.start(ready.index)
                ready.attempt += 1
                ready.tries += 1
                proc = ctx.Process(
                    target=_fleet_worker,
                    args=(batch.points[ready.index], spec, str(run_dir),
                          ready.key, ready.index, ready.attempt, batch.feed,
                          batch.base + ready.index, ready.span_ctx),
                )
                proc.start()
                journal.point_started(ready.key, ready.index, ready.attempt,
                                      worker_pid=proc.pid)
                attempt_span = None
                if spans is not None:
                    attempt_span = spans.begin(
                        f"attempt.point{ready.index}", TRACK_WORKER,
                        point=ready.index, attempt=ready.attempt,
                        worker_pid=proc.pid)
                deadline = now + timeout if timeout > 0 else None
                active[proc] = (ready, deadline, attempt_span)
            now = time.monotonic()
            for proc in list(active):
                slot, deadline, attempt_span = active[proc]
                if not proc.is_alive():
                    proc.join()
                    reap(proc)
                    if proc.exitcode == 0:
                        result = load_result(result_path(run_dir, slot.key))
                        if result is not None:
                            if spans is not None:
                                spans.end(attempt_span, outcome="finished")
                            journal.point_finished(slot.key, slot.index,
                                                   slot.attempt)
                            batch.finish(slot.index, result)
                            finished_this_run += 1
                            if (abort_after is not None
                                    and finished_this_run >= abort_after):
                                raise FleetAborted(
                                    f"chaos abort_after={abort_after} "
                                    f"reached in {run_dir}")
                            continue
                        fail(slot, attempt_span, "worker exited 0 but its "
                             "result sidecar is missing or unreadable",
                             outcome="bad-result")
                    else:
                        fail(slot, attempt_span,
                             f"worker exited with code {proc.exitcode}",
                             outcome="died", exitcode=proc.exitcode)
                elif deadline is not None and now > deadline:
                    proc.terminate()
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.kill()
                        proc.join()
                    reap(proc)
                    fail(slot, attempt_span, f"timed out after {timeout:g}s",
                         outcome="timeout")
            if pending and not active:
                gate = min(s.not_before for s in pending)
                wait = gate - time.monotonic()
                if wait > 0:
                    time.sleep(min(wait, 0.25))
                    continue
            if active:
                time.sleep(0.02)
    except BaseException as exc:
        for proc in active:
            proc.terminate()
        for proc in active:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if isinstance(exc, KeyboardInterrupt):
            journal.run_interrupted("KeyboardInterrupt")
        journal.close()
        raise
    journal.run_finished(completed=len(todo) - len(excluded),
                         excluded=len(excluded))
    journal.close()
    return excluded
