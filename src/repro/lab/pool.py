"""The worker pool: fan independent jobs out across cores, survivably.

Independent simulations are embarrassingly parallel; the pool is a
supervised process-pool front end over :func:`repro.lab.jobs.execute_job`
with the operational behaviors a long characterization run needs:

- **cache short-circuit** — the parent consults the store before
  dispatching, so warm jobs never pay a process round-trip;
- **chunked dispatch** — jobs without individual timeouts are grouped
  into chunks to amortize pickling/IPC overhead;
- **per-job timeouts with retry** — jobs with ``timeout_s`` are
  dispatched individually; the timeout clock starts when the job is
  first observed *executing*, so time spent queued behind a busy pool
  never counts against the budget, and a result whose worker-measured
  wall time exceeds the budget counts as a timeout even when it arrives
  before the watchdog's next poll; a timeout consumes one attempt from
  the spec's retry budget (resubmitted after seeded jittered backoff)
  and only degrades to a recorded failure once the budget is spent;
- **write-ahead journal** — every store-backed run appends per-job
  state transitions to ``runs/<run_id>.journal.jsonl`` *before* acting,
  so ``repro lab run --resume <run_id>`` can skip completed jobs and
  re-queue in-flight ones after a crash;
- **graceful drain** — the first SIGINT/SIGTERM stops dispatching new
  work, lets running jobs finish, journals the interruption, and still
  writes the manifest; a second signal aborts hard;
- **supervised workers** — the processes belong to a
  :class:`~repro.resilience.supervisor.Supervisor`, which fails every
  pending future with ``BrokenProcessPool`` as soon as a worker is dead
  or declared hung (heartbeats and completions silent past the
  policy's ``hang_s``);
- **graceful fallback** — ``workers=1``, a single-core box, a platform
  where process pools cannot start, or a broken pool all degrade to
  serial in-process execution (after seeded jittered backoff) with
  identical results.

Workers re-open the store read/write by root path; object writes are
atomic, so concurrent puts of the same key are benign.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.lab.jobs import (
    ExperimentJob,
    JobResult,
    JobSpec,
    JobStatus,
    execute_job,
)
from repro.lab.store import (
    CODE_SALT,
    ResultStore,
    caching_disabled,
    default_store_root,
    payload_digest,
)
from repro.lab.telemetry import RunTelemetry
from repro.obs import runtime as _obs
from repro.resilience.journal import RunJournal, load_journal
from repro.resilience.supervisor import Supervisor, WatchdogPolicy
from repro.util.rng import jittered_backoff_s

#: Chunks per worker when batching timeout-free jobs; small enough to
#: load-balance, large enough to amortize process round-trips.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: Optional[int]) -> int:
    """Worker count: explicit value, else all available cores."""
    if workers is None:
        return os.cpu_count() or 1
    return max(1, int(workers))


def _execute_chunk(
    specs: List[JobSpec], store_root: Optional[str], use_cache: bool
) -> List[JobResult]:
    """Worker-side entry point: run one chunk of jobs sequentially."""
    return [execute_job(spec, store_root, use_cache) for spec in specs]


def _chunked(items: List[Any], chunk_count: int) -> List[List[Any]]:
    if not items:
        return []
    size = max(1, (len(items) + chunk_count - 1) // chunk_count)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _count(name: str, amount: int = 1) -> None:
    """Bump a parent-side resilience counter when metrics are active."""
    metrics = _obs.current_metrics()
    if metrics is not None:
        metrics.counter(name).inc(amount)


def _timeout_failure(spec: JobSpec, key: str, attempts: int) -> JobResult:
    return JobResult(
        key=key,
        label=spec.label,
        status=JobStatus.FAILED,
        error=(
            f"TimeoutError: job exceeded its {spec.timeout_s}s budget "
            f"{attempts} time(s) (retries={spec.retries}); recorded as "
            "a failure and the run continued"
        ),
        attempts=attempts,
    )


def _interrupted_result(spec: JobSpec, key: str) -> JobResult:
    return JobResult(
        key=key,
        label=spec.label,
        status=JobStatus.INTERRUPTED,
        error=(
            "interrupted: the run drained on SIGINT/SIGTERM before this "
            "job finished; re-run with --resume to pick it up"
        ),
        attempts=0,
    )


class _PoolDegraded(Exception):
    """Internal: the pool can't continue; re-run unfinished jobs serially."""


class _GracefulDrain:
    """First SIGINT/SIGTERM drains the run; a second aborts hard.

    Installed only in the main thread (Python restricts signal handlers
    to it); elsewhere it degrades to an inert flag. ``restore`` puts the
    previous handlers back so library callers and tests see no leakage.
    """

    def __init__(self) -> None:
        self.stopped = False
        self._previous: Dict[int, Any] = {}

    def install(self) -> "_GracefulDrain":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                continue
        return self

    def _handle(self, signum, frame) -> None:
        if self.stopped:
            raise KeyboardInterrupt
        self.stopped = True

    def restore(self) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                continue
        self._previous.clear()


def _journal_result(
    journal: Optional[RunJournal], index: int, result: JobResult
) -> None:
    """Append a job's terminal journal record (no-op when unjournaled)."""
    if journal is None:
        return
    if result.status == JobStatus.FAILED:
        journal.failed(index, result.key, result.error or "", result.attempts)
    elif result.status != JobStatus.INTERRUPTED:
        journal.done(
            index,
            result.key,
            result.status,
            payload_digest(result.payload) if result.payload is not None else None,
            result.attempts,
        )


def _obs_setup(
    collect_metrics: bool,
    trace: bool,
    telemetry: RunTelemetry,
    store: Optional[ResultStore],
):
    """Enable obs pillars for one run; returns a restore callback.

    The pillars are exported through the environment so pool workers
    inherit them; per-job JSONL traces land under
    ``<store root>/runs/<run_id>-traces/``. The restore callback puts
    the ambient state back so library callers and tests see no leakage.
    """
    if not (collect_metrics or trace):
        return lambda: None
    watched = (_obs.ENV_METRICS, _obs.ENV_TRACE, _obs.ENV_TRACE_DIR)
    previous = {key: os.environ.get(key) for key in watched}
    _obs.enable_metrics()
    if trace:
        _obs.enable_tracing()
        if store is not None:
            os.environ[_obs.ENV_TRACE_DIR] = str(
                store.runs_dir / f"{telemetry.run_id}-traces"
            )

    def restore() -> None:
        _obs.reset()
        for key, value in previous.items():
            if value is not None:
                os.environ[key] = value

    return restore


def run_jobs(
    jobs: Sequence[JobSpec],
    workers: Optional[int] = None,
    store_root: Optional[Union[str, os.PathLike]] = None,
    use_cache: bool = True,
    telemetry: Optional[RunTelemetry] = None,
    write_manifest: bool = True,
    collect_metrics: bool = False,
    trace: bool = False,
    run_id: Optional[str] = None,
    resume: bool = False,
    watchdog_policy: Optional[WatchdogPolicy] = None,
) -> Tuple[List[JobResult], RunTelemetry]:
    """Run every job; returns results in job order plus the telemetry.

    A failing or timed-out job becomes a ``failed`` :class:`JobResult`;
    the batch always completes. When caching is active (the default;
    disable with ``use_cache=False`` or ``REPRO_NO_CACHE=1``) results
    are served from and written to the content-addressed store, a
    write-ahead journal and a run manifest are written under
    ``<store root>/runs/``, and the run is resumable.

    ``run_id`` pins the run's identity (otherwise random);
    ``resume=True`` replays the journal of the interrupted/crashed run
    ``run_id``: jobs journaled ``done`` are replayed from the store
    (status ``resumed``, checksum-verified), everything else re-runs.
    The merged manifest (``runs/<run_id>.merged.json``) of a resumed
    run is byte-identical to an uninterrupted run's.

    ``collect_metrics=True`` turns the metrics registry on in every
    worker; each freshly-run job's snapshot is recorded on its manifest
    row and the merged snapshot on the manifest itself (cache hits carry
    no metrics — rerun with caching off for a complete snapshot).
    Parent-side resilience counters (faults injected, quarantines,
    degradations) merge in as ``telemetry.parent_metrics``.
    ``trace=True`` additionally records per-job JSONL traces under the
    run's trace directory.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    if use_cache and caching_disabled():
        use_cache = False
    if use_cache and store_root is None:
        store_root = default_store_root()
    store = ResultStore(root=store_root) if use_cache else None
    root_arg = str(store_root) if use_cache else None

    if resume:
        if store is None:
            raise ValueError(
                "resume needs the content-addressed store; "
                "run with caching enabled"
            )
        if run_id is None:
            raise ValueError("resume requires the interrupted run's run_id")

    if telemetry is None:
        telemetry = RunTelemetry()
    if run_id is not None:
        telemetry.run_id = run_id
    telemetry.workers = workers

    prior = None
    if resume:
        _, prior = load_journal(store.runs_dir, run_id)

    restore_obs = _obs_setup(collect_metrics, trace, telemetry, store)
    drain = _GracefulDrain().install()
    journal: Optional[RunJournal] = None
    if store is not None:
        store.runs_dir.mkdir(parents=True, exist_ok=True)
        journal = RunJournal(store.runs_dir, telemetry.run_id)
        journal.run_start(len(jobs), CODE_SALT, resumed=resume)

    results: Dict[int, JobResult] = {}
    pending: List[Tuple[int, JobSpec]] = []
    try:
        # Triage in the parent: resumed jobs replay from the store,
        # warm keys never hit the pool, the rest is journaled as queued.
        for index, spec in enumerate(jobs):
            key = spec.key()
            if prior is not None and prior.classify(key) == "complete":
                payload = store.get(key)
                if payload is not None:
                    results[index] = JobResult(
                        key=key,
                        label=spec.label,
                        status=JobStatus.RESUMED,
                        payload=payload,
                        attempts=0,
                    )
                    _count("resilience.jobs_resumed_total")
                    _journal_result(journal, index, results[index])
                    continue
                # The journaled object vanished or failed verification
                # (and was quarantined): fall through and re-run it.
            if store is not None:
                payload = store.get(key)
                if payload is not None:
                    results[index] = JobResult(
                        key=key,
                        label=spec.label,
                        status=JobStatus.CACHED,
                        payload=payload,
                        cache_hit=True,
                    )
                    _journal_result(journal, index, results[index])
                    continue
            pending.append((index, spec))
            if journal is not None:
                journal.queued(index, key, spec.label)

        if pending and not drain.stopped:
            if workers <= 1:
                _run_serial(pending, root_arg, use_cache, results, drain, journal)
            else:
                try:
                    _run_parallel(
                        pending,
                        workers,
                        root_arg,
                        use_cache,
                        results,
                        drain,
                        journal,
                        watchdog_policy or WatchdogPolicy(),
                    )
                except _PoolDegraded:
                    _count("resilience.pool_degradations_total")
                    time.sleep(
                        jittered_backoff_s(0.05, 0, telemetry.run_id, "degrade")
                    )
                    # _run_serial skips the jobs the pool already finished.
                    _run_serial(pending, root_arg, use_cache, results, drain, journal)
                except (OSError, ValueError, RuntimeError, NotImplementedError):
                    # Process pools can be unavailable (no /dev/shm, seccomp,
                    # missing semaphores); the jobs still run, just serially.
                    _run_serial(pending, root_arg, use_cache, results, drain, journal)

        for index, spec in pending:
            if index not in results:
                results[index] = _interrupted_result(spec, spec.key())
        if drain.stopped:
            telemetry.interrupted = True
            _count("resilience.runs_interrupted_total")
            if journal is not None:
                journal.interrupted()
    finally:
        telemetry.parent_metrics = _obs.drain_metrics()
        restore_obs()
        drain.restore()

    ordered = [results[i] for i in range(len(jobs))]
    for result in ordered:
        telemetry.record(result)
    telemetry.finish()
    if journal is not None:
        journal.run_end(ok=telemetry.ok + telemetry.resumed + telemetry.cached,
                        failed=telemetry.failed)
        journal.close()
    if store is not None and write_manifest:
        telemetry.write_manifest(store)
        telemetry.write_merged(store)
    return ordered, telemetry


def _charge_timeout(
    spec: JobSpec, timeouts: int, drain: _GracefulDrain
) -> Optional[JobResult]:
    """Charge a job its ``timeouts``-th timeout.

    The timeout consumes one attempt from the retry budget: while
    budget remains this sleeps a seeded jittered backoff and returns
    None (the caller retries), otherwise it returns the timeout
    failure to record.
    """
    _count("resilience.job_timeouts_total")
    if timeouts > spec.retries or drain.stopped:
        return _timeout_failure(spec, spec.key(), timeouts)
    _count("resilience.timeout_retries_total")
    time.sleep(
        jittered_backoff_s(spec.backoff_s, timeouts - 1, spec.key(), "timeout")
    )
    return None


def _run_serial(
    pending: List[Tuple[int, JobSpec]],
    store_root: Optional[str],
    use_cache: bool,
    results: Dict[int, JobResult],
    drain: _GracefulDrain,
    journal: Optional[RunJournal],
) -> None:
    """Run jobs in-process, honoring the drain flag between jobs.

    An in-process job cannot be cut short, so a timed job is judged
    after the fact, as the pool judges a result that beat its sweep: a
    worker-measured ``wall_s`` past ``timeout_s`` is a timeout.
    """
    for index, spec in pending:
        if drain.stopped:
            return
        if index in results:
            continue
        timeouts = 0
        while True:
            if journal is not None:
                journal.started(index, spec.key())
            result = execute_job(spec, store_root, use_cache)
            if spec.timeout_s is None or result.wall_s <= spec.timeout_s:
                result.attempts += timeouts
                break
            timeouts += 1
            failure = _charge_timeout(spec, timeouts, drain)
            if failure is not None:
                result = failure
                break
        results[index] = result
        _journal_result(journal, index, result)


@dataclass
class _Flight:
    """One in-flight future: which jobs it carries and its clocks."""

    indices: List[int]
    specs: List[JobSpec]
    timed: bool = False
    #: Parent-side timeout count for timed flights (consumes retries).
    timeouts: int = 0
    #: Wall-clock start of the current attempt, read from the worker's
    #: start stamp; None until the worker reports the job executing, so
    #: queue wait behind a busy pool never counts against ``timeout_s``
    #: (with default retries=0, a submit-time clock would cancel queued
    #: jobs that never got to execute at all). ``Future.running()``
    #: cannot stand in for the stamp — the executor flips futures to
    #: running when they enter the IPC call queue, ahead of execution.
    started_at: Optional[float] = None


def _run_parallel(
    pending: List[Tuple[int, JobSpec]],
    workers: int,
    store_root: Optional[str],
    use_cache: bool,
    results: Dict[int, JobResult],
    drain: _GracefulDrain,
    journal: Optional[RunJournal],
    policy: WatchdogPolicy,
) -> None:
    """Dispatch pending jobs across a supervised pool, filling ``results``.

    Raises :class:`_PoolDegraded` when the pool cannot make progress
    (worker death, declared hang) — the caller re-runs whatever is
    missing from ``results`` serially.
    """
    with_timeout = [(i, s) for i, s in pending if s.timeout_s is not None]
    without_timeout = [(i, s) for i, s in pending if s.timeout_s is None]
    max_workers = min(workers, max(1, len(pending)))
    hb_root = Path(tempfile.mkdtemp(prefix="repro-heartbeats-"))
    supervisor = Supervisor(max_workers, hb_root, policy)
    flights: Dict[Any, _Flight] = {}

    def time_out(flight: _Flight) -> None:
        """Charge one timeout to a timed flight already out of ``flights``.

        See :func:`_charge_timeout`; a retry is resubmitted to the pool.
        """
        spec = flight.specs[0]
        index = flight.indices[0]
        flight.timeouts += 1
        failure = _charge_timeout(spec, flight.timeouts, drain)
        if failure is not None:
            results[index] = failure
            _journal_result(journal, index, failure)
            return
        if journal is not None:
            journal.started(index, spec.key())
        # Drop the abandoned attempt's stamp so the retry's clock arms
        # from *its* execution start, not this one's.
        supervisor.heartbeats.clear_start(spec.key())
        retry, _ = supervisor.submit(execute_job, spec, store_root, use_cache)
        flights[retry] = _Flight(
            indices=[index], specs=[spec], timed=True, timeouts=flight.timeouts
        )

    try:
        for chunk in _chunked(without_timeout, max_workers * _CHUNKS_PER_WORKER):
            specs = [spec for _, spec in chunk]
            indices = [index for index, _ in chunk]
            if journal is not None:
                for index, spec in chunk:
                    journal.started(index, spec.key())
            future, _ = supervisor.submit(
                _execute_chunk, specs, store_root, use_cache
            )
            flights[future] = _Flight(indices=indices, specs=specs)
        for index, spec in with_timeout:
            if journal is not None:
                journal.started(index, spec.key())
            future, _ = supervisor.submit(execute_job, spec, store_root, use_cache)
            flights[future] = _Flight(indices=[index], specs=[spec], timed=True)

        drained = False
        while flights:
            done_set, _ = wait(
                set(flights), timeout=policy.poll_s, return_when=FIRST_COMPLETED
            )
            for future in done_set:
                flight = flights.pop(future)
                try:
                    outcome = future.result()
                except CancelledError:
                    continue  # drained before start; swept as interrupted
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    # execute_job never raises; this future came back
                    # broken (worker died mid-task, unpicklable result).
                    raise _PoolDegraded(
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                if flight.timed:
                    result = outcome
                    if result.wall_s > flight.specs[0].timeout_s:
                        # Finished, but past its budget: the sweep only
                        # looks once per poll, so a result can beat it.
                        time_out(flight)
                        continue
                    result.attempts += flight.timeouts
                    results[flight.indices[0]] = result
                    _journal_result(journal, flight.indices[0], result)
                else:
                    for index, result in zip(flight.indices, outcome):
                        results[index] = result
                        _journal_result(journal, index, result)

            if drain.stopped and not drained:
                drained = True
                for future in list(flights):
                    if future.cancel():
                        # Never started; the caller sweeps its jobs up
                        # as interrupted.
                        flights.pop(future)

            for future, flight in list(flights.items()):
                if not flight.timed:
                    continue
                if future.done():
                    # Completed between the wait() sweep and this check;
                    # the next wait() harvests it and judges it by its
                    # worker-measured wall time.
                    continue
                spec = flight.specs[0]
                if flight.started_at is None:
                    flight.started_at = supervisor.heartbeats.job_started_at(spec.key())
                    if flight.started_at is None:
                        continue  # still queued; the clock starts with execution
                if time.time() - flight.started_at < (spec.timeout_s or 0.0):
                    continue
                flights.pop(future)
                # Already running when cancel() fails: the attempt is
                # abandoned, and the supervisor kills its worker at
                # teardown instead of blocking on it.
                future.cancel()
                time_out(flight)
    except BrokenProcessPool as exc:
        if supervisor.hangs:
            _count("resilience.hung_workers_total", supervisor.workers)
        else:
            _count("resilience.worker_deaths_total")
        raise _PoolDegraded(f"worker pool broke: {exc}") from exc
    finally:
        supervisor.close()
        shutil.rmtree(hb_root, ignore_errors=True)


def run_experiments(
    experiment_ids: Sequence[str],
    workers: Optional[int] = None,
    store_root: Optional[Union[str, os.PathLike]] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    collect_metrics: bool = False,
    trace: bool = False,
    run_id: Optional[str] = None,
    resume: bool = False,
    watchdog_policy: Optional[WatchdogPolicy] = None,
) -> Tuple[List[Optional[Any]], RunTelemetry]:
    """Run registered experiments through the lab.

    Returns one decoded
    :class:`~repro.harness.experiment.ExperimentResult` per id (None
    for a failed or interrupted experiment — inspect
    ``telemetry.failures()``), plus the run telemetry. ``run_id``,
    ``resume``, and ``watchdog_policy`` thread straight through to
    :func:`run_jobs`.
    """
    jobs = [
        ExperimentJob(
            experiment_id=experiment_id, timeout_s=timeout_s, retries=retries
        )
        for experiment_id in experiment_ids
    ]
    job_results, telemetry = run_jobs(
        jobs,
        workers=workers,
        store_root=store_root,
        use_cache=use_cache,
        collect_metrics=collect_metrics,
        trace=trace,
        run_id=run_id,
        resume=resume,
        watchdog_policy=watchdog_policy,
    )
    decoded: List[Optional[Any]] = []
    for spec, result in zip(jobs, job_results):
        decoded.append(result.value(spec) if result.ok else None)
    return decoded, telemetry


__all__ = ["resolve_workers", "run_experiments", "run_jobs"]
