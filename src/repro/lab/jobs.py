"""Declarative job specs and the single-job execution engine.

A job is a picklable description of one unit of work — *what* to run,
never *how*. The same spec hashes to the same store key on every
machine, which is what makes results content-addressable:

- :class:`SimJob` — simulate one workload under one configuration
  (out-of-order or in-order core).
- :class:`ExperimentJob` — run one registered experiment (t1..f21).
- :class:`SweepJob` — a one-dimensional parameter sweep that expands
  into :class:`SimJob` points.

:func:`execute_job` is the engine the pool's workers call: store
lookup, bounded retry with exponential backoff, error capture (a
failing job degrades to a recorded failure, never an exception), and
wall-time accounting. It is a module-level function so it pickles by
reference into worker processes.
"""

from __future__ import annotations

import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.lab import codec
from repro.obs import context as _obs_context
from repro.lab.store import ResultStore, config_digest, job_key
from repro.obs import runtime as _obs
from repro.pipeline.config import CoreConfig
from repro.resilience import deadline as _deadline
from repro.resilience import faults
from repro.resilience.watchdog import (
    claim_job,
    stamp_job_start,
    worker_checkpoint,
)
from repro.util.rng import jittered_backoff_s
from repro.util.timing import Stopwatch

#: Job lifecycle states recorded in results and manifests.
class JobStatus:
    OK = "ok"
    CACHED = "cached"
    #: Completed in an earlier (crashed/interrupted) run of the same
    #: run-id; payload re-read from the store during ``--resume``.
    RESUMED = "resumed"
    FAILED = "failed"
    #: Not finished because the run drained on SIGINT/SIGTERM; the
    #: journal re-queues it on ``--resume``.
    INTERRUPTED = "interrupted"
    #: Dropped unexecuted: its deadline had already passed when a
    #: worker dequeued it (serve's dead-work cancellation — the client
    #: stopped listening, so running it would only burn a pool slot).
    EXPIRED = "expired"


@dataclass(frozen=True)
class JobSpec:
    """Base spec: identity plus failure policy.

    ``timeout_s`` bounds one attempt's wall time (enforced by the pool
    when running in worker processes; best-effort in serial mode).
    ``retries`` is the number of *additional* attempts after the first;
    ``backoff_s`` doubles per retry.
    """

    label: str = ""
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.05

    def key(self) -> str:
        raise NotImplementedError

    def execute(self) -> Any:
        """Do the work; returns a codec-encodable value."""
        raise NotImplementedError

    def decode(self, payload: Dict[str, Any]) -> Any:
        """Rebuild the rich result object from a stored payload."""
        return codec.value_from_payload(payload)


@dataclass(frozen=True)
class SimJob(JobSpec):
    """Simulate one suite workload under one configuration."""

    workload: str = ""
    length: int = 60_000
    seed: int = 2006
    config: CoreConfig = field(default_factory=CoreConfig)
    core: str = "ooo"  # "ooo" | "inorder"

    def __post_init__(self) -> None:
        if self.core not in ("ooo", "inorder"):
            raise ValueError(f"core must be 'ooo' or 'inorder', got {self.core!r}")
        if not self.workload:
            raise ValueError("SimJob needs a workload name")
        if not self.label:
            object.__setattr__(
                self, "label", f"sim:{self.core}:{self.workload}"
            )

    def key(self) -> str:
        return job_key(
            kind=f"sim-{self.core}",
            workload=self.workload,
            length=self.length,
            seed=self.seed,
            config=self.config,
        )

    def execute(self) -> Any:
        # Imported here so job specs stay cheap to pickle and the
        # simulator is only loaded inside the process that runs them.
        from repro.harness.runner import build_workload_trace

        trace = build_workload_trace(self.workload, self.length, self.seed)
        if self.core == "inorder":
            from repro.pipeline.inorder import simulate_inorder

            return simulate_inorder(trace, self.config)
        from repro.pipeline.core import simulate

        return simulate(trace, self.config)


@dataclass(frozen=True)
class BatchSimJob(JobSpec):
    """Simulate one workload under N configurations at once.

    One job, one trace, N :class:`SimulationResult`s from
    :func:`repro.perf.batchcore.run_batch`, each field-exact equal to a
    :class:`SimJob` of the same point. The key is its own
    (``sim-batch``, hashing every config digest, so reordering or
    editing any point re-addresses the whole batch) and the N results
    are stored as one ``simulation_batch`` payload: batched and
    per-point runs do not share store entries.
    """

    workload: str = ""
    length: int = 60_000
    seed: int = 2006
    configs: Tuple[CoreConfig, ...] = ()

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("BatchSimJob needs a workload name")
        if not self.configs:
            raise ValueError("BatchSimJob needs at least one config")
        object.__setattr__(self, "configs", tuple(self.configs))
        if not self.label:
            object.__setattr__(
                self,
                "label",
                f"batch:{self.workload}:{len(self.configs)}cfg",
            )

    def key(self) -> str:
        return job_key(
            kind="sim-batch",
            workload=self.workload,
            length=self.length,
            seed=self.seed,
            config=self.configs[0],
            extra={"configs": [config_digest(c) for c in self.configs]},
        )

    def execute(self) -> Any:
        from repro.harness.runner import build_workload_trace
        from repro.perf.batchcore import run_batch

        trace = build_workload_trace(self.workload, self.length, self.seed)
        return run_batch(trace, list(self.configs))


@dataclass(frozen=True)
class ExperimentJob(JobSpec):
    """Run one registered experiment (``t1``..``t3``, ``f1``..``f21``)."""

    experiment_id: str = ""

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ValueError("ExperimentJob needs an experiment id")
        if not self.label:
            object.__setattr__(self, "label", f"exp:{self.experiment_id}")

    def key(self) -> str:
        # Experiments bake in their own workloads/lengths/seeds; the
        # baseline config plus the id (in ``extra``) addresses them.
        from repro.harness.runner import DEFAULT_LENGTH, DEFAULT_SEED

        return job_key(
            kind="experiment",
            workload="suite",
            length=DEFAULT_LENGTH,
            seed=DEFAULT_SEED,
            config=CoreConfig(),
            extra={"experiment_id": self.experiment_id.lower()},
        )

    def execute(self) -> Any:
        from repro.harness.experiments import run_experiment

        return run_experiment(self.experiment_id)


@dataclass(frozen=True)
class SweepJob:
    """A one-dimensional sweep declared as data.

    ``parameter`` must be a :class:`CoreConfig` field name; each value
    in ``values`` yields one :class:`SimJob` with that field overridden
    on ``base_config``. Expansion is eager and deterministic so the
    whole sweep is content-addressed point by point.
    """

    parameter: str
    values: Sequence[Any]
    workload: str
    length: int = 60_000
    seed: int = 2006
    base_config: CoreConfig = field(default_factory=CoreConfig)
    core: str = "ooo"
    timeout_s: Optional[float] = None
    retries: int = 0

    def expand(self) -> List[SimJob]:
        jobs = []
        for value in self.values:
            config = self.base_config.with_overrides(**{self.parameter: value})
            jobs.append(
                SimJob(
                    label=f"sweep:{self.workload}:{self.parameter}={value}",
                    workload=self.workload,
                    length=self.length,
                    seed=self.seed,
                    config=config,
                    core=self.core,
                    timeout_s=self.timeout_s,
                    retries=self.retries,
                )
            )
        return jobs

    def expand_batched(self, batch_size: int = 8) -> List[BatchSimJob]:
        """Expansion into lockstep batches instead of scalar points.

        Values are chunked in declaration order into
        :class:`BatchSimJob`s of at most ``batch_size`` configs. Only
        meaningful for the out-of-order core (the batched kernel models
        it alone); the in-order core raises so a sweep never silently
        simulates the wrong machine.
        """
        if self.core != "ooo":
            raise ValueError(
                f"batched expansion only supports the 'ooo' core, "
                f"got {self.core!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        jobs = []
        values = list(self.values)
        for lo in range(0, len(values), batch_size):
            chunk = values[lo : lo + batch_size]
            configs = tuple(
                self.base_config.with_overrides(**{self.parameter: value})
                for value in chunk
            )
            jobs.append(
                BatchSimJob(
                    label=(
                        f"sweep:{self.workload}:{self.parameter}="
                        f"{chunk[0]}..{chunk[-1]}"
                    ),
                    workload=self.workload,
                    length=self.length,
                    seed=self.seed,
                    configs=configs,
                    timeout_s=self.timeout_s,
                    retries=self.retries,
                )
            )
        return jobs


@dataclass
class JobResult:
    """Outcome of one job: status, payload, and accounting.

    ``payload`` is the stored JSON form (decode with
    ``spec.decode(payload)``); on failure it is None and ``error``
    carries the formatted traceback of the final attempt.
    """

    key: str
    label: str
    status: str
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    wall_s: float = 0.0
    cache_hit: bool = False
    #: Sanitizer report payload (``REPRO_SANITIZE=1`` runs only; None
    #: when sanitizing was off or the result came from the store).
    sanitizer: Optional[Dict[str, Any]] = None
    #: Metrics snapshot drained after the job ran (``REPRO_METRICS=1``
    #: runs only; None when metrics were off or the result was cached).
    metrics: Optional[Dict[str, Any]] = None
    #: Path of the per-job JSONL trace, when tracing was on and
    #: ``REPRO_TRACE_DIR`` named a directory to write it into.
    trace_file: Optional[str] = None
    #: Request-scoped spans recorded in the worker when the submitter
    #: passed a ``trace_ctx`` (serve requests); the service absorbs
    #: them into the request's cross-process span tree.
    spans: Optional[List[Dict[str, Any]]] = None

    @property
    def ok(self) -> bool:
        return self.status in (
            JobStatus.OK, JobStatus.CACHED, JobStatus.RESUMED
        )

    def value(self, spec: JobSpec) -> Any:
        if self.payload is None:
            raise RuntimeError(
                f"job {self.label} has no payload (status={self.status})"
            )
        return spec.decode(self.payload)


def _attempt_with_retries(spec: JobSpec) -> Tuple[Any, int]:
    """Run ``spec.execute`` with bounded retry; returns (value, attempts).

    Backoff is exponential with seeded jitter
    (:func:`repro.util.rng.jittered_backoff_s`, keyed by the job's
    content address and the attempt number): pool workers that fail
    simultaneously — e.g. a shared-disk hiccup — retry staggered
    instead of in lockstep, with no wall-clock entropy, so results stay
    byte-deterministic. The ``job.execute`` fault site fires once per
    *attempt*, which is what makes the retry path unit-testable:
    ``job.execute:raise@1`` fails the first attempt and lets the retry
    succeed.
    """
    attempts = 0
    key = spec.key()
    while True:
        attempts += 1
        try:
            faults.fault_point("job.execute")
            return spec.execute(), attempts
        except Exception:
            if attempts > spec.retries:
                raise
            time.sleep(jittered_backoff_s(spec.backoff_s, attempts - 1, key))


def _write_job_trace(spec: JobSpec, key: str) -> Optional[str]:
    """Drain the ambient tracer into a per-job JSONL file, if configured.

    Workers inherit ``REPRO_TRACE`` / ``REPRO_TRACE_DIR`` from the
    parent; each job's spans land in their own file so traces from jobs
    sharing a worker process never interleave.
    """
    tracer = _obs.drain_trace()
    directory = _obs.trace_dir()
    if tracer is None or directory is None:
        return None
    from repro.obs.export import write_jsonl

    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._=-]+", "_", spec.label) or "job"
    path = target_dir / f"{safe}-{key[:8]}.jsonl"
    write_jsonl(tracer, path)
    return str(path)


def execute_job(
    spec: JobSpec,
    store_root: Optional[str] = None,
    use_cache: bool = True,
    trace_ctx: Optional[Dict[str, str]] = None,
    deadline_ns: Optional[int] = None,
) -> JobResult:
    """Run one job end to end: store lookup, retries, error capture.

    Never raises for job failures — the exception is recorded in the
    returned :class:`JobResult` so a sweep's other points survive.
    Runs identically in the parent (serial mode) and in pool workers;
    in a marked worker process the checkpoint below also writes the
    watchdog heartbeat and arms the ``pool.worker`` fault site.

    ``trace_ctx`` (``{"trace_id": ..., "parent_span": ...}``) joins
    this execution to a serve request's distributed trace: the context
    arrives as an argument (workers outlive requests, so parent env
    mutation cannot reach them), is re-exported to this process's
    environment + contextvar for the duration of the job — the same
    ambient pattern the obs pillars use — and the recorded spans ride
    home on ``JobResult.spans``.

    ``deadline_ns`` (absolute monotonic, see
    :mod:`repro.resilience.deadline`) is checked *before* any work:
    expired jobs come back :data:`JobStatus.EXPIRED` without touching
    the store or the simulator — the dequeue-time dead-work drop that
    keeps a backlogged shard from burning slots on requests nobody is
    waiting for. While a live job runs, the deadline is re-exported to
    ``REPRO_DEADLINE_NS`` (same ambient pattern as the trace context).
    """
    if deadline_ns is not None and _deadline.expired(deadline_ns):
        return JobResult(
            key=spec.key(),
            label=spec.label,
            status=JobStatus.EXPIRED,
            error="deadline expired before execution (dropped at dequeue)",
            attempts=0,
            wall_s=0.0,
        )
    if trace_ctx is None or not trace_ctx.get("trace_id"):
        return _execute_job_impl(spec, store_root, use_cache,
                                 deadline_ns=deadline_ns)
    from repro.obs import context as obs_context
    from repro.obs.spans import SpanCollector

    # Namespace this worker's span ids under the dispatch span that
    # submitted the job: worker ids must never alias the service
    # collector's ids once absorbed (parent edges resolve by id), and
    # deriving the prefix from the parent keeps exports deterministic.
    parent = trace_ctx.get("parent_span")
    collector = SpanCollector(
        process="worker", id_prefix=f"{parent}." if parent else "w."
    )
    span = collector.start(
        "worker_execute",
        trace_id=str(trace_ctx["trace_id"]),
        parent_id=parent,
        label=spec.label,
    )
    ctx = obs_context.TraceContext(span.trace_id, span.span_id)
    tokens = obs_context.activate(ctx, collector)
    obs_context.export_env(ctx)
    try:
        result = _execute_job_impl(spec, store_root, use_cache,
                                   deadline_ns=deadline_ns)
    except BaseException:
        # execute_job's contract is never-raises for job failures, so
        # this is teardown (SIGTERM, interpreter exit): close the span
        # rather than leave it dangling, then let the signal go.
        collector.finish(span, status="aborted")
        raise
    finally:
        obs_context.deactivate(tokens)
        obs_context.clear_env()
    collector.finish(
        span,
        status="ok" if result.ok else "error",
        job_status=result.status,
        attempts=result.attempts,
    )
    result.spans = collector.drain()
    return result


def _execute_job_impl(
    spec: JobSpec,
    store_root: Optional[str] = None,
    use_cache: bool = True,
    deadline_ns: Optional[int] = None,
) -> JobResult:
    worker_checkpoint(spec.label)
    key = spec.key()
    claim_job(key)
    if deadline_ns is not None:
        _deadline.export_env(deadline_ns)
    try:
        return _execute_claimed_job(spec, store_root, use_cache, key)
    finally:
        if deadline_ns is not None:
            _deadline.clear_env()


def _execute_claimed_job(
    spec: JobSpec,
    store_root: Optional[str],
    use_cache: bool,
    key: str,
) -> JobResult:
    if spec.timeout_s is not None:
        # Tell the pool this attempt is executing *now*: its timeout
        # clock arms from this stamp, not from submit time, so queue
        # wait behind a busy pool never counts against the budget.
        stamp_job_start(key)
    watch = Stopwatch()
    # Ambient request-scoped collector (serve jobs only; None for batch
    # runs) — store reads/writes below are recorded as child spans.
    collector = _obs_context.current_collector()
    ctx = _obs_context.current_context() if collector is not None else None
    store = None
    if use_cache and store_root is not None:
        store = ResultStore(root=store_root)
        if collector is not None and ctx is not None:
            t0 = collector.now()
            payload = store.get(key)
            collector.add_complete(
                "store_get",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                start_ns=t0,
                hit=payload is not None,
            )
        else:
            payload = store.get(key)
        if payload is not None:
            return JobResult(
                key=key,
                label=spec.label,
                status=JobStatus.CACHED,
                payload=payload,
                attempts=0,
                wall_s=watch.elapsed,
                cache_hit=True,
            )
    # Start this job's sanitizer/obs windows clean so data from a
    # previous job in the same worker never bleeds into this one.
    _sanitizer.drain_report()
    _obs.drain_metrics()
    _obs.drain_trace()
    from repro.harness.runner import job_store

    try:
        # The harness's simulations go to this job's store (or none).
        with job_store(store.root if store is not None else None):
            value, attempts = _attempt_with_retries(spec)
    except Exception:
        report = _sanitizer.drain_report()
        snapshot = _obs.drain_metrics()
        trace_file = _write_job_trace(spec, key)
        return JobResult(
            key=key,
            label=spec.label,
            status=JobStatus.FAILED,
            error=traceback.format_exc(),
            attempts=spec.retries + 1,
            wall_s=watch.elapsed,
            sanitizer=report.as_payload() if report else None,
            metrics=snapshot,
            trace_file=trace_file,
        )
    payload = codec.payload_from_value(value)
    if store is not None:
        try:
            if collector is not None and ctx is not None:
                t0 = collector.now()
                store.put(key, payload, meta={"label": spec.label})
                collector.add_complete(
                    "store_put",
                    trace_id=ctx.trace_id,
                    parent_id=ctx.span_id,
                    start_ns=t0,
                )
            else:
                store.put(key, payload, meta={"label": spec.label})
        except Exception:
            # The result is good; a failed cache write (disk full, an
            # injected store.write fault) must not fail the job or —
            # in serial mode — abort the whole batch. The job comes
            # back OK-but-unstored and simply re-runs if ever resumed.
            metrics = _obs.current_metrics()
            if metrics is not None:
                metrics.counter(
                    "resilience.store_put_failures_total"
                ).inc()
    report = _sanitizer.drain_report()
    snapshot = _obs.drain_metrics()
    trace_file = _write_job_trace(spec, key)
    return JobResult(
        key=key,
        label=spec.label,
        status=JobStatus.OK,
        payload=payload,
        attempts=attempts,
        wall_s=watch.elapsed,
        sanitizer=report.as_payload() if report else None,
        metrics=snapshot,
        trace_file=trace_file,
    )


__all__ = [
    "BatchSimJob",
    "ExperimentJob",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "SimJob",
    "SweepJob",
    "execute_job",
]
