"""repro.lab — parallel experiment execution with a persistent result store.

The lab is the execution layer every experiment and sweep runs through:

- :mod:`repro.lab.store` — a content-addressed on-disk result store
  (compressed, checksummed binary objects under ``.repro-cache/``)
  keyed by a stable hash of the machine configuration, the workload
  identity, and a code-version salt, with hit/miss/eviction accounting.
- :mod:`repro.lab.jobs` — declarative :class:`SimJob` /
  :class:`ExperimentJob` / :class:`SweepJob` specs with per-job
  timeout, bounded retry with backoff, and error capture.
- :mod:`repro.lab.pool` — fans independent jobs across cores on the
  :class:`repro.resilience.supervisor.Supervisor` worker pool, with a
  write-ahead run journal (``--resume``), graceful SIGINT/SIGTERM
  draining, and degradation to serial execution when ``workers=1``,
  the platform cannot fork, or workers die/hang.
- :mod:`repro.lab.telemetry` — per-job wall-time / cache-hit / retry
  counters, the run manifest written next to the results, and the
  canonical merged manifest behind the byte-identical resume guarantee.

Store objects are checksummed on write and verified on read; corrupt
objects are quarantined (see :mod:`repro.resilience` and
``repro lab fsck``). Degradation paths are testable via deterministic
fault injection (``REPRO_FAULTS=...``).

Typical use::

    from repro.lab import run_experiments
    results, telemetry = run_experiments(["f2", "f3"], workers=4)
"""

from repro.lab.codec import (
    experiment_from_payload,
    experiment_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.lab.jobs import (
    ExperimentJob,
    JobResult,
    JobSpec,
    JobStatus,
    SimJob,
    SweepJob,
    execute_job,
)
from repro.lab.pool import run_experiments, run_jobs
from repro.lab.store import (
    CODE_SALT,
    ResultStore,
    StoreStats,
    canonical_config,
    config_digest,
    default_store_root,
    job_key,
    payload_digest,
    verify_object_bytes,
)
from repro.lab.telemetry import JobRecord, RunTelemetry

__all__ = [
    "CODE_SALT",
    "ExperimentJob",
    "JobRecord",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "ResultStore",
    "RunTelemetry",
    "SimJob",
    "StoreStats",
    "SweepJob",
    "canonical_config",
    "config_digest",
    "default_store_root",
    "execute_job",
    "experiment_from_payload",
    "experiment_to_payload",
    "job_key",
    "payload_digest",
    "result_from_payload",
    "result_to_payload",
    "run_experiments",
    "run_jobs",
    "verify_object_bytes",
]
