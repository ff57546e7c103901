"""Chaos suite: the pool under injected timeouts, kills, hangs, signals."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lab import ResultStore, SimJob, run_jobs
from repro.lab.jobs import JobStatus
from repro.resilience import faults
from repro.resilience.watchdog import WatchdogPolicy
from repro.util.rng import jittered_backoff_s


def _jobs(n=3, length=400, **kwargs):
    workloads = ["gzip", "twolf", "vpr", "gcc", "mcf"]
    return [
        SimJob(workload=workloads[i % len(workloads)], length=length,
               seed=100 + i, **kwargs)
        for i in range(n)
    ]


class TestJitteredBackoff:
    def test_deterministic_per_key_and_attempt(self):
        a = jittered_backoff_s(0.1, 0, "job-key")
        assert a == jittered_backoff_s(0.1, 0, "job-key")
        assert a != jittered_backoff_s(0.1, 0, "other-key")
        assert a != jittered_backoff_s(0.1, 1, "job-key")

    def test_exponential_envelope(self):
        for attempt in range(4):
            value = jittered_backoff_s(0.1, attempt, "k")
            assert 0.05 * 2 ** attempt <= value < 0.15 * 2 ** attempt

    def test_zero_base_is_zero(self):
        assert jittered_backoff_s(0.0, 3, "k") == 0.0


class TestRetries:
    def test_injected_failure_consumes_retry_then_succeeds(self, tmp_path):
        job = SimJob(workload="gzip", length=400, retries=1, backoff_s=0.0)
        with faults.injected("job.execute:raise@1"):
            results, telemetry = run_jobs([job], workers=1,
                                          store_root=tmp_path)
        assert results[0].status == JobStatus.OK
        assert results[0].attempts == 2
        assert telemetry.retries == 1

    def test_timeout_consumes_retry_budget(self, tmp_path):
        """Regression: a timed-out job must retry, not fail instantly.

        The job can never finish inside 1 ms, so every attempt times
        out — the failure must record retries+1 attempts, proving the
        timeout went through the retry budget instead of bypassing it.
        Each attempt is also delayed past the watchdog poll by an
        injected fault, so this pins the sweep's path, which cancels a
        still-running attempt (the harvest-time wall check is pinned by
        the test below).
        Caching is off because an abandoned attempt that completes in
        the background would otherwise store its result and let a later
        retry come back ``cached`` (legitimate salvage, but not the
        path under test).
        """
        job = SimJob(workload="twolf", length=60_000, seed=9,
                     timeout_s=0.001, retries=2, backoff_s=0.01)
        with faults.injected("job.execute:delay(1.0)@1x*"):
            results, _ = run_jobs([job], workers=2, use_cache=False)
        assert results[0].status == JobStatus.FAILED
        assert results[0].attempts == 3
        assert "Timeout" in results[0].error

    def test_result_past_its_budget_is_a_timeout(self):
        """Regression: a timed job whose result beats the watchdog's
        poll still times out when its worker-measured wall time is over
        budget; with no injected delay the simulation finishes well
        inside one poll, yet every attempt exceeds 1 ms."""
        job = SimJob(workload="twolf", length=60_000, seed=9,
                     timeout_s=0.001, retries=2, backoff_s=0.01)
        results, _ = run_jobs([job], workers=2, use_cache=False)
        assert results[0].status == JobStatus.FAILED
        assert results[0].attempts == 3
        assert "Timeout" in results[0].error

    def test_timeout_retry_can_succeed(self, tmp_path):
        """A generous timeout on retry lets the job complete."""
        # First attempt gets an impossible budget only if we injected a
        # delay; here the budget is sane and the job just passes —
        # asserting the retry path doesn't break the success path.
        job = SimJob(workload="gzip", length=400, timeout_s=30.0, retries=2)
        results, _ = run_jobs([job], workers=2, store_root=tmp_path)
        assert results[0].status == JobStatus.OK

    @pytest.mark.slow
    def test_queue_wait_does_not_consume_the_timeout(self, tmp_path):
        """Regression: the timeout clock starts at execution, not submit.

        Six timed jobs share two workers; each attempt is delayed 1.5 s
        by an injected fault, so the later jobs sit queued for several
        seconds — far past their 2.5 s budget — before a worker picks
        them up. With a submit-time clock (and retries=0) they would be
        cancelled unexecuted and recorded as timeout failures; with the
        execution-time clock every one of them finishes inside budget.
        """
        jobs = _jobs(6, length=300, timeout_s=2.5, retries=0)
        with faults.injected("job.execute:delay(1.5)@1x*"):
            results, _ = run_jobs(jobs, workers=2, store_root=tmp_path)
        assert [r.status for r in results] == [JobStatus.OK] * 6


class TestStoreWriteFault:
    def test_store_write_fault_does_not_abort_the_run(self, tmp_path):
        """execute_job's never-raises contract covers the cache write.

        An injected store.write fault on the first put must degrade to
        an OK-but-unstored result (counted through the metrics
        registry), not propagate out of the serial path and abort the
        batch before run_end/manifest.
        """
        jobs = _jobs(2)
        with faults.injected("store.write:raise@1"):
            results, telemetry = run_jobs(
                jobs, workers=1, store_root=tmp_path, collect_metrics=True,
            )
        assert all(r.status == JobStatus.OK for r in results)
        assert all(r.payload is not None for r in results)
        counters = (results[0].metrics or {}).get("counters", {})
        assert counters.get("resilience.store_put_failures_total") == 1
        # The faulted object is simply absent; the run state is intact.
        store = ResultStore(root=tmp_path)
        assert store.get(results[0].key) is None
        assert store.get(results[1].key) is not None
        merged = store.runs_dir / f"{telemetry.run_id}.merged.json"
        assert merged.is_file()


class TestWorkerKill:
    def test_killed_worker_degrades_to_serial_and_completes(self, tmp_path):
        """SIGKILLing workers mid-sweep must not lose the run."""
        jobs = _jobs(4)
        with faults.injected("seed=7;pool.worker:kill@1x*"):
            results, telemetry = run_jobs(jobs, workers=2,
                                          store_root=tmp_path)
        assert all(r.ok for r in results)
        assert telemetry.total == 4
        # The whole run is journaled despite the carnage.
        store = ResultStore(root=tmp_path)
        merged = store.runs_dir / f"{telemetry.run_id}.merged.json"
        assert merged.is_file()

    def test_kill_never_fires_serially(self, tmp_path):
        """Serial runs are not marked workers: kill degrades to raise,
        which the retry machinery absorbs like any failure."""
        jobs = _jobs(1, retries=1, backoff_s=0.0)
        with faults.injected("pool.worker:kill@1"):
            results, _ = run_jobs(jobs, workers=1, store_root=tmp_path)
        assert results[0].ok


@pytest.mark.slow
class TestHangWatchdog:
    def test_hung_worker_is_detected_and_run_degrades(self, tmp_path):
        """A frozen worker must not stall the run: the watchdog declares
        a hang, kills the stale workers, and the jobs re-run serially in
        the parent (where pool.worker never fires). ``stop`` (SIGSTOP)
        freezes the whole process — heartbeat pulse thread included —
        which is the hang signature the watchdog is built to catch.
        """
        jobs = _jobs(2, length=400)
        policy = WatchdogPolicy(hang_s=2.0, poll_s=0.1)
        watch_started = time.time()
        with faults.injected("pool.worker:stop@1x*"):
            results, telemetry = run_jobs(
                jobs, workers=2, store_root=tmp_path,
                watchdog_policy=policy,
            )
        assert all(r.ok for r in results)
        assert time.time() - watch_started < 45.0  # promptly degraded

    def test_long_job_with_fresh_heartbeat_is_not_killed(self, tmp_path):
        """Regression: a job merely *longer* than hang_s is not a hang.

        Each worker sleeps 3 s mid-job — past the 1 s hang budget — but
        its background pulse keeps the heartbeat fresh, so the watchdog
        must leave it alone: no hang declared, no degradation to serial,
        results come back from the pool's first attempt.
        """
        jobs = _jobs(2, length=400)
        policy = WatchdogPolicy(hang_s=1.0, poll_s=0.1)
        with faults.injected("pool.worker:delay(3)@1x*"):
            results, telemetry = run_jobs(
                jobs, workers=2, store_root=tmp_path,
                collect_metrics=True, watchdog_policy=policy,
            )
        assert all(r.ok for r in results)
        counters = (telemetry.parent_metrics or {}).get("counters", {})
        assert "resilience.hung_workers_total" not in counters
        assert "resilience.pool_degradations_total" not in counters


_SIGINT_DRIVER = """
import sys
from repro.lab import run_jobs, SimJob

jobs = [SimJob(workload=w, length=120_000, seed=3)
        for w in ("gzip", "twolf", "vpr", "gcc", "mcf", "crafty")]
_, telemetry = run_jobs(jobs, workers=2, store_root=sys.argv[1],
                        run_id="sigrun")
sys.exit(130 if telemetry.interrupted else 0)
"""


@pytest.mark.slow
class TestSigintResume:
    def test_sigint_then_resume_is_byte_identical(self, tmp_path):
        """Acceptance: interrupt a run, resume it, and the merged
        manifest matches an uninterrupted run byte for byte."""
        jobs = [SimJob(workload=w, length=120_000, seed=3)
                for w in ("gzip", "twolf", "vpr", "gcc", "mcf", "crafty")]
        clean_root = tmp_path / "clean"
        _, clean = run_jobs(jobs, workers=2, store_root=clean_root,
                            run_id="sigrun")
        clean_bytes = (
            ResultStore(root=clean_root).runs_dir / "sigrun.merged.json"
        ).read_bytes()

        sig_root = tmp_path / "sig"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGINT_DRIVER, str(sig_root)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        time.sleep(2.5)  # let it start some (not all) jobs
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=120)

        store = ResultStore(root=sig_root)
        journal = store.runs_dir / "sigrun.journal.jsonl"
        if proc.returncode == 0 or not journal.is_file():
            pytest.skip("run finished before the signal landed")
        assert proc.returncode == 130

        results, resumed = run_jobs(jobs, workers=2, store_root=sig_root,
                                    run_id="sigrun", resume=True)
        assert all(r.ok for r in results)
        resumed_bytes = (
            store.runs_dir / "sigrun.merged.json"
        ).read_bytes()
        assert resumed_bytes == clean_bytes
