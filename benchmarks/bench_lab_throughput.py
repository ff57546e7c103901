"""Throughput benchmarks for the repro.lab execution subsystem.

Two claims are measured here:

1. **Parallel speedup** — dispatching independent simulation jobs over
   a 4-worker process pool beats serial execution. The ratio is always
   printed; the >= 2x assertion only fires on machines with at least
   four cores (a single-core container cannot demonstrate parallelism,
   only measure its overhead).
2. **Warm-cache speedup** — a second run of the same jobs against a
   populated content-addressed store is at least 5x faster than the
   cold run, because every job short-circuits to a store hit.
3. **Disarmed fault injection is (nearly) free** — with ``REPRO_FAULTS``
   unset, every ``fault_point`` reduces to a couple of None checks and
   an env lookup. The guard times a generous over-count of the fault
   points a run actually crosses and asserts they fit inside 1% of the
   *warm* run — the fastest path, hence the tightest bound.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_lab_throughput.py -v -s
"""

from __future__ import annotations

import os
import time

from repro.lab.jobs import SimJob
from repro.lab.pool import run_jobs
from repro.resilience import faults

WORKLOADS = ["gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk"]
LENGTH = 20_000


def _jobs():
    return [SimJob(workload=name, length=LENGTH) for name in WORKLOADS]


def _timed_run(jobs, workers, store_root, use_cache):
    start = time.perf_counter()
    results, telemetry = run_jobs(
        jobs,
        workers=workers,
        store_root=store_root,
        use_cache=use_cache,
        write_manifest=False,
    )
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in results)
    return elapsed, telemetry


class TestParallelSpeedup:
    def test_four_workers_vs_one(self, tmp_path):
        jobs = _jobs()
        serial_s, _ = _timed_run(jobs, 1, tmp_path / "serial", False)
        parallel_s, _ = _timed_run(jobs, 4, tmp_path / "parallel", False)
        speedup = serial_s / parallel_s
        cores = os.cpu_count() or 1
        print(
            f"\nlab pool: {len(jobs)} jobs x {LENGTH} insns | "
            f"serial {serial_s:.2f}s, 4 workers {parallel_s:.2f}s, "
            f"speedup {speedup:.2f}x ({cores} cores)"
        )
        if cores >= 4:
            assert speedup >= 2.0, (
                f"expected >= 2x speedup with 4 workers on {cores} cores, "
                f"got {speedup:.2f}x"
            )


class TestWarmCacheSpeedup:
    def test_second_run_hits_store(self, tmp_path):
        jobs = _jobs()
        cold_s, cold = _timed_run(jobs, 1, tmp_path, True)
        warm_s, warm = _timed_run(jobs, 1, tmp_path, True)
        assert cold.cached == 0
        assert warm.cached == len(jobs)
        speedup = cold_s / warm_s
        print(
            f"\nlab store: cold {cold_s:.2f}s, warm {warm_s:.2f}s, "
            f"speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, (
            f"expected >= 5x warm-cache speedup, got {speedup:.1f}x"
        )


class TestFaultPointOverhead:
    #: Generous upper bound on fault points crossed per job: one
    #: store.read, one store.write and one job.execute, padded over 30x
    #: for headroom.
    POINTS_PER_JOB = 100
    BUDGET = 0.01

    def test_disarmed_fault_points_fit_the_one_percent_budget(self, tmp_path):
        jobs = _jobs()
        faults.reset()  # REPRO_FAULTS unset: every point is a passthrough
        _timed_run(jobs, 1, tmp_path, True)          # populate the store
        warm_s, warm = _timed_run(jobs, 1, tmp_path, True)
        assert warm.cached + warm.resumed == len(jobs)

        calls = self.POINTS_PER_JOB * len(jobs)
        payload = b"x" * 64
        start = time.perf_counter()
        for _ in range(calls):
            faults.fault_point("store.read", payload)
        guard_s = time.perf_counter() - start

        ratio = guard_s / warm_s
        print(
            f"\nlab faults: {calls} disarmed fault points "
            f"{guard_s * 1e3:.2f} ms vs warm run {warm_s * 1e3:.1f} ms "
            f"= {ratio:.2%} (budget {self.BUDGET:.0%})"
        )
        assert ratio < self.BUDGET, (
            f"disarmed fault_point overhead {ratio:.2%} exceeds "
            f"{self.BUDGET:.0%} of a warm lab run"
        )
