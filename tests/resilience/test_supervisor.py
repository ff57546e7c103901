"""The worker supervisor's liveness rule: a worker death the executor
cannot see still fails the pool's pending work, promptly.

The deterministic reproduction: a job forks a sleeping grandchild, then
SIGKILLs its own worker. The grandchild inherits the worker's end of
the executor's sentinel pipe and keeps it open, so a bare
``ProcessPoolExecutor`` never notices the death and its futures never
resolve. Each test bounds its wait, so a regression fails instead of
hanging, and kills the grandchild afterwards so nothing lingers.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.lab import SimJob, run_jobs
from repro.lab.jobs import execute_job
from repro.resilience.supervisor import in_worker_process
from repro.serve import protocol
from repro.serve.service import ExperimentService

#: Generous next to the supervisor's 0.2 s poll; far below a hang.
BOUND_S = 30.0


@dataclass(frozen=True)
class GrandchildSimJob(SimJob):
    """A SimJob whose first run in a pool worker forks a sleeping
    grandchild and then SIGKILLs the worker; ``marker`` records the
    grandchild's pid. Later runs, and any run outside a pool worker,
    simulate like a plain SimJob (same key, same payload)."""

    marker: str = ""

    def execute(self):
        if in_worker_process() and not os.path.exists(self.marker):
            pid = os.fork()
            if pid == 0:
                time.sleep(60)
                os._exit(0)
            Path(self.marker).write_text(str(pid))
            os.kill(os.getpid(), signal.SIGKILL)
        return super().execute()


def _kill_grandchild(marker: Path) -> None:
    try:
        os.kill(int(marker.read_text()), signal.SIGKILL)
    except (OSError, ValueError):
        pass


def test_lab_pool_survives_a_death_the_executor_cannot_see(tmp_path):
    marker = tmp_path / "grandchild.pid"
    plain = [
        SimJob(workload=w, length=400, seed=7) for w in ("gzip", "twolf", "vpr")
    ]
    jobs = [GrandchildSimJob(workload="gzip", length=400, seed=7, marker=str(marker))]
    jobs += plain[1:]
    outcome = {}

    def run():
        outcome["results"], _ = run_jobs(jobs, workers=2, use_cache=False)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    try:
        runner.join(BOUND_S)
        assert not runner.is_alive(), "run_jobs hung on an unseen worker death"
    finally:
        _kill_grandchild(marker)
        runner.join(BOUND_S)
    assert marker.exists(), "the grandchild job never ran in a worker"
    serial, _ = run_jobs(plain, workers=1, use_cache=False)
    assert [r.ok for r in outcome["results"]] == [True] * 3
    assert [r.payload for r in outcome["results"]] == [r.payload for r in serial]


def test_serve_shard_answers_or_fails_retryable_after_an_unseen_death(tmp_path):
    marker = tmp_path / "grandchild.pid"
    request = {"op": "simulate", "workload": "twolf", "length": 1500}
    spec = GrandchildSimJob(workload="twolf", length=1500, marker=str(marker))
    svc = ExperimentService(
        store_root=tmp_path / "cache", n_shards=1, shard_workers=2,
        service_id="serve-grandchild",
    )
    svc.start()
    try:
        try:
            payload, _span = asyncio.run(
                asyncio.wait_for(
                    svc._run_on_shard(spec.key(), spec, dict(request), None),
                    timeout=BOUND_S,
                )
            )
        except protocol.ShardCrashError as exc:
            assert exc.retryable
        else:
            expected = execute_job(SimJob(workload="twolf", length=1500),
                                   use_cache=False)
            assert payload == expected.payload
        assert marker.exists(), "the grandchild job never ran in a worker"
    finally:
        _kill_grandchild(marker)
        svc.close()
