"""Unit tests for job specs and the single-job execution engine."""

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.harness.experiment import ExperimentResult
from repro.lab.jobs import (
    ExperimentJob,
    JobSpec,
    JobStatus,
    SimJob,
    SweepJob,
    execute_job,
)
from repro.lab.pool import run_jobs
from repro.lab.store import ResultStore
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult


@dataclass(frozen=True)
class FlakyJob(JobSpec):
    """Fails ``fail_times`` times, then succeeds (counter on disk)."""

    marker: str = ""
    fail_times: int = 2

    def key(self) -> str:
        return "f" * 64

    def execute(self):
        path = Path(self.marker)
        count = int(path.read_text()) if path.exists() else 0
        path.write_text(str(count + 1))
        if count < self.fail_times:
            raise RuntimeError(f"flaky failure #{count + 1}")
        return ExperimentResult(
            experiment_id="flaky", title="t", headers=["h"], rows=[[1]]
        )


class TestSimJob:
    def test_validates_core(self):
        with pytest.raises(ValueError):
            SimJob(workload="gzip", core="quantum")

    def test_requires_workload(self):
        with pytest.raises(ValueError):
            SimJob()

    def test_default_label(self):
        job = SimJob(workload="gzip")
        assert job.label == "sim:ooo:gzip"

    def test_execute_matches_runner(self):
        # The job must compute exactly what the harness runner computes
        # for the same (workload, length, seed, config) identity.
        from repro.harness.runner import clear_caches, simulate_workload

        clear_caches()
        job = SimJob(workload="gzip", length=500, seed=7)
        direct = job.execute()
        assert isinstance(direct, SimulationResult)
        via_runner = simulate_workload("gzip", length=500, seed=7)
        assert direct.cycles == via_runner.cycles
        assert direct.events == via_runner.events

    def test_execute_matches_scalar_core(self):
        from repro.harness.runner import build_workload_trace
        from tests.pipeline.scalar_core import SuperscalarCore

        config = CoreConfig(rob_size=32)
        job = SimJob(workload="gzip", length=400, config=config)
        reference = SuperscalarCore(config).run(
            build_workload_trace("gzip", 400)
        )
        assert vars(job.execute()) == vars(reference)

    def test_inorder_core(self):
        job = SimJob(workload="gzip", length=500, core="inorder")
        result = job.execute()
        assert result.instructions == 500

    def test_key_separates_cores(self):
        ooo = SimJob(workload="gzip", length=500)
        ino = SimJob(workload="gzip", length=500, core="inorder")
        assert ooo.key() != ino.key()


class TestExperimentJob:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            ExperimentJob()

    def test_key_separates_experiments(self):
        assert (
            ExperimentJob(experiment_id="t1").key()
            != ExperimentJob(experiment_id="f2").key()
        )

    def test_execute_decodes(self):
        job = ExperimentJob(experiment_id="t1")
        result = execute_job(job, None, use_cache=False)
        assert result.ok
        decoded = result.value(job)
        assert decoded.experiment_id == "t1"


class TestJobStore:
    """A job's simulations go to the job's store, or to none."""

    @pytest.fixture
    def sanitized(self, monkeypatch):
        from repro.analysis import sanitizer
        from repro.harness.runner import clear_caches

        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        sanitizer.reset()
        clear_caches()
        yield sanitizer
        sanitizer.reset()
        clear_caches()

    def test_no_cache_job_ignores_a_warm_environment_store(
        self, tmp_path, monkeypatch, sanitized
    ):
        from repro.harness.runner import clear_caches

        warm = tmp_path / "warm"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        job = ExperimentJob(experiment_id="f1")
        assert execute_job(job, str(warm)).ok
        clear_caches()
        objects = ResultStore(root=warm).count()
        assert objects >= 2  # the experiment and its simulation

        sanitized.enable()
        result = execute_job(job, None, use_cache=False)
        assert result.status == JobStatus.OK
        assert result.sanitizer is not None
        assert result.sanitizer["runs"] >= 1
        assert ResultStore(root=warm).count() == objects

    def test_simulations_go_to_the_job_store(
        self, tmp_path, monkeypatch, sanitized
    ):
        from repro.harness.runner import DEFAULT_LENGTH, DEFAULT_SEED

        elsewhere = tmp_path / "env"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(elsewhere))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        run_store = tmp_path / "run"
        job = ExperimentJob(experiment_id="f1")
        assert execute_job(job, str(run_store)).ok
        sim_key = SimJob(
            workload="twolf", length=DEFAULT_LENGTH, seed=DEFAULT_SEED
        ).key()
        assert ResultStore(root=run_store).get(sim_key) is not None
        assert ResultStore(root=elsewhere).count() == 0


class TestSweepJob:
    def test_expands_to_config_points(self):
        sweep = SweepJob(
            parameter="rob_size",
            values=(32, 64, 128),
            workload="gzip",
            length=500,
        )
        jobs = sweep.expand()
        assert [j.config.rob_size for j in jobs] == [32, 64, 128]
        assert len({j.key() for j in jobs}) == 3
        assert all(j.workload == "gzip" for j in jobs)

    def test_each_point_keys_its_own_config(self):
        def keys(values):
            sweep = SweepJob(parameter="rob_size", values=values, workload="gzip")
            return [job.key() for job in sweep.expand()]

        base = keys((16, 32, 64))
        assert keys((64, 32, 16)) == base[::-1]
        edited = keys((16, 48, 64))
        assert [a == b for a, b in zip(base, edited)] == [True, False, True]

    def test_inorder_sweep_expands_to_inorder_points(self):
        sweep = SweepJob(
            parameter="rob_size", values=(32,), workload="gzip", core="inorder"
        )
        (job,) = sweep.expand()
        assert job.core == "inorder"
        assert job.key() != SimJob(workload="gzip", config=job.config).key()

    def test_points_inherit_failure_policy(self):
        sweep = SweepJob(
            parameter="rob_size",
            values=(32,),
            workload="gzip",
            timeout_s=5.0,
            retries=2,
        )
        job = sweep.expand()[0]
        assert job.timeout_s == 5.0
        assert job.retries == 2


class TestSharedSimCache:
    """A sweep point and the harness share one ``sim-ooo`` entry."""

    SWEEP = SweepJob(
        parameter="rob_size", values=(32, 64, 128), workload="gzip", length=400
    )

    @pytest.fixture
    def harness(self, monkeypatch):
        import repro.harness.runner as runner
        import repro.perf.batchcore as batchcore

        calls = []
        real = batchcore.run_batch

        def counted(trace, configs):
            calls.append(len(configs))
            return real(trace, configs)

        monkeypatch.setattr(batchcore, "run_batch", counted)
        runner.clear_caches()
        yield runner, calls
        runner.clear_caches()

    def _harness_run(self, runner, root):
        configs = [job.config for job in self.SWEEP.expand()]
        with runner.job_store(root):
            return runner.simulate_workload_batch("gzip", configs, length=400)

    def test_sweep_fills_what_the_harness_reads(self, tmp_path, harness):
        runner, calls = harness
        jobs = self.SWEEP.expand()
        outcomes, _ = run_jobs(jobs, workers=1, store_root=tmp_path)
        assert [o.status for o in outcomes] == [JobStatus.OK] * 3
        swept = [o.value(job) for job, o in zip(jobs, outcomes)]

        read = self._harness_run(runner, tmp_path)
        assert calls == []
        assert [vars(r) for r in read] == [vars(r) for r in swept]

        runner.clear_caches()
        fresh = self._harness_run(runner, None)
        assert calls == [3]
        assert [vars(r) for r in fresh] == [vars(r) for r in swept]

    def test_harness_fills_what_the_sweep_reads(self, tmp_path, harness):
        runner, calls = harness
        filled = self._harness_run(runner, tmp_path)
        assert calls == [3]
        assert ResultStore(root=tmp_path).count() == 3

        jobs = self.SWEEP.expand()
        outcomes, _ = run_jobs(jobs, workers=1, store_root=tmp_path)
        assert [o.status for o in outcomes] == [JobStatus.CACHED] * 3
        swept = [o.value(job) for job, o in zip(jobs, outcomes)]
        assert [vars(r) for r in swept] == [vars(r) for r in filled]
        assert ResultStore(root=tmp_path).count() == 3


class TestExecuteJob:
    def test_failure_is_captured_not_raised(self):
        result = execute_job(
            SimJob(workload="nosuch", length=100), None, use_cache=False
        )
        assert result.status == JobStatus.FAILED
        assert "unknown workload" in result.error
        assert result.payload is None

    def test_retry_with_backoff_until_success(self, tmp_path):
        job = FlakyJob(
            marker=str(tmp_path / "count"),
            fail_times=2,
            retries=2,
            backoff_s=0.001,
        )
        result = execute_job(job, None, use_cache=False)
        assert result.status == JobStatus.OK
        assert result.attempts == 3

    def test_retries_exhausted_records_last_error(self, tmp_path):
        job = FlakyJob(
            marker=str(tmp_path / "count"),
            fail_times=10,
            retries=1,
            backoff_s=0.001,
        )
        result = execute_job(job, None, use_cache=False)
        assert result.status == JobStatus.FAILED
        assert "flaky failure #2" in result.error
        assert result.attempts == 2

    def test_store_roundtrip_and_cache_hit(self, tmp_path):
        job = SimJob(workload="gzip", length=400)
        cold = execute_job(job, str(tmp_path), use_cache=True)
        assert cold.status == JobStatus.OK and not cold.cache_hit
        warm = execute_job(job, str(tmp_path), use_cache=True)
        assert warm.status == JobStatus.CACHED and warm.cache_hit
        assert warm.value(job).cycles == cold.value(job).cycles
        assert ResultStore(root=tmp_path).count() == 1

    def test_use_cache_false_skips_store(self, tmp_path):
        job = SimJob(workload="gzip", length=400)
        execute_job(job, str(tmp_path), use_cache=False)
        assert ResultStore(root=tmp_path).count() == 0
