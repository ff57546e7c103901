"""Write-ahead journal semantics and crash-safe resumable runs."""

from __future__ import annotations

import json

import pytest

from repro.lab import ResultStore, SimJob, run_jobs
from repro.lab.jobs import JobStatus
from repro.resilience import faults
from repro.resilience.journal import (
    JournalState,
    RunJournal,
    journal_path,
    load_journal,
)


def _jobs(n=3, length=400):
    workloads = ["gzip", "twolf", "vpr", "gcc", "mcf"]
    return [
        SimJob(workload=workloads[i % len(workloads)], length=length, seed=i)
        for i in range(n)
    ]


class TestJournal:
    def test_records_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path, "r1")
        journal.run_start(2, "salt", resumed=False)
        journal.queued(0, "k0", "job0")
        journal.queued(1, "k1", "job1")
        journal.started(0, "k0")
        journal.done(0, "k0", "ok", "sha", attempts=1)
        journal.started(1, "k1")
        journal.run_end(1, 0)
        journal.close()
        state = JournalState.load(journal.path)
        assert state.run_id == "r1"
        assert set(state.done) == {"k0"}
        assert state.in_flight == ["k1"]  # started, never finished
        assert state.ended
        assert state.classify("k0") == "complete"
        assert state.classify("k1") == "requeue"
        assert state.classify("never-seen") == "requeue"

    def test_failed_jobs_requeue(self, tmp_path):
        journal = RunJournal(tmp_path, "r2")
        journal.queued(0, "k0", "job0")
        journal.failed(0, "k0", "Boom\nValueError: nope", attempts=2)
        journal.close()
        state = JournalState.load(journal.path)
        assert state.classify("k0") == "requeue"
        assert state.failed["k0"]["error"] == "ValueError: nope"

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = RunJournal(tmp_path, "r3")
        journal.queued(0, "k0", "job0")
        journal.done(0, "k0", "ok", "sha", attempts=1)
        journal.close()
        with open(journal.path, "a",  # repro: noqa[RES001] torn-write sim
                  encoding="utf-8") as handle:
            handle.write('{"event": "fail')  # crash mid-append
        state = JournalState.load(journal.path)
        assert state.classify("k0") == "complete"

    def test_load_journal_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_journal(tmp_path, "nope")


class TestResume:
    def test_run_writes_journal_and_merged_manifest(self, tmp_path):
        jobs = _jobs(2)
        _, telemetry = run_jobs(jobs, workers=1, store_root=tmp_path)
        store = ResultStore(root=tmp_path)
        assert journal_path(store.runs_dir, telemetry.run_id).is_file()
        merged = store.runs_dir / f"{telemetry.run_id}.merged.json"
        assert merged.is_file()
        doc = json.loads(merged.read_bytes())
        assert [j["status"] for j in doc["jobs"]] == ["ok", "ok"]

    def test_resume_replays_done_jobs_from_store(self, tmp_path):
        jobs = _jobs(3)
        _, first = run_jobs(jobs, workers=1, store_root=tmp_path)
        results, second = run_jobs(
            jobs, workers=1, store_root=tmp_path,
            run_id=first.run_id, resume=True,
        )
        assert [r.status for r in results] == [JobStatus.RESUMED] * 3
        assert second.resumed == 3
        assert all(r.ok for r in results)

    def test_resume_reruns_jobs_missing_from_journal(self, tmp_path):
        jobs = _jobs(3)
        _, first = run_jobs(jobs[:2], workers=1, store_root=tmp_path)
        # Resume sees a journal covering 2 of 3 jobs; the third runs.
        # (Job 3 also isn't in the cache, so it truly executes.)
        results, _ = run_jobs(
            jobs, workers=1, store_root=tmp_path,
            run_id=first.run_id, resume=True,
        )
        assert [r.status for r in results] == [
            JobStatus.RESUMED, JobStatus.RESUMED, JobStatus.OK
        ]

    def test_resumed_merged_manifest_is_byte_identical(self, tmp_path):
        """The headline resilience guarantee, in-process form.

        An uninterrupted run and a crash-then-resume run of the same
        jobs produce byte-identical merged manifests.
        """
        jobs = _jobs(3)
        baseline_root = tmp_path / "baseline"
        crash_root = tmp_path / "crashed"
        _, clean = run_jobs(
            jobs, workers=1, store_root=baseline_root, run_id="runX"
        )
        clean_bytes = (
            ResultStore(root=baseline_root).runs_dir / "runX.merged.json"
        ).read_bytes()

        # "Crash" after the first job: the injected fault fails jobs 2
        # and 3, which the journal records as failed (requeued on
        # resume) — the store holds only job 1's payload.
        with faults.injected("job.execute:raise@2x*"):
            _, crashed = run_jobs(
                jobs, workers=1, store_root=crash_root, run_id="runX"
            )
        assert crashed.failed == 2
        results, resumed = run_jobs(
            jobs, workers=1, store_root=crash_root,
            run_id="runX", resume=True,
        )
        assert all(r.ok for r in results)
        assert resumed.resumed == 1  # job 1 replayed, jobs 2-3 re-ran
        resumed_bytes = (
            ResultStore(root=crash_root).runs_dir / "runX.merged.json"
        ).read_bytes()
        assert resumed_bytes == clean_bytes

    def test_resume_requires_store_and_run_id(self, tmp_path):
        with pytest.raises(ValueError):
            run_jobs(_jobs(1), workers=1, use_cache=False, resume=True,
                     run_id="x")
        with pytest.raises(ValueError):
            run_jobs(_jobs(1), workers=1, store_root=tmp_path, resume=True)

    def test_resume_with_quarantined_object_reruns_job(self, tmp_path):
        jobs = _jobs(1)
        _, first = run_jobs(jobs, workers=1, store_root=tmp_path)
        store = ResultStore(root=tmp_path)
        [path] = list(store.iter_objects())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x10
        path.write_bytes(bytes(raw))
        results, telemetry = run_jobs(
            jobs, workers=1, store_root=tmp_path,
            run_id=first.run_id, resume=True,
        )
        # The corrupt payload was quarantined, not trusted.
        assert results[0].status == JobStatus.OK
        assert telemetry.resumed == 0
        assert len(store.quarantined_files()) >= 1
