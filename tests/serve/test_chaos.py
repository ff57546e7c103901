"""Chaos coverage: shard death mid-request, replay, retryable errors.

The issue's acceptance bar: killing one shard mid-flight never loses
accepted work — the journal replays it and the client observes an
answer or a retryable error, never a hang.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.lab.jobs import execute_job
from repro.lab.store import payload_digest
from repro.resilience import faults
from repro.serve.protocol import ERR_SHARD_CRASHED, sim_job_from
from repro.serve.service import ExperimentService
from repro.serve.shards import PendingJob

REQUEST = {"op": "simulate", "workload": "twolf", "length": 1500}


def _spec_key(service):
    from repro.serve.protocol import sim_job_from

    return sim_job_from(dict(REQUEST)).key()


async def _kill_worker_when_busy(shard, deadline_s=20.0):
    """SIGKILL the shard's worker once it is executing our job."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        pids = shard.worker_pids()
        if pids and shard.pending:
            await asyncio.sleep(0.3)  # let it get into the delay window
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            return True
        await asyncio.sleep(0.02)
    return False


class TestShardDeath:
    def test_sigkill_mid_request_replays_and_answers(self, tmp_path):
        """One SIGKILL: the journal resubmits and every waiter (the
        leader plus coalesced followers) still gets the answer."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-chaos-a",
        )
        # Hold the first execution open long enough to kill the worker
        # mid-job; the replay (a fresh worker process) re-arms the
        # per-process fault counter and just runs slow again.
        faults.enable("job.execute:delay(0.8)x*")  # before start: workers fork at start
        svc.start()
        try:
            shard = svc.shards.route(_spec_key(svc))

            async def drive():
                waiters = [
                    asyncio.create_task(svc.handle(dict(REQUEST)))
                    for _ in range(3)
                ]
                killed = await _kill_worker_when_busy(shard)
                responses = await asyncio.wait_for(
                    asyncio.gather(*waiters), timeout=120
                )
                return killed, responses

            killed, responses = asyncio.run(drive())
            assert killed, "never saw a busy shard worker to kill"
            assert all(r["ok"] for r in responses)
            assert sum(1 for r in responses if r["meta"]["coalesced"]) == 2
            snap = svc.metrics.snapshot()["counters"]
            assert snap["serve.shard_restarts_total"] >= 1
            # The journal closed the loop: accepted -> replay -> done.
            state = shard.journal_state()
            key = _spec_key(svc)
            assert state.classify(key) == "complete"
            events = [r["event"] for r in state.records]
            assert "replay" in events
            # The replayed result is durably stored and warm-servable.
            warm = asyncio.run(svc.handle(dict(REQUEST)))
            assert warm["ok"] and warm["meta"]["source"] == "tier0"
        finally:
            faults.reset()
            svc.close()

    def test_repeated_crashes_surface_retryable_error_not_hang(
        self, tmp_path
    ):
        """Every worker process dies at its first job checkpoint
        (``pool.worker:kill`` re-arms per process), so the replay dies
        too: waiters must get a clean retryable error, promptly."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-chaos-b",
        )
        faults.enable("pool.worker:kill@1")  # before start: workers fork at start
        svc.start()
        try:
            async def drive():
                waiters = [
                    asyncio.create_task(svc.handle(dict(REQUEST)))
                    for _ in range(4)
                ]
                return await asyncio.wait_for(
                    asyncio.gather(*waiters), timeout=120
                )

            responses = asyncio.run(drive())
            assert all(not r["ok"] for r in responses)
            for response in responses:
                assert response["error"]["type"] == ERR_SHARD_CRASHED
                assert response["error"]["retryable"] is True
            snap = svc.metrics.snapshot()["counters"]
            assert snap["serve.shard_restarts_total"] >= 2
            state = svc.shards.route(_spec_key(svc)).journal_state()
            assert state.classify(_spec_key(svc)) == "requeue"
        finally:
            faults.reset()
            svc.close()

    def test_healthy_shards_unaffected_by_a_dead_one(self, tmp_path):
        """Work owned by the surviving shard keeps flowing while the
        killed shard recovers."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-chaos-c",
        )
        faults.enable("job.execute:delay(0.8)x*")  # before start: workers fork at start
        svc.start()
        try:
            key = _spec_key(svc)
            victim = svc.shards.route(key)
            other_requests = [
                {"op": "simulate", "workload": w, "length": 1200}
                for w in ("gzip", "mcf", "parser", "vpr")
            ]
            from repro.serve.protocol import sim_job_from

            survivors = [
                r for r in other_requests
                if svc.shards.route(sim_job_from(dict(r)).key())
                is not victim
            ]
            assert survivors, "need at least one key on the other shard"

            async def drive():
                doomed = asyncio.create_task(svc.handle(dict(REQUEST)))
                await _kill_worker_when_busy(victim)
                healthy = await asyncio.wait_for(
                    asyncio.gather(
                        *(svc.handle(dict(r)) for r in survivors)
                    ),
                    timeout=120,
                )
                return await asyncio.wait_for(doomed, timeout=120), healthy

            doomed, healthy = asyncio.run(drive())
            assert all(r["ok"] for r in healthy)
            assert doomed["ok"]  # replayed after restart
        finally:
            faults.reset()
            svc.close()


class TestMultiWorkerShards:
    def test_triage_attributes_only_the_dead_workers_claims(
        self, tmp_path
    ):
        """The attribution contract, pinned deterministically: with one
        dead worker and one live worker each claiming a pending key,
        recovery journals a ``worker-death`` note for the dead pid
        naming *only its* key — the live worker's key is never blamed
        on the corpse. (The end-to-end SIGKILL test below can't pin
        the exact note set because the executor's manager thread kills
        the surviving workers too, on its own schedule.)"""
        import json as jsonlib
        import subprocess
        import sys

        from repro.serve.shards import Shard

        shard = Shard(
            index=0, run_id="triage-unit", store_root=None,
            runs_dir=tmp_path / "runs",
            heartbeat_root=tmp_path / "hb",
        )
        shard.heartbeats.root.mkdir(parents=True, exist_ok=True)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        live = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            keys = {"dead": "aa" * 32, "live": "bb" * 32, "stale": "cc" * 32}
            for pid, key in (
                (dead.pid, keys["dead"]), (live.pid, keys["live"]),
            ):
                (shard.heartbeats.root / f"{pid}.json").write_text(
                    jsonlib.dumps(
                        {"pid": pid, "beat_at": time.time(), "label": ""}
                    )
                )
                (shard.heartbeats.root / f"{pid}.claims.jsonl").write_text(
                    jsonlib.dumps({"pid": pid, "key": key, "at": 0.0})
                    + "\n"
                )
            # The dead worker also once claimed a key that has since
            # completed — stale claims must be dropped by the pending
            # intersection, not re-attributed.
            with open(
                shard.heartbeats.root / f"{dead.pid}.claims.jsonl", "a"
            ) as handle:
                handle.write(
                    jsonlib.dumps(
                        {"pid": dead.pid, "key": keys["stale"], "at": 1.0}
                    )
                    + "\n"
                )
            spec = sim_job_from(dict(REQUEST))
            shard.pending[keys["dead"]] = PendingJob(spec)
            shard.pending[keys["live"]] = PendingJob(spec)

            attribution = shard.recover(observed_generation=0)

            assert attribution == {dead.pid: [keys["dead"]]}
            notes = [
                r for r in shard.journal_state().records
                if r["event"] == "worker-death"
            ]
            assert len(notes) == 1
            assert notes[0]["pid"] == dead.pid
            assert notes[0]["keys"] == [keys["dead"]]
            assert notes[0]["generation"] == 0
            # The triaged corpse's claim file is cleared; the live
            # worker's claims survive untouched.
            assert not shard.heartbeats.claims_path(dead.pid).exists()
            assert shard.heartbeats.claimed_keys(live.pid) == [
                keys["live"]
            ]
            # A later observer presenting the stale generation is told
            # "already handled" — no second triage, no second restart.
            assert shard.recover(observed_generation=0) is None
            assert shard.restarts == 1
        finally:
            live.kill()
            live.wait()
            shard.close()

    def test_submit_survives_a_concurrent_restart(self, tmp_path):
        """A recover() on another thread briefly leaves the shard with
        no executor. A submit whose journal writes overlap that window
        must wait for the fresh pool, not crash on the missing one."""
        import threading

        from repro.serve.shards import Shard

        shard = Shard(
            index=0, run_id="swap-unit", store_root=None,
            runs_dir=tmp_path / "runs",
            heartbeat_root=tmp_path / "hb",
        )
        spec = sim_job_from(dict(REQUEST))
        journal_started = shard.journal.started
        helpers = []

        def restart_while_journaling(*args, **kwargs):
            journal_started(*args, **kwargs)
            swapped = threading.Event()

            def restart():
                supervisor = shard.supervisor
                with supervisor._lock:
                    old, supervisor._executor = supervisor._executor, None
                    swapped.set()
                    time.sleep(0.3)  # hold the gap open
                    old.shutdown(wait=True)
                    supervisor._start_locked()

            helper = threading.Thread(target=restart)
            helper.start()
            helpers.append(helper)
            assert swapped.wait(10)

        try:
            shard.start()
            shard.journal.started = restart_while_journaling
            future, _ = shard.submit(spec.key(), spec, dict(REQUEST))
            assert future.result(timeout=120).ok
        finally:
            for helper in helpers:
                helper.join(30)
            shard.close()

    def test_single_worker_death_keeps_attribution_disjoint(
        self, tmp_path
    ):
        """Two workers, two in-flight keys, one SIGKILL end to end:
        both requests still resolve, the generation guard restarts the
        broken pool exactly once even though both awaiting requests
        observe the same corpse, and no ``worker-death`` note ever
        blames a pid for a key it did not claim."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=1, shard_workers=2,
            service_id="serve-chaos-mw",
        )
        faults.enable("job.execute:delay(0.8)x*")  # before start: workers fork at start
        svc.start()
        requests = [
            dict(REQUEST),
            {"op": "simulate", "workload": "gzip", "length": 1500},
        ]
        keys = [sim_job_from(dict(r)).key() for r in requests]
        shard = svc.shards.shards[0]
        try:
            async def claims_by_pid(deadline_s=20.0):
                """Wait until two distinct workers each claim a key."""
                give_up = time.monotonic() + deadline_s
                while time.monotonic() < give_up:
                    owners = {}
                    for pid in shard.worker_pids():
                        held = [
                            k for k in shard.heartbeats.claimed_keys(pid)
                            if k in shard.pending
                        ]
                        if held:
                            owners[pid] = held
                    claimed = {k for held in owners.values() for k in held}
                    if len(owners) == 2 and claimed == set(keys):
                        return owners
                    await asyncio.sleep(0.02)
                return None

            async def drive():
                waiters = [
                    asyncio.create_task(svc.handle(dict(r)))
                    for r in requests
                ]
                owners = await claims_by_pid()
                assert owners, "two workers never split the two keys"
                victim = next(
                    pid for pid, held in owners.items()
                    if keys[0] in held
                )
                os.kill(victim, signal.SIGKILL)
                responses = await asyncio.wait_for(
                    asyncio.gather(*waiters), timeout=120
                )
                return victim, owners, responses

            victim, owners, responses = asyncio.run(drive())
            assert all(r["ok"] for r in responses)
            # Exactly one restart: the second BrokenExecutor observer
            # saw the bumped generation and skipped the destructive
            # re-restart of the freshly rebuilt pool.
            snap = svc.metrics.snapshot()["counters"]
            assert snap["serve.shard_restarts_total"] == 1
            # Attribution stays disjoint and claim-grounded. Whether
            # the *survivor* also gets a note is up to the executor's
            # manager thread (it kills the rest of the pool on break),
            # but a note may only ever name keys its pid claimed.
            notes = [
                r for r in shard.journal_state().records
                if r["event"] == "worker-death"
            ]
            for note in notes:
                assert set(note["keys"]) <= set(owners.get(note["pid"], []))
                assert note["shard"] == 0
            blamed = [k for n in notes for k in n["keys"]]
            assert len(blamed) == len(set(blamed)), (
                "one key attributed to two corpses"
            )
            # Both keys replayed to completion despite the triage.
            state = shard.journal_state()
            assert all(state.classify(k) == "complete" for k in keys)
        finally:
            faults.reset()
            svc.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_done_landing_before_replay_serves_from_store(
        self, tmp_path, workers
    ):
        """The crash/replay race: a worker publishes its result and
        the ``done`` record lands, then the pool dies before the
        awaiting request collects the future. Recovery must notice the
        journal says ``complete`` and replay from the store instead of
        re-executing."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=1,
            shard_workers=workers,
            service_id=f"serve-chaos-done{workers}",
        )
        spec = sim_job_from(dict(REQUEST))
        key = spec.key()
        shard = svc.shards.shards[0]
        try:
            # Stage the pre-crash world: payload durably published...
            result = execute_job(spec, store_root=str(tmp_path / "cache"))
            assert result.ok
            # ...the done record journaled, but the in-process pending
            # table still believes the key is in flight.
            shard.pending[key] = PendingJob(spec)
            shard.journal.done(
                0, key, result.status, payload_digest(result.payload), 1
            )
            # Now every fresh worker dies at its first checkpoint, so
            # the (redundant) execution can never answer — only the
            # store-replay branch can.
            faults.enable("pool.worker:kill@1")
            svc.start()  # workers fork at start, so after the plan
            payload, _span = asyncio.run(
                svc._run_on_shard(key, spec, dict(REQUEST), None)
            )
            assert payload == result.payload
            assert key not in shard.pending  # triage closed it out
            assert shard.journal_state().classify(key) == "complete"
        finally:
            faults.reset()
            svc.close()

    def test_double_publish_is_idempotent(self, tmp_path):
        """At-least-once means the same key can be published twice
        (original worker + replay). Content addressing makes the
        second put overwrite byte-identically — one object, same
        digest, still verifiable."""
        from repro.lab.store import ResultStore

        spec = sim_job_from(dict(REQUEST))
        first = execute_job(spec, store_root=str(tmp_path / "cache"))
        assert first.ok
        store = ResultStore(tmp_path / "cache")
        assert store.count() == 1
        # The replay's redundant publish of the same content address.
        store.put(spec.key(), first.payload, meta={"label": spec.label})
        assert store.count() == 1
        assert store.get(spec.key()) == first.payload
        assert payload_digest(store.get(spec.key())) == payload_digest(
            first.payload
        )

    def test_worker_count_never_changes_results(self, tmp_path):
        """workers=2 and workers=4 are byte-identical to workers=1:
        the pool width is a throughput knob, not a semantics knob."""
        requests = [
            {"op": "simulate", "workload": w, "length": 900}
            for w in ("gzip", "twolf", "mcf")
        ] + [
            {
                "op": "sweep", "workload": "vpr",
                "parameter": "rob_size", "values": [32, 64],
                "length": 400,
            }
        ]
        outputs = {}
        for workers in (1, 2, 4):
            svc = ExperimentService(
                store_root=tmp_path / f"cache{workers}", n_shards=2,
                shard_workers=workers,
                service_id=f"serve-width{workers}",
            )
            svc.start()
            try:
                async def drive():
                    return await asyncio.gather(
                        *(svc.handle(dict(r)) for r in requests)
                    )

                responses = asyncio.run(drive())
                assert all(r["ok"] for r in responses)
                outputs[workers] = json.dumps(
                    [r["result"] for r in responses], sort_keys=True
                )
            finally:
                svc.close()
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]
