"""Service-level tests: coalescing, cache tiers, sharding, TCP.

The acceptance bar from the issue: 50 concurrent identical requests
produce exactly one pool execution (proven by ``serve.coalesced_total``
and the pool-call counter), and a warm-cache request round-trips
without touching the pool at all.
"""

import asyncio
import json

import pytest

from repro.serve.client import ServeClient, ServeClientError, read_endpoint
from repro.serve.service import (
    BackgroundServer,
    ExperimentService,
    endpoint_path,
)
from repro.serve.shards import shard_index

WORKLOAD = {"op": "simulate", "workload": "gzip", "length": 1500}


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(store_root=tmp_path / "cache", n_shards=2)
    svc.start()
    yield svc
    svc.close()


def counters(svc):
    return svc.metrics.snapshot()["counters"]


class TestCoalescing:
    def test_50_identical_requests_one_pool_execution(self, service):
        async def drive():
            return await asyncio.gather(
                *(service.handle(dict(WORKLOAD)) for _ in range(50))
            )

        responses = run(drive())
        assert all(r["ok"] for r in responses)
        keys = {r["meta"]["key"] for r in responses}
        assert len(keys) == 1
        assert sum(1 for r in responses if r["meta"]["coalesced"]) == 49
        snap = counters(service)
        assert snap["serve.pool_executions_total"] == 1
        assert snap["serve.coalesced_total"] == 49
        assert snap["serve.requests_total"] == 50

    def test_distinct_requests_do_not_coalesce(self, service):
        async def drive():
            return await asyncio.gather(
                service.handle(dict(WORKLOAD)),
                service.handle({**WORKLOAD, "seed": 3}),
            )

        responses = run(drive())
        assert all(r["ok"] for r in responses)
        snap = counters(service)
        assert snap["serve.pool_executions_total"] == 2
        assert snap["serve.coalesced_total"] == 0

    def test_coalesced_failure_propagates_to_all_waiters(self, service):
        bad = {**WORKLOAD, "workload": "no-such-workload"}

        async def drive():
            return await asyncio.gather(
                *(service.handle(dict(bad)) for _ in range(5))
            )

        responses = run(drive())
        assert all(not r["ok"] for r in responses)
        assert all(
            r["error"]["type"] == "job-failed" for r in responses
        )


class TestCacheTiers:
    def test_warm_request_never_touches_the_pool(self, service):
        run(service.handle(dict(WORKLOAD)))  # cold: 1 pool execution
        warm = run(service.handle(dict(WORKLOAD)))
        assert warm["ok"] and warm["meta"]["source"] == "tier0"
        snap = counters(service)
        assert snap["serve.pool_executions_total"] == 1
        assert snap["serve.cache_hits_tier0_total"] == 1

    def test_restarted_service_hits_disk_tier(self, service, tmp_path):
        cold = run(service.handle(dict(WORKLOAD)))
        assert cold["meta"]["source"] == "pool"
        # A fresh service over the same store: tier0 is cold, disk warm.
        fresh = ExperimentService(store_root=tmp_path / "cache", n_shards=2)
        try:
            warm = run(fresh.handle(dict(WORKLOAD)))
            assert warm["ok"] and warm["meta"]["source"] == "store"
            assert counters(fresh)["serve.pool_executions_total"] == 0
        finally:
            fresh.close()

    def test_store_loss_recomputes(self, service):
        cold = run(service.handle(dict(WORKLOAD)))
        key = cold["meta"]["key"]
        service.cache.tier0.clear()
        service.store.gc(clear=True)
        again = run(service.handle(dict(WORKLOAD)))
        assert again["ok"] and again["meta"]["source"] == "pool"
        assert again["meta"]["key"] == key
        assert counters(service)["serve.pool_executions_total"] == 2

    def test_cold_miss_persists_exactly_once(self, service):
        cold = run(service.handle(dict(WORKLOAD)))
        assert cold["ok"] and cold["meta"]["source"] == "pool"
        key = cold["meta"]["key"]
        root = service.store.root
        # The worker's put is the only write: one object, no mirror
        # tier, and nothing stored from the service process.
        assert len(list((root / "objects").rglob(f"{key}*"))) == 1
        assert not (root / "serve" / "l2").exists()
        assert service.store.stats.puts == 0


class TestShardingAndOps:
    def test_sweep_routes_points_across_shards(self, service):
        response = run(
            service.handle(
                {"op": "sweep", "workload": "mcf", "parameter": "rob_size",
                 "values": [32, 64, 128, 256], "length": 1200}
            )
        )
        assert response["ok"]
        points = response["result"]
        assert len(points) == 4
        owners = {shard_index(p["key"], 2) for p in points}
        submitted = sum(s["submitted"] for s in service.shards.describe())
        assert submitted == 4
        # Routing is deterministic arithmetic on the key.
        for point in points:
            assert 0 <= shard_index(point["key"], 2) < 2
        assert owners  # at least one shard used; split depends on keys

    def test_routing_respects_prefix_ranges(self):
        assert shard_index("00" + "0" * 62, 2) == 0
        assert shard_index("7f" + "0" * 62, 2) == 0
        assert shard_index("80" + "0" * 62, 2) == 1
        assert shard_index("ff" + "0" * 62, 2) == 1
        for n in (1, 2, 3, 5, 8):
            owners = [shard_index(f"{b:02x}" + "0" * 62, n) for b in range(256)]
            assert sorted(set(owners)) == list(range(n))
            assert owners == sorted(owners)  # contiguous ranges

    def test_status_and_ping_and_bad_request(self, service):
        assert run(service.handle({"op": "ping"}))["result"] == "pong"
        status = run(service.handle({"op": "status"}))["result"]
        assert status["tiers"] == ["tier0", "store"]
        assert len(status["shards"]) == 2
        bad = run(service.handle({"op": "simulate"}))  # no workload
        assert not bad["ok"]
        assert bad["error"]["type"] == "bad-request"
        assert not bad["error"]["retryable"]

    def test_manifest_written_on_close(self, tmp_path):
        svc = ExperimentService(store_root=tmp_path / "cache", n_shards=1)
        svc.start()
        run(svc.handle(dict(WORKLOAD)))
        svc.close()
        manifest = svc.store.runs_dir / f"{svc.service_id}.serve.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["metrics"]["counters"]["serve.requests_total"] == 1

    def test_shard_journal_is_write_ahead(self, service):
        response = run(service.handle(dict(WORKLOAD)))
        key = response["meta"]["key"]
        shard = service.shards.route(key)
        state = shard.journal_state()
        assert state.classify(key) == "complete"
        events = [r["event"] for r in state.records]
        assert events.index("accepted") < events.index("started")
        accepted = next(
            r for r in state.records if r["event"] == "accepted"
        )
        assert accepted["request"]["workload"] == "gzip"


class TestTcpFrontDoor:
    def test_client_roundtrip_and_endpoint_file(self, tmp_path):
        svc = ExperimentService(store_root=tmp_path / "cache", n_shards=2)
        with BackgroundServer(svc) as server:
            record = read_endpoint(tmp_path / "cache")
            assert record["port"] == server.port
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.ping()
                cold = client.simulate("gzip", length=1500)
                assert cold["ok"] and cold["meta"]["source"] == "pool"
                warm = client.simulate("gzip", length=1500)
                assert warm["meta"]["source"] == "tier0"
                status = client.status()
                assert status["result"]["metrics"]["counters"][
                    "serve.pool_executions_total"
                ] == 1
        # Shutdown removed the endpoint advertisement.
        assert not endpoint_path(tmp_path / "cache").exists()

    def test_malformed_line_gets_error_not_disconnect(self, tmp_path):
        import socket

        svc = ExperimentService(store_root=tmp_path / "cache", n_shards=1)
        with BackgroundServer(svc) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                handle = sock.makefile("rb")
                sock.sendall(b"{broken\n")
                error = json.loads(handle.readline())
                assert not error["ok"]
                assert error["error"]["type"] == "bad-request"
                sock.sendall(b'{"op": "ping", "id": "after"}\n')
                after = json.loads(handle.readline())
                assert after["ok"] and after["id"] == "after"

    def test_client_error_when_no_endpoint(self, tmp_path):
        with pytest.raises(ServeClientError):
            read_endpoint(tmp_path / "nothing-here")
