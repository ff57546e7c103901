"""The serve observability plane: tracing, latency stacks, telemetry.

Acceptance bars from the issue, asserted end to end:

- every traced response's ``latency_stack_ns`` sums *exactly* to its
  ``wall_ns`` (integer identity, cold and warm paths alike);
- a 50-way coalesced burst produces exactly one ``pool_execute`` span
  with all 49 ``coalesce_wait`` spans parented to it;
- the ``stats`` op reports nonzero queue depth under a burst and is
  answered inline (it never records spans of its own);
- a shard dying mid-request closes its span as ``aborted`` — no span
  ever dangles in an export;
- a same-seed warm run exports a byte-identical Chrome trace when the
  span clock is injected.
"""

import asyncio
import json

import pytest

from repro.obs.export import write_chrome_trace_spans
from repro.obs.spans import merge_span_snapshots
from repro.resilience import faults
from repro.serve.client import ServeClient
from repro.serve.protocol import ERR_SHARD_CRASHED
from repro.serve.service import BackgroundServer, ExperimentService

WORKLOAD = {"op": "simulate", "workload": "gzip", "length": 1500}


def run(coro):
    return asyncio.run(coro)


class Tick:
    """Deterministic integer-ns clock for byte-identical exports."""

    def __init__(self, step: int = 1000):
        self.t = 0
        self.step = step

    def __call__(self) -> int:
        self.t += self.step
        return self.t


@pytest.fixture
def traced(tmp_path):
    svc = ExperimentService(
        store_root=tmp_path / "cache", n_shards=2, trace_requests=True
    )
    svc.start()
    yield svc
    svc.close()


def spans_named(svc, name):
    return [s for s in svc.spans.snapshot() if s["name"] == name]


class TestLatencyStacks:
    def test_stack_sums_exactly_to_wall_cold_and_warm(self, traced):
        cold = run(traced.handle(dict(WORKLOAD)))
        warm = run(traced.handle(dict(WORKLOAD)))
        for response in (cold, warm):
            assert response["ok"]
            meta = response["meta"]
            stack = meta["latency_stack_ns"]
            assert sum(stack.values()) == meta["wall_ns"]
        assert "pool_execute" in cold["meta"]["latency_stack_ns"]
        assert "pool_execute" not in warm["meta"]["latency_stack_ns"]
        assert warm["meta"]["latency_stack_ns"]["cache_tier0"] > 0

    def test_sweep_stack_holds_the_identity_too(self, traced):
        response = run(
            traced.handle(
                {
                    "op": "sweep",
                    "workload": "gzip",
                    "parameter": "rob_size",
                    "values": [32, 64, 128],
                    "length": 1200,
                }
            )
        )
        assert response["ok"]
        meta = response["meta"]
        assert sum(meta["latency_stack_ns"].values()) == meta["wall_ns"]

    def test_stack_histograms_feed_the_quantile_table(self, traced):
        run(traced.handle(dict(WORKLOAD)))
        stats = traced.stats_payload()
        quantiles = stats["latency_quantiles_ms"]
        assert "serve.latency_stack_pool_execute_milliseconds" in quantiles
        assert quantiles["serve.request_latency_milliseconds"]["p50"] > 0


class TestBurstTopology:
    def test_50_way_burst_one_execute_49_waits_parented_to_it(self, traced):
        async def drive():
            return await asyncio.gather(
                *(traced.handle(dict(WORKLOAD)) for _ in range(50))
            )

        responses = run(drive())
        assert all(r["ok"] for r in responses)
        executes = spans_named(traced, "pool_execute")
        waits = spans_named(traced, "coalesce_wait")
        assert len(executes) == 1
        assert len(waits) == 49
        leader = executes[0]["span_id"]
        assert all(w["parent_id"] == leader for w in waits)
        # All 50 requests are distinct traces joined by that one edge.
        trace_ids = {r["meta"]["trace_id"] for r in responses}
        assert len(trace_ids) == 50

    def test_worker_spans_ride_home_to_the_service(self, traced):
        run(traced.handle(dict(WORKLOAD)))
        processes = {s["process"] for s in traced.spans.snapshot()}
        assert processes == {"serve", "worker"}
        worker = spans_named(traced, "worker_execute")
        assert worker and worker[0]["parent_id"] is not None

    def test_client_supplied_context_is_adopted(self, traced):
        response = run(
            traced.handle(
                {**WORKLOAD, "trace_id": "t-caller-1", "parent_span": "s-up"}
            )
        )
        assert response["meta"]["trace_id"] == "t-caller-1"
        roots = [
            s for s in traced.spans.snapshot(trace_id="t-caller-1")
            if s["name"] == "request"
        ]
        assert roots[0]["parent_id"] == "s-up"

    def test_malformed_trace_token_is_a_clean_error(self, traced):
        response = run(traced.handle({**WORKLOAD, "trace_id": "bad token!"}))
        assert not response["ok"]
        assert response["error"]["type"] == "bad-request"


class TestTelemetryPlane:
    def test_stats_reports_nonzero_queue_depth_under_burst(self, traced):
        requests = [
            {"op": "simulate", "workload": w, "length": 1200}
            for w in ("gzip", "mcf", "parser", "vpr")
        ]

        async def drive():
            return await asyncio.gather(
                *(traced.handle(dict(r)) for r in requests)
            )

        responses = run(drive())
        assert all(r["ok"] for r in responses)
        stats = run(traced.handle({"op": "stats"}))
        assert stats["ok"]
        samples = stats["result"]["samples"]
        assert max(s["queue_depth"] for s in samples) >= 1
        assert max(s["inflight"] for s in samples) >= 1
        assert stats["result"]["gauges"]["serve.queue_depth"] >= 1
        assert stats["result"]["gauges"]["serve.inflight_requests"] >= 1

    def test_stats_and_trace_never_record_spans(self, traced):
        run(traced.handle(dict(WORKLOAD)))
        before = len(traced.spans)
        stats = run(traced.handle({"op": "stats"}))
        trace = run(traced.handle({"op": "trace"}))
        assert stats["ok"] and trace["ok"]
        assert len(traced.spans) == before
        assert "trace_id" not in stats["meta"]

    def test_trace_op_filters_to_one_tree(self, traced):
        a = run(traced.handle(dict(WORKLOAD)))
        b = run(traced.handle({**WORKLOAD, "seed": 3}))
        tid = a["meta"]["trace_id"]
        response = run(traced.handle({"op": "trace", "trace_id": tid}))
        spans = response["result"]["spans"]
        assert spans and all(s["trace_id"] == tid for s in spans)
        assert b["meta"]["trace_id"] != tid

    def test_stats_and_trace_over_tcp(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=1, trace_requests=True
        )
        with BackgroundServer(svc) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                cold = client.simulate("gzip", length=1500)
                assert cold["ok"]
                meta = cold["meta"]
                assert sum(meta["latency_stack_ns"].values()) == meta["wall_ns"]
                stats = client.stats()
                assert stats["ok"]
                assert stats["result"]["tracing"] is True
                tree = client.trace(trace_id=meta["trace_id"])
                assert tree["ok"]
                names = {s["name"] for s in tree["result"]["spans"]}
                assert "request" in names and "pool_execute" in names


class TestManifestMerge:
    def test_manifest_carries_merged_spans_and_telemetry(self, traced):
        run(traced.handle(dict(WORKLOAD)))
        path = traced.write_manifest()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["telemetry"]
        assert payload["latency_quantiles_ms"]
        spans = payload["spans"]
        assert spans == merge_span_snapshots([spans])  # canonical order
        assert {s["name"] for s in spans} >= {"request", "pool_execute"}

    def test_per_shard_snapshot_merge_is_order_independent(self, traced):
        run(traced.handle(dict(WORKLOAD)))
        run(traced.handle({**WORKLOAD, "seed": 3}))
        snapshot = traced.spans.snapshot()
        # Split as if two shards reported independently, in any order.
        a, b = snapshot[::2], snapshot[1::2]
        assert merge_span_snapshots([a, b]) == merge_span_snapshots([b, a])
        assert len(merge_span_snapshots([a, b, snapshot])) == len(snapshot)


class TestFlameFolding:
    def test_cold_request_folds_into_rooted_paths(self, traced):
        from repro.obs.spans import collapse_stacks

        run(traced.handle(dict(WORKLOAD)))
        lines = collapse_stacks(traced.spans.snapshot())
        paths = [line.rsplit(" ", 1)[0] for line in lines]
        # Worker span ids are namespaced under their dispatch span, so
        # every parent edge resolves and every frame path is rooted at
        # the request span — no scrambled or cyclic chains.
        assert paths and all(p.startswith("request") for p in paths)
        assert any(
            p.startswith("request;pool_execute;worker_execute")
            for p in paths
        )


class TestAbortedSpans:
    def test_shard_death_closes_spans_as_aborted_never_dangling(
        self, tmp_path
    ):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2, trace_requests=True,
            service_id="serve-obs-abort",
        )
        faults.enable("pool.worker:kill@1")  # before start: workers fork at start
        svc.start()
        try:
            async def drive():
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(svc.handle(dict(WORKLOAD)) for _ in range(3))
                    ),
                    timeout=120,
                )

            responses = run(drive())
            assert all(not r["ok"] for r in responses)
            assert all(
                r["error"]["type"] == ERR_SHARD_CRASHED for r in responses
            )
            aborted = [
                s for s in svc.spans.snapshot() if s["status"] == "aborted"
            ]
            assert aborted
            assert any(s["name"] == "pool_execute" for s in aborted)
            assert all(
                s["args"]["abort_reason"] == "shard-crashed" for s in aborted
            )
            # Every span the collector holds is closed: nothing dangles.
            assert len(svc.spans) == len(svc.spans.snapshot())
            assert all(
                s["end_ns"] is not None for s in svc.spans.snapshot()
            )
        finally:
            faults.reset()
            svc.close()


class TestByteIdentity:
    def test_same_seed_warm_run_exports_byte_identical_trace(self, tmp_path):
        # Seed the store once (pool path, real clock — not exported).
        seeder = ExperimentService(store_root=tmp_path / "cache", n_shards=2)
        seeder.start()
        try:
            assert run(seeder.handle(dict(WORKLOAD)))["ok"]
        finally:
            seeder.close()

        def traced_run(out_path):
            svc = ExperimentService(
                store_root=tmp_path / "cache", n_shards=2,
                trace_requests=True, span_clock=Tick(),
            )
            try:
                first = run(svc.handle(dict(WORKLOAD)))
                second = run(svc.handle(dict(WORKLOAD)))
                assert first["ok"] and second["ok"]
                assert first["meta"]["source"] == "store"
                assert second["meta"]["source"] == "tier0"
                spans = merge_span_snapshots([svc.spans.snapshot()])
                return write_chrome_trace_spans(spans, out_path)
            finally:
                svc.close()

        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert traced_run(out_a) == traced_run(out_b)
        assert out_a.read_bytes() == out_b.read_bytes()
        events = json.loads(out_a.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
