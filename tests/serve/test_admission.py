"""Admission control and brownout: budgets, hints, the ladder, wiring."""

import asyncio

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults
from repro.serve import protocol
from repro.serve.admission import (
    BROWNOUT_LEVELS,
    AdmissionController,
    AdmissionPolicy,
    BrownoutController,
)
from repro.serve.service import ExperimentService


def make_controller(**overrides):
    policy = AdmissionPolicy(**overrides)
    return AdmissionController(policy, MetricsRegistry(), n_shards=2), policy


class TestAdmissionController:
    def test_admits_within_budgets_and_reserves_bytes(self):
        ctl, _ = make_controller()
        assert ctl.try_admit(0, depth=0, cost_bytes=100) is None
        assert ctl.queued_bytes[0] == 100
        ctl.release(0, 100)
        assert ctl.queued_bytes[0] == 0

    def test_sheds_on_queue_depth(self):
        ctl, policy = make_controller(max_depth=4)
        decision = ctl.try_admit(1, depth=4, cost_bytes=10)
        assert decision is not None
        assert decision.reason == "queue-depth"
        assert decision.shard == 1
        assert decision.retry_after_ms >= policy.retry_after_base_ms
        with pytest.raises(protocol.OverloadedError) as excinfo:
            decision.raise_overloaded()
        assert excinfo.value.retryable is True
        assert excinfo.value.retry_after_ms == decision.retry_after_ms

    def test_sheds_on_byte_budget(self):
        ctl, _ = make_controller(max_bytes=1000)
        assert ctl.try_admit(0, depth=0, cost_bytes=900) is None
        decision = ctl.try_admit(0, depth=1, cost_bytes=200)
        assert decision is not None and decision.reason == "queue-bytes"
        # The rejected request's bytes were never reserved.
        assert ctl.queued_bytes[0] == 900

    def test_release_never_goes_negative(self):
        ctl, _ = make_controller()
        ctl.release(0, 500)
        assert ctl.queued_bytes[0] == 0

    def test_ewma_folds_service_time(self):
        ctl, _ = make_controller(ewma_alpha=0.5)
        ctl.try_admit(0, 0, 10)
        ctl.release(0, 10, service_time_ms=100.0)
        assert ctl.ewma_ms[0] == pytest.approx(100.0)  # first sample
        ctl.try_admit(0, 0, 10)
        ctl.release(0, 10, service_time_ms=200.0)
        assert ctl.ewma_ms[0] == pytest.approx(150.0)

    def test_retry_hint_is_deterministic_and_staggered(self):
        a, _ = make_controller(max_depth=1)
        b, _ = make_controller(max_depth=1)
        hints_a = [
            a.try_admit(0, depth=5, cost_bytes=1).retry_after_ms
            for _ in range(4)
        ]
        hints_b = [
            b.try_admit(0, depth=5, cost_bytes=1).retry_after_ms
            for _ in range(4)
        ]
        # Same seed + same shed sequence => identical hints (no wall
        # clock anywhere); consecutive sheds get different jitter.
        assert hints_a == hints_b
        policy = a.policy
        assert all(
            policy.retry_after_base_ms <= h <= policy.retry_after_cap_ms
            for h in hints_a
        )

    def test_retry_hint_scales_with_backlog_drain(self):
        ctl, _ = make_controller(max_depth=1)
        ctl.ewma_ms[0] = 100.0  # 100 ms per job
        shallow = ctl.retry_after_ms(0, depth=1)
        ctl.sheds += 1  # advance the jitter stream either way
        deep = ctl.retry_after_ms(0, depth=30)
        assert deep > shallow

    def test_pressure_is_worst_of_three_signals(self):
        ctl, _ = make_controller(
            max_depth=10, max_bytes=1000, drain_target_ms=1000.0
        )
        assert ctl.pressure(0, depth=0) == 0.0
        ctl.queued_bytes[0] = 900
        assert ctl.pressure(0, depth=1) == pytest.approx(0.9)
        ctl.ewma_ms[0] = 500.0  # drain = 500ms * 4 = 2.0 of target
        assert ctl.pressure(0, depth=4) == pytest.approx(2.0)

    def test_max_pressure_follows_every_input(self):
        """The reused answer tracks direct writes to the byte and EWMA
        tables and the depths, not only admits and releases."""
        ctl, _ = make_controller(
            max_depth=10, max_bytes=1000, drain_target_ms=1000.0
        )
        depths = [0, 0]
        assert ctl.max_pressure(depths) == 0.0
        ctl.queued_bytes[1] = 900
        assert ctl.max_pressure(depths) == pytest.approx(0.9)
        ctl.ewma_ms[0] = 500.0
        assert ctl.max_pressure(depths) == pytest.approx(0.9)
        depths[0] = 4  # drain = 500ms * 4 = 2.0 of target
        assert ctl.max_pressure(depths) == pytest.approx(2.0)
        ctl.queued_bytes[1] = 0
        ctl.ewma_ms[0] = 0.0
        assert ctl.max_pressure(depths) == pytest.approx(0.4)
        assert ctl.max_pressure([]) == 0.0

    def test_injected_fault_forces_a_shed(self):
        ctl, _ = make_controller()
        faults.enable("serve.admit:raise@1")
        try:
            decision = ctl.try_admit(0, depth=0, cost_bytes=1)
            assert decision is not None
            assert decision.reason == "injected-fault"
            # Counted like any organic shed.
            assert ctl.sheds == 1
        finally:
            faults.reset()


class TestBrownoutController:
    def make(self, **overrides):
        policy = AdmissionPolicy(
            brownout_raise_after=2, brownout_lower_after=3, **overrides
        )
        return BrownoutController(policy, MetricsRegistry())

    def test_ladder_raises_with_hysteresis(self):
        ctl = self.make()
        assert ctl.observe(0.9) == 0  # one spike is not sustained
        assert ctl.observe(0.9) == 1
        assert ctl.label == "no-tracing"
        assert ctl.observe(0.9) == 1
        assert ctl.observe(0.9) == 2  # lean-cache
        assert ctl.observe(0.9) == 2
        assert ctl.observe(0.9) == 3  # shed-sweeps (top of the ladder)
        assert ctl.observe(0.9) == 3  # cannot exceed the ladder

    def test_middle_pressure_holds_level(self):
        ctl = self.make()
        ctl.observe(0.9)
        ctl.observe(0.9)
        assert ctl.level == 1
        for _ in range(10):
            assert ctl.observe(0.5) == 1  # between low and high: hold

    def test_recovery_needs_longer_calm(self):
        ctl = self.make()
        ctl.observe(0.9)
        ctl.observe(0.9)
        assert ctl.level == 1
        assert ctl.observe(0.1) == 1
        assert ctl.observe(0.1) == 1
        assert ctl.observe(0.1) == 0  # third calm sample lowers

    def test_levels_gate_the_right_luxuries(self):
        ctl = self.make()
        assert ctl.tracing_allowed() is True
        assert ctl.tier0_admit_bytes() is None
        assert ctl.shed_sweeps() is False
        ctl._set_level(1)
        assert ctl.tracing_allowed() is False
        assert ctl.tier0_admit_bytes() is None
        ctl._set_level(2)
        assert ctl.tier0_admit_bytes() == ctl.policy.tier0_lean_bytes
        assert ctl.shed_sweeps() is False
        ctl._set_level(3)
        assert ctl.shed_sweeps() is True
        assert ctl.label == BROWNOUT_LEVELS[3]

    def test_transitions_are_counted_and_gauged(self):
        metrics = MetricsRegistry()
        policy = AdmissionPolicy(brownout_raise_after=1, brownout_lower_after=1)
        ctl = BrownoutController(policy, metrics)
        ctl.observe(0.9)
        ctl.observe(0.1)
        snap = metrics.snapshot()
        assert snap["counters"]["serve.overload_transitions_total"] == 2
        assert snap["gauges"]["serve.brownout_level"] == 0


REQUEST = {"op": "simulate", "workload": "gzip", "length": 600}


class TestServiceIntegration:
    def test_forced_shed_is_a_typed_retryable_response(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-a",
        )
        svc.start()
        faults.enable("serve.admit:raise@1")
        try:
            response = asyncio.run(svc.handle(dict(REQUEST)))
            assert response["ok"] is False
            error = response["error"]
            assert error["type"] == protocol.ERR_OVERLOADED
            assert error["retryable"] is True
            assert error["retry_after_ms"] >= 1
            snap = svc.metrics.snapshot()["counters"]
            assert snap["serve.overload_sheds_total"] == 1
            # Shed before journal/submit: nothing reached a shard.
            assert all(not s.pending for s in svc.shards)
            assert snap["serve.pool_executions_total"] == 0
        finally:
            faults.reset()
            svc.close()

    def test_cached_requests_are_never_shed(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-b",
        )
        svc.start()
        try:
            warm = asyncio.run(svc.handle(dict(REQUEST)))
            assert warm["ok"]
            # Every admission decision from here on sheds — but a warm
            # request never reaches admission (it lives below the
            # cache), so the hit is served.
            faults.enable("serve.admit:raise@1x*")
            cached = asyncio.run(svc.handle(dict(REQUEST)))
            assert cached["ok"]
            assert cached["meta"]["source"] == "tier0"
        finally:
            faults.reset()
            svc.close()

    def test_brownout_shed_sweeps_rejects_sweep_keeps_simulate(
        self, tmp_path
    ):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-c",
        )
        svc.start()
        try:
            svc.brownout._set_level(3)
            sweep = asyncio.run(svc.handle({
                "op": "sweep", "workload": "gzip", "length": 600,
                "parameter": "rob", "values": [32, 64],
            }))
            assert sweep["ok"] is False
            assert sweep["error"]["type"] == protocol.ERR_OVERLOADED
            assert sweep["error"]["retryable"] is True
            simulate = asyncio.run(svc.handle(dict(REQUEST)))
            assert simulate["ok"]
            snap = svc.metrics.snapshot()["counters"]
            assert snap["serve.overload_shed_sweeps_total"] == 1
            assert snap["serve.overload_sheds_total"] == 1
        finally:
            svc.close()

    def test_brownout_disables_tracing_even_when_pinned(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-d", trace_requests=True,
        )
        svc.start()
        try:
            assert svc._tracing_on() is True
            svc.brownout._set_level(1)
            assert svc._tracing_on() is False
            traced = asyncio.run(svc.handle(dict(REQUEST)))
            assert traced["ok"]
            assert "trace_id" not in traced["meta"]
        finally:
            svc.close()

    def test_brownout_lean_cache_cap_applied_on_sampling(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-e",
        )
        svc.start()
        try:
            svc.brownout._set_level(2)
            svc._sample_queues()
            assert (
                svc.cache.tier0_admit_bytes
                == svc.admission_policy.tier0_lean_bytes
            )
            svc.brownout._set_level(0)
            svc._sample_queues()
            assert svc.cache.tier0_admit_bytes is None
        finally:
            svc.close()

    def test_status_and_stats_carry_overload_sections(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-f",
        )
        svc.start()
        try:
            status = svc.status_payload()
            assert status["admission"]["max_depth"] == 64
            assert status["brownout"]["label"] == "normal"
            stats = svc.stats_payload()
            assert "admission" in stats and "brownout" in stats
            gauges = svc.metrics.snapshot()["gauges"]
            for name in (
                "serve.queue_depth_current",
                "serve.brownout_level",
                "serve.shard0_queue_depth",
                "serve.shard1_queue_depth",
            ):
                assert name in gauges
        finally:
            svc.close()

    def test_telemetry_samples_carry_pressure_and_brownout(self, tmp_path):
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-g",
        )
        svc.start()
        try:
            asyncio.run(svc.handle(dict(REQUEST)))
            sample = list(svc._telemetry)[-1]
            assert "pressure" in sample and "brownout" in sample
        finally:
            svc.close()

    def test_sampled_pressure_follows_admission_state(self, tmp_path):
        """A sample reuses the last pressure only while the depths and
        the admission state are unchanged: bytes admitted or released
        between samples show in the next one."""
        svc = ExperimentService(
            store_root=tmp_path / "cache", n_shards=2,
            service_id="serve-admit-h",
        )
        svc.start()
        try:
            svc._sample_queues()
            assert svc._telemetry[-1]["pressure"] == pytest.approx(0.0)
            cost = svc.admission_policy.max_bytes // 2
            assert svc.admission.try_admit(1, depth=0, cost_bytes=cost) is None
            svc._sample_queues()
            assert svc._telemetry[-1]["pressure"] == pytest.approx(0.5)
            svc.admission.release(1, cost)
            svc._sample_queues()
            assert svc._telemetry[-1]["pressure"] == pytest.approx(0.0)
        finally:
            svc.close()


class TestTier0AdmissionCap:
    def test_cap_blocks_large_payloads_from_tier0_only(self, tmp_path):
        from repro.serve.cache import TieredCache, json_sizeof

        from repro.lab.store import ResultStore

        cache = TieredCache(ResultStore(root=tmp_path / "cache"))
        big = {"x": "y" * 4096}
        small = {"x": 1}
        cache.tier0_admit_bytes = 64
        cache.admit("a" * 64, big)
        cache.admit("b" * 64, small)
        assert cache.tier0.get("a" * 64) is None
        assert cache.tier0.get("b" * 64) == small
        assert json_sizeof(big) > 64 >= json_sizeof(small)
        cache.tier0_admit_bytes = None
        cache.admit("a" * 64, big)
        assert cache.tier0.get("a" * 64) == big
