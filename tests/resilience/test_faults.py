"""Fault-spec grammar, arming semantics, and ambient activation."""

from __future__ import annotations

import os

import pytest

from repro.resilience import faults
from repro.resilience.faults import (
    FOREVER,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    parse_spec,
)


class TestGrammar:
    def test_parses_single_clause(self):
        plan = parse_spec("store.read:raise")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.site == "store.read"
        assert rule.action == "raise"
        assert rule.at_hit == 1
        assert rule.count == 1

    def test_parses_seed_hit_and_count(self):
        plan = parse_spec("seed=42;pool.worker:kill@3x2;job.execute:raise")
        assert plan.seed == 42
        kill = plan.rules[0]
        assert (kill.site, kill.action, kill.at_hit, kill.count) == (
            "pool.worker", "kill", 3, 2
        )

    def test_parses_delay_and_forever(self):
        plan = parse_spec("pool.worker:delay(1.5)@2x*")
        rule = plan.rules[0]
        assert rule.action == "delay"
        assert rule.delay_s == pytest.approx(1.5)
        assert rule.count == FOREVER

    def test_render_round_trips(self):
        spec = "seed=7;store.write:corrupt@2x3;store.read:delay(0.25)"
        plan = parse_spec(spec)
        again = parse_spec(plan.render())
        assert again.seed == plan.seed
        assert again.rules == plan.rules

    @pytest.mark.parametrize("bad", [
        "nosuch.site:raise",
        "store.read:explode",
        "store.read:raise@0",
        "store.read:raise@1x0",
        "store.read",
        "seed=oops;store.read:raise",
        "store.read:delay(nan-ish)",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)


class TestArming:
    def test_fires_at_nth_hit_only(self):
        plan = FaultPlan(rules=[FaultRule(site="job.execute",
                                          action="raise", at_hit=2)])
        plan.hit("job.execute", None, allow_kill=False)  # hit 1: armed later
        with pytest.raises(InjectedFault):
            plan.hit("job.execute", None, allow_kill=False)  # hit 2
        plan.hit("job.execute", None, allow_kill=False)  # hit 3: disarmed

    def test_count_window(self):
        plan = parse_spec("job.execute:raise@2x2")
        plan.hit("job.execute", None, allow_kill=False)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.hit("job.execute", None, allow_kill=False)
        plan.hit("job.execute", None, allow_kill=False)

    def test_sites_count_independently(self):
        plan = parse_spec("store.read:raise@2")
        plan.hit("store.write", b"x", allow_kill=False)
        plan.hit("store.read", b"x", allow_kill=False)
        with pytest.raises(InjectedFault):
            plan.hit("store.read", b"x", allow_kill=False)

    def test_corrupt_is_deterministic_and_changes_bytes(self):
        data = bytes(range(256)) * 4
        flipped1 = parse_spec("seed=9;store.read:corrupt").hit(
            "store.read", data, allow_kill=False
        )
        flipped2 = parse_spec("seed=9;store.read:corrupt").hit(
            "store.read", data, allow_kill=False
        )
        assert flipped1 == flipped2
        assert flipped1 != data
        assert len(flipped1) == len(data)
        other_seed = parse_spec("seed=10;store.read:corrupt").hit(
            "store.read", data, allow_kill=False
        )
        assert other_seed != flipped1

    def test_corrupt_without_payload_degrades_to_raise(self):
        plan = parse_spec("job.execute:corrupt")
        with pytest.raises(InjectedFault):
            plan.hit("job.execute", None, allow_kill=False)

    def test_kill_without_authorization_degrades_to_raise(self):
        # The coordinator/test runner must never be SIGKILLed by a plan.
        plan = parse_spec("pool.worker:kill")
        with pytest.raises(InjectedFault):
            plan.hit("pool.worker", None, allow_kill=False)

    def test_injected_counter(self):
        plan = parse_spec("job.execute:raise@1x2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.hit("job.execute", None, allow_kill=False)
        assert plan.injected == 2


class TestAmbient:
    def test_inactive_is_passthrough(self):
        assert faults.fault_point("store.read", b"abc") == b"abc"
        assert not faults.active()

    def test_enable_exports_env_and_disable_hides_it(self):
        faults.enable("seed=3;store.read:raise@5")
        assert os.environ[faults.ENV_VAR].startswith("seed=3")
        assert faults.active()
        faults.disable()
        assert not faults.active()  # forced off beats the env spec
        faults.reset()
        assert faults.ENV_VAR not in os.environ

    def test_env_activation(self):
        os.environ[faults.ENV_VAR] = "job.execute:raise"
        try:
            with pytest.raises(InjectedFault):
                faults.fault_point("job.execute")
        finally:
            faults.reset()

    def test_injected_context_manager_restores(self):
        with faults.injected("store.read:raise") as plan:
            assert faults.current_plan() is plan
        assert not faults.active()
