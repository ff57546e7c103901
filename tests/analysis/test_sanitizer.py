"""Runtime sanitizer: hooks, injected bugs, ambient lifecycle."""

from __future__ import annotations

import pytest

from repro.analysis import sanitizer
from repro.interval.cpi_stack import CPIStack, build_cpi_stack
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace

from tests.pipeline.rob import ReorderBuffer


@pytest.fixture(autouse=True)
def isolated_sanitizer():
    """Every test starts and ends with pristine ambient state."""
    sanitizer.reset()
    yield
    sanitizer.reset()


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
    assert sanitizer.current() is None
    assert sanitizer.drain_report() is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    assert sanitizer.enabled()
    assert sanitizer.current() is not None


def test_enable_exports_to_environment(monkeypatch):
    # setenv, not delenv: monkeypatch then restores the variable's
    # absence, so enable()'s export does not leak into later tests.
    monkeypatch.setenv(sanitizer.ENV_VAR, "0")
    sanitizer.enable()
    import os

    assert os.environ[sanitizer.ENV_VAR] == "1"
    assert sanitizer.current() is not None


def test_injected_rob_overflow_is_reported_not_raised():
    """Acceptance: a ROB-overflow bug is caught as a structured report."""
    san = sanitizer.Sanitizer()
    rob = ReorderBuffer(2, sanitizer=san)
    for seq in range(3):  # one past capacity; without a sanitizer: raise
        rob.dispatch(seq)
    report = san.report()
    assert not report.ok
    [violation] = report.violations
    assert violation.check == "rob-overflow"
    assert violation.seq == 2
    assert "2/2" in violation.message


def test_rob_overflow_without_sanitizer_still_raises():
    rob = ReorderBuffer(1)
    rob.dispatch(0)
    with pytest.raises(RuntimeError):
        rob.dispatch(1)


def test_injected_out_of_order_dispatch_is_reported():
    san = sanitizer.Sanitizer()
    rob = ReorderBuffer(8, sanitizer=san)
    rob.dispatch(5)
    rob.dispatch(3)
    assert [v.check for v in san.violations] == ["rob-order"]


def test_injected_non_monotonic_commit_is_reported():
    """Acceptance: a commit-clock regression is caught and reported."""
    san = sanitizer.Sanitizer()
    san.begin_run()
    san.check_commit(5, seq=0)
    san.check_commit(3, seq=1)
    report = san.report()
    assert not report.ok
    [violation] = report.violations
    assert violation.check == "commit-monotonic"
    assert violation.cycle == 3
    assert violation.seq == 1


def test_begin_run_resets_the_commit_clock():
    san = sanitizer.Sanitizer()
    san.check_commit(100)
    san.begin_run()
    san.check_commit(1)  # a new simulation legitimately restarts at 0
    assert san.report().ok


def test_occupancy_over_capacity_is_reported():
    san = sanitizer.Sanitizer()
    san.check_occupancy(cycle=10, occupancy=129, capacity=128)
    [violation] = san.violations
    assert violation.check == "rob-occupancy"
    assert violation.cycle == 10


def test_cpi_stack_identity_violation_is_reported():
    san = sanitizer.Sanitizer()
    bogus = CPIStack(
        instructions=100,
        total_cycles=1000,
        base=25.0,
        bpred=10.0,
        icache=5.0,
        long_dcache=0.0,
        other=900.0,  # sums to 940, not 1000
    )
    san.check_cpi_stack(bogus)
    [violation] = san.violations
    assert violation.check == "cpi-stack-identity"


def test_full_default_run_is_clean(monkeypatch):
    """Acceptance: a sanitized default run reports zero violations."""
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    trace = generate_trace(WorkloadProfile(name="san"), 8_000, seed=99)
    config = CoreConfig()
    result = simulate(trace, config)
    build_cpi_stack(result, config.dispatch_width)
    simulate_inorder(trace, config)
    report = sanitizer.drain_report()
    assert report is not None
    assert report.runs == 2
    assert report.checks_run > 0
    assert report.ok, report.render()


def test_drain_starts_a_fresh_window(monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    san = sanitizer.current()
    san.check_occupancy(0, 5, 4)
    first = sanitizer.drain_report()
    assert first is not None and not first.ok
    second = sanitizer.drain_report()
    assert second is None  # nothing ran since the drain


def test_report_payload_round_trips_to_json():
    import json

    san = sanitizer.Sanitizer()
    san.check_occupancy(7, 10, 8)
    payload = json.loads(json.dumps(san.report().as_payload()))
    assert payload["ok"] is False
    assert payload["violations"][0]["check"] == "rob-occupancy"
    assert payload["violations"][0]["cycle"] == 7


def test_sanitized_simulation_matches_unsanitized(monkeypatch):
    """The sanitizer observes; it must never change simulated results,
    wrong-path ghosts and random issue included."""
    from repro.lab.codec import result_to_payload

    trace = generate_trace(WorkloadProfile(name="same"), 5_000, seed=3)
    for config in (
        CoreConfig(),
        CoreConfig(rob_size=32, dispatch_wrong_path=True),
        CoreConfig(issue_policy="random", seed=5),
    ):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        plain = result_to_payload(simulate(trace, config))
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        sanitized = result_to_payload(simulate(trace, config))
        report = sanitizer.drain_report()
        assert plain == sanitized, config
        assert report is not None and report.ok, config


# -- per-instruction stage ordering, checked in the cores at commit ----------


def _stage_trace():
    return generate_trace(WorkloadProfile(name="stages"), 3_000, seed=11)


def _run_core(core, trace, config):
    if core == "ooo":
        return simulate(trace, config)
    return simulate_inorder(trace, config)


@pytest.mark.parametrize("record_timeline", [True, False])
@pytest.mark.parametrize("core", ["ooo", "inorder"])
def test_completion_below_issue_is_one_stage_violation_per_seq(
    monkeypatch, core, record_timeline
):
    """A core whose completion lands a cycle before its issue records
    ``stage-ordering`` once for each such seq, timeline or not."""
    from repro.perf import batchcore

    bad = [500, 1200, 2400]
    combined = batchcore._combined_latency

    def completes_before_issue(cols, miss, fu):
        lat = list(combined(cols, miss, fu))
        for seq in bad:
            lat[seq] = -1
        return lat

    monkeypatch.setattr(batchcore, "_combined_latency", completes_before_issue)
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    config = CoreConfig(record_timeline=record_timeline)
    _run_core(core, _stage_trace(), config)
    report = sanitizer.drain_report()
    flagged = [v.seq for v in report.violations if v.check == "stage-ordering"]
    assert flagged == bad, report.render()


@pytest.mark.parametrize("core", ["ooo", "inorder"])
def test_untimed_run_checks_every_instruction_stage(monkeypatch, core):
    """A clean sanitized run makes one stage check per instruction and
    as many checks in all as its timed twin."""
    stage_checks = []
    check_stages = sanitizer.Sanitizer.check_stages

    def counting(self, seq, *cycles):
        stage_checks.append(seq)
        check_stages(self, seq, *cycles)

    monkeypatch.setattr(sanitizer.Sanitizer, "check_stages", counting)
    monkeypatch.setenv(sanitizer.ENV_VAR, "1")
    trace = _stage_trace()
    checks = {}
    for timed in (False, True):
        stage_checks.clear()
        result = _run_core(core, trace, CoreConfig(record_timeline=timed))
        assert (result.complete_cycle is None) is not timed
        report = sanitizer.drain_report()
        assert report.ok, report.render()
        assert sorted(stage_checks) == list(range(len(trace)))
        checks[timed] = report.checks_run
    assert checks[False] == checks[True]
