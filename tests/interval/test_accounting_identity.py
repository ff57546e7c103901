"""Accounting identities the sanitizer enforces, checked exactly.

Two invariants anchor the whole reproduction:

* the CPI stack's components sum to the measured total cycles, and
* every misprediction's penalty is resolution + frontend refill.
"""

from __future__ import annotations

import pytest

from repro.interval.cpi_stack import build_cpi_stack
from repro.interval.model import IntervalModel
from repro.interval.penalty import measure_penalties
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.events import BranchMispredictEvent
from repro.workloads.spec_profiles import SPEC_PROFILES

TOLERANCE = 1e-9
WORKLOADS = ["gzip", "mcf", "twolf"]


@pytest.fixture(scope="module", params=WORKLOADS)
def simulated(request):
    from repro.trace.synthetic import generate_trace

    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES[request.param], 8_000, seed=2006)
    return trace, config, simulate(trace, config)


def test_cpi_stack_components_sum_to_total_cycles(simulated):
    _, config, result = simulated
    stack = build_cpi_stack(result, config.dispatch_width)
    total = (
        stack.base
        + stack.bpred
        + stack.icache
        + stack.long_dcache
        + stack.other
    )
    assert abs(total - result.cycles) <= TOLERANCE


def test_component_cpis_sum_to_measured_cpi(simulated):
    _, config, result = simulated
    stack = build_cpi_stack(result, config.dispatch_width)
    assert abs(sum(stack.component_cpi().values()) - stack.cpi) <= TOLERANCE
    assert abs(sum(stack.fractions().values()) - 1.0) <= TOLERANCE


def test_every_penalty_is_resolution_plus_frontend_depth(simulated):
    _, config, result = simulated
    report = measure_penalties(result)
    assert report.count > 0
    for item in report.decompositions:
        assert item.refill == config.frontend_depth
        assert item.penalty == item.resolution + config.frontend_depth


def test_event_log_agrees_with_the_identity(simulated):
    _, config, result = simulated
    for event in result.events:
        if isinstance(event, BranchMispredictEvent):
            assert event.penalty == event.resolution + event.refill_cycles
            assert event.refill_cycles == config.frontend_depth


def test_mean_penalty_is_mean_resolution_plus_depth(simulated):
    _, config, result = simulated
    report = measure_penalties(result)
    assert (
        abs(report.mean_penalty - (report.mean_resolution + config.frontend_depth))
        <= TOLERANCE
    )


def test_tracer_observes_the_identity_per_event():
    """Every traced span independently reproduces the penalty identity.

    The tracer records dispatch/resolve/refill per mispredict as the
    pipeline runs; resolve − dispatch + frontend_depth must equal the
    penalty the event log recorded — for every event, not on average.
    """
    from repro.obs import runtime as obs_runtime
    from repro.obs.export import jsonl_records
    from repro.obs.tracer import KIND_BPRED
    from repro.trace.synthetic import generate_trace

    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES["gzip"], 8_000, seed=2006)
    obs_runtime.enable_tracing()
    try:
        result = simulate(trace, config)
        tracer = obs_runtime.drain_trace()
    finally:
        obs_runtime.reset()
    events = {
        event.seq: event
        for event in result.events
        if isinstance(event, BranchMispredictEvent)
    }
    spans = [r for r in jsonl_records(tracer) if r.get("kind") == KIND_BPRED]
    assert len(spans) == len(events) > 0
    for span in spans:
        event = events[span["seq"]]
        resolution = span["resolve_cycle"] - span["dispatch_cycle"]
        assert resolution == event.resolution
        assert resolution + config.frontend_depth == event.penalty
        assert span["duration_cycles"] == event.penalty


def test_fast_estimate_obeys_the_same_identity(simulated):
    trace, config, _ = simulated
    fast = IntervalModel(config).estimate(trace)
    expected = (
        sum(fast.resolutions)
        + len(fast.resolutions) * config.frontend_depth
    )
    assert fast.mispredict_cycles == expected
