"""Unit tests for the interval timeline visualization."""

import pytest

from repro.interval.visualize import (
    interval_timeline,
    pick_illustrative_event,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from tests.trace.records import TraceRecord, trace_of


@pytest.fixture(scope="module")
def run_with_event():
    records = [TraceRecord(OpClass.IALU) for _ in range(200)]
    records.append(
        TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,))
    )
    records.extend(TraceRecord(OpClass.IALU) for _ in range(200))
    result = simulate(trace_of(records), CoreConfig())
    return result, result.mispredict_events[0]


class TestTimeline:
    def test_phases_in_order(self, run_with_event):
        result, event = run_with_event
        points = interval_timeline(result, event)
        phases = [p.phase for p in points]
        order = {"steady": 0, "resolving": 1, "refill": 2, "ramp-up": 3}
        ranks = [order[p] for p in phases]
        assert ranks == sorted(ranks)
        assert set(phases) == {"steady", "resolving", "refill", "ramp-up"}

    def test_steady_faster_than_refill(self, run_with_event):
        result, event = run_with_event
        points = interval_timeline(result, event)
        steady = [p.dispatch_rate for p in points if p.phase == "steady"]
        refill = [p.dispatch_rate for p in points if p.phase == "refill"]
        assert sum(steady) / len(steady) > sum(refill) / len(refill)

    def test_refill_rate_is_zero(self, run_with_event):
        result, event = run_with_event
        points = interval_timeline(result, event, bucket=1)
        refill = [p.dispatch_rate for p in points if p.phase == "refill"]
        assert all(rate == 0.0 for rate in refill)

    def test_requires_timeline(self, run_with_event):
        _, event = run_with_event
        records = [TraceRecord(OpClass.IALU)]
        result = simulate(trace_of(records), CoreConfig(record_timeline=False))
        with pytest.raises(ValueError, match="timeline"):
            interval_timeline(result, event)

    def test_bucket_validation(self, run_with_event):
        result, event = run_with_event
        with pytest.raises(ValueError):
            interval_timeline(result, event, bucket=0)


class TestEventPicking:
    def test_returns_none_without_events(self):
        result = simulate(
            trace_of([TraceRecord(OpClass.IALU)] * 10), CoreConfig()
        )
        assert pick_illustrative_event(result) is None

    def test_prefers_qualified_event(self, run_with_event):
        result, _ = run_with_event
        event = pick_illustrative_event(result, min_resolution=1,
                                        min_occupancy=0)
        assert event.resolution >= 1

    def test_falls_back_to_median(self, run_with_event):
        result, _ = run_with_event
        event = pick_illustrative_event(
            result, min_resolution=10_000, min_occupancy=10_000
        )
        assert event is not None
