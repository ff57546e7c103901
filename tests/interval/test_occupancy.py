"""Unit tests for window-occupancy reconstruction."""

import pytest

from repro.interval.occupancy import (
    occupancy_at_dispatch,
    occupancy_trace,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from tests.trace.records import TraceRecord, trace_of


def ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


class TestTrace:
    def test_occupancy_never_negative_or_above_rob(self, small_result,
                                                   base_config):
        for _cycle, occupancy in occupancy_trace(small_result):
            assert 0 <= occupancy <= base_config.rob_size

    def test_ends_empty(self, small_result):
        points = occupancy_trace(small_result)
        assert points[-1][1] == 0

    def test_requires_timeline(self):
        result = simulate(
            trace_of([ialu()]), CoreConfig(record_timeline=False)
        )
        with pytest.raises(ValueError, match="timeline"):
            occupancy_trace(result)

    def test_serial_chain_low_occupancy_bound(self):
        # A serial chain fills the window: occupancy rises to the ROB.
        records = [ialu((1,) if i else ()) for i in range(600)]
        config = CoreConfig(rob_size=64)
        result = simulate(trace_of(records), config)
        peak = max(occ for _, occ in occupancy_trace(result))
        assert peak == 64


def segments(result):
    """``(occupancy, cycles)`` spans from the first dispatch to the end of
    the run, the last change point held until ``result.cycles``."""
    points = occupancy_trace(result)
    ends = [cycle for cycle, _ in points[1:]] + [result.cycles]
    return [
        (occ, end - cycle) for (cycle, occ), end in zip(points, ends)
    ]


class TestSummary:
    def test_summary_consistency(self, small_result, base_config):
        spans = segments(small_result)
        total = sum(cycles for _, cycles in spans)
        assert total > 0
        mean = sum(occ * cycles for occ, cycles in spans) / total
        assert 0 <= mean <= base_config.rob_size
        full = sum(c for occ, c in spans if occ >= base_config.rob_size)
        assert 0.0 <= full / total <= 1.0
        peak = max(occ for occ, _ in spans)
        assert peak == small_result.rob_peak_occupancy

    def test_long_miss_fills_window(self):
        records = [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True)]
        records.extend(ialu() for _ in range(500))
        config = CoreConfig(rob_size=32)
        result = simulate(trace_of(records), config)
        spans = segments(result)
        assert max(occ for occ, _ in spans) == result.rob_peak_occupancy == 32
        # The window sits full for most of the run.
        full = sum(cycles for occ, cycles in spans if occ >= 32)
        total = sum(cycles for _, cycles in spans)
        assert full / total > 0.5


class TestAtDispatch:
    def test_matches_event_occupancy(self):
        """The reconstruction agrees with the core's own recording at
        mispredicted branches."""
        records = [ialu((1,) if i else ()) for i in range(100)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.extend(ialu() for _ in range(20))
        result = simulate(trace_of(records), CoreConfig())
        reconstructed = occupancy_at_dispatch(result)
        event = result.mispredict_events[0]
        assert reconstructed[event.seq] == event.window_occupancy

    def test_first_instruction_sees_empty_window(self, small_result):
        assert occupancy_at_dispatch(small_result)[0] == 0

    def test_bounded_by_rob(self, small_result, base_config):
        for occupancy in occupancy_at_dispatch(small_result):
            assert 0 <= occupancy <= base_config.rob_size
