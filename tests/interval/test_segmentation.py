"""Unit tests for interval segmentation."""

import pytest

from repro.interval.segmentation import Interval, segment_intervals
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEventKind,
)
from repro.pipeline.result import SimulationResult


def mispredict(seq, cycle=0):
    return BranchMispredictEvent(
        seq=seq, cycle=cycle, resolve_cycle=cycle + 10, refill_cycles=5,
        window_occupancy=8,
    )


def icache(seq):
    return ICacheMissEvent(seq=seq, cycle=0, latency=10)


def long_miss(seq):
    return LongDMissEvent(seq=seq, cycle=0, complete_cycle=250)


def result_with(events, instructions=100):
    return SimulationResult(
        instructions=instructions, cycles=1000, events=list(events)
    )


class TestSegmentation:
    def test_no_events_single_tail_interval(self):
        breakdown = segment_intervals(result_with([], instructions=50))
        assert len(breakdown.intervals) == 1
        interval = breakdown.intervals[0]
        assert interval.event is None
        assert interval.length == 50

    def test_single_event_splits_stream(self):
        breakdown = segment_intervals(result_with([mispredict(30)]))
        assert len(breakdown.intervals) == 2
        first, tail = breakdown.intervals
        assert first.start_seq == 0
        assert first.end_seq == 30
        assert first.length == 31
        assert first.kind is MissEventKind.BRANCH_MISPREDICT
        assert tail.start_seq == 31
        assert tail.event is None

    def test_intervals_partition_the_stream(self):
        events = [mispredict(10), icache(40), long_miss(70)]
        breakdown = segment_intervals(result_with(events))
        covered = []
        for interval in breakdown.intervals:
            covered.extend(range(interval.start_seq, interval.end_seq + 1))
        assert covered == list(range(100))

    def test_event_on_last_instruction_no_tail(self):
        breakdown = segment_intervals(result_with([mispredict(99)]))
        assert len(breakdown.intervals) == 1

    def test_same_seq_events_merge_by_priority(self):
        events = [icache(20), mispredict(20)]
        breakdown = segment_intervals(result_with(events))
        assert breakdown.intervals[0].kind is MissEventKind.BRANCH_MISPREDICT
        assert breakdown.event_count == 1

    def test_long_miss_beats_icache_in_merge(self):
        events = [icache(20), long_miss(20)]
        breakdown = segment_intervals(result_with(events))
        assert breakdown.intervals[0].kind is MissEventKind.LONG_DCACHE_MISS

    def test_gap_property(self):
        breakdown = segment_intervals(result_with([mispredict(10), mispredict(25)]))
        first, second, _tail = breakdown.intervals
        assert first.gap == 10  # instructions before the event
        assert second.gap == 14

    def test_interval_length_positive(self):
        events = [mispredict(0), mispredict(1)]
        breakdown = segment_intervals(result_with(events))
        for interval in breakdown.intervals:
            assert interval.length >= 1


class TestBreakdownStats:
    def test_mean_interval_length_excludes_tail(self):
        events = [mispredict(9), mispredict(19)]
        breakdown = segment_intervals(result_with(events, instructions=100))
        assert breakdown.mean_interval_length == pytest.approx(10.0)

    def test_length_histogram(self):
        events = [mispredict(9), mispredict(19), icache(29)]
        breakdown = segment_intervals(result_with(events))
        hist = breakdown.length_histogram()
        assert hist.total == 3
        assert hist.count(10) == 3

    def test_length_histogram_filtered_by_kind(self):
        events = [mispredict(9), icache(29)]
        breakdown = segment_intervals(result_with(events))
        hist = breakdown.length_histogram(MissEventKind.ICACHE_MISS)
        assert hist.total == 1

    def test_burstiness_uniform_vs_clustered(self):
        uniform = segment_intervals(
            result_with([mispredict(s) for s in range(9, 100, 10)])
        )
        clustered = segment_intervals(
            result_with(
                [mispredict(s) for s in (1, 2, 3, 4, 50, 51, 52, 53, 99)]
            )
        )
        assert clustered.burstiness() > uniform.burstiness()

    def test_interval_dataclass_properties(self):
        interval = Interval(start_seq=5, end_seq=9, event=mispredict(9))
        assert interval.length == 5
        assert interval.gap == 4
        assert interval.kind is MissEventKind.BRANCH_MISPREDICT
