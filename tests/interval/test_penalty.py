"""Unit tests for penalty measurement and aggregation."""

import pytest

from repro.interval.penalty import (
    bucket_resolution_by_gap,
    measure_penalties,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from tests.trace.records import TraceRecord, trace_of


def make_trace_with_mispredicts(gaps):
    """IALU runs separated by mispredicted branches at the given gaps."""
    records = []
    for gap in gaps:
        records.extend(TraceRecord(OpClass.IALU, deps=(1,) if records else ())
                       for _ in range(gap))
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,)))
    records.extend(TraceRecord(OpClass.IALU) for _ in range(10))
    return trace_of(records)


@pytest.fixture(scope="module")
def measured(small_trace, base_config, small_result):
    return measure_penalties(small_result)


class TestMeasurement:
    def test_one_decomposition_per_mispredict(self, measured, small_result):
        assert measured.count == len(small_result.mispredict_events)

    def test_penalty_sums_components(self, measured):
        for item in measured.decompositions:
            assert item.penalty == item.resolution + item.refill

    def test_resolution_non_negative(self, measured):
        for item in measured.decompositions:
            assert item.resolution >= 1

    def test_refill_is_frontend_depth(self, measured, base_config):
        for item in measured.decompositions:
            assert item.refill == base_config.frontend_depth

    def test_mean_penalty_exceeds_refill(self, measured, base_config):
        assert measured.mean_penalty > base_config.frontend_depth
        assert measured.penalty_over_refill > 1.0

    def test_gap_matches_segmentation(self, measured):
        for item in measured.decompositions:
            assert item.gap >= 0

    def test_empty_result_report(self):
        trace = trace_of([TraceRecord(OpClass.IALU) for _ in range(10)])
        result = simulate(trace, CoreConfig())
        report = measure_penalties(result)
        assert report.count == 0
        assert report.mean_penalty == 0.0


class TestGapBuckets:
    def test_bucket_rows_cover_all_events(self, measured):
        rows = bucket_resolution_by_gap(measured)
        assert sum(count for _, count, _ in rows) == measured.count

    def test_bucket_labels(self, measured):
        rows = bucket_resolution_by_gap(measured, edges=(4, 8))
        labels = [label for label, _, _ in rows]
        assert labels == ["0-4", "5-8", ">8"]

    def test_short_gaps_resolve_faster(self):
        trace = make_trace_with_mispredicts([2] * 60 + [120] * 60)
        result = simulate(trace, CoreConfig())
        report = measure_penalties(result)
        rows = bucket_resolution_by_gap(report, edges=(8, 64))
        short_mean = rows[0][2]
        long_mean = rows[2][2]
        assert rows[0][1] > 0 and rows[2][1] > 0
        assert long_mean > short_mean

