"""Unit tests for the Trace container and its statistics."""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.stream import Trace
from tests.trace.records import (
    TraceRecord,
    branch_indices,
    is_annotated,
    mispredicted_indices,
    trace_of,
    unpack,
)


def _ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


def _branch(mispredict=None, taken=False):
    return TraceRecord(OpClass.BRANCH, taken=taken, mispredict=mispredict)


class TestContainer:
    def test_len(self):
        assert len(trace_of()) == 0
        assert len(trace_of([_ialu(), _ialu(), _ialu()])) == 3

    def test_has_no_mutators(self):
        trace = trace_of([_ialu()])
        for name in ("append", "extend", "version"):
            assert not hasattr(trace, name), name

    def test_records_unpack_from_columns(self):
        records = [_ialu(), _branch()]
        trace = trace_of(records)
        assert not hasattr(trace, "__getitem__")
        assert not hasattr(trace, "__iter__")
        assert unpack(trace)[1].is_branch
        assert unpack(trace) == records

    def test_slice(self):
        trace = trace_of([_ialu() for _ in range(10)])
        sub = trace.slice(2, 5)
        assert len(sub) == 3

    def test_validate_passes(self):
        trace_of([_ialu(deps=(1,)), _ialu()]).validate()


class TestAnnotationDetection:
    def test_annotated_when_branches_flagged(self):
        trace = trace_of([_ialu(), _branch(mispredict=False)])
        assert is_annotated(trace)

    def test_unannotated_when_flags_missing(self):
        trace = trace_of([_branch(mispredict=None)])
        assert not is_annotated(trace)

    def test_trace_without_branches_is_annotated(self):
        assert is_annotated(trace_of([_ialu()]))


class TestStatistics:
    def test_counts(self):
        trace = trace_of(
            [
                _ialu(deps=(1,)),
                _branch(mispredict=True, taken=True),
                _branch(mispredict=False, taken=False),
                TraceRecord(OpClass.LOAD, mem_addr=8, dl1_miss=True),
            ]
        )
        stats = trace.statistics()
        assert stats.instruction_count == 4
        assert stats.branch_count == 2
        assert stats.mispredict_count == 1
        assert stats.mispredict_rate == pytest.approx(0.5)
        assert stats.taken_fraction == pytest.approx(0.5)
        assert stats.dl1_miss_rate == pytest.approx(1.0)

    def test_mix_sums_to_one(self):
        trace = trace_of([_ialu(), _branch(), TraceRecord(OpClass.LOAD, mem_addr=0)])
        assert sum(trace.statistics().mix.values()) == pytest.approx(1.0)

    def test_empty_trace_statistics(self):
        stats = trace_of().statistics()
        assert stats.instruction_count == 0
        assert stats.mispredict_rate == 0.0

    def test_dependence_histogram(self):
        trace = trace_of([_ialu(), _ialu(deps=(1,)), _ialu(deps=(2, 1))])
        stats = trace.statistics()
        assert stats.dependence_histogram.count(1) == 2
        assert stats.dependence_histogram.count(2) == 1

    def test_indices_helpers(self):
        trace = trace_of([_ialu(), _branch(mispredict=True), _branch(mispredict=False)])
        assert branch_indices(trace) == [1, 2]
        assert mispredicted_indices(trace) == [1]


class TestCriticalPath:
    def test_serial_chain(self):
        records = [_ialu(deps=(1,) if i else ()) for i in range(50)]
        assert trace_of(records).critical_path_length() == 50

    def test_independent_instructions(self):
        records = [_ialu() for _ in range(50)]
        assert trace_of(records).critical_path_length() == 1

    def test_distance_two_halves_path(self):
        records = [_ialu(deps=(2,) if i >= 2 else ()) for i in range(100)]
        assert trace_of(records).critical_path_length() == 50

    def test_latency_function(self):
        records = [_ialu(deps=(1,) if i else ()) for i in range(10)]
        cp = trace_of(records).critical_path_length(lambda op: 3)
        assert cp == 30

    def test_dataflow_ipc(self):
        records = [_ialu(deps=(2,) if i >= 2 else ()) for i in range(100)]
        assert trace_of(records).dataflow_ipc() == pytest.approx(2.0)

    def test_dataflow_ipc_empty(self):
        assert trace_of().dataflow_ipc() == 0.0


class TestStatisticsMemoization:
    def test_statistics_are_memoized(self):
        trace = trace_of([_ialu(), _branch(taken=True)])
        first = trace.statistics()
        assert trace.statistics() is first  # memoized object
        assert first.instruction_count == 2

    def test_records_are_packed_at_construction(self):
        records = [_ialu(), _branch(taken=True)]
        trace = trace_of(records, name="built")
        assert trace.name == "built"
        assert len(trace) == 2
        assert unpack(trace) == records

    def test_memoized_statistics_match_fresh_computation(self):
        trace = trace_of([_ialu(deps=(1,) if i else ()) for i in range(20)])
        fresh = Trace(trace.columns, trace.dep_indptr, trace.dep_data)
        assert fresh.statistics() is not trace.statistics()
        assert trace.statistics() == fresh.statistics()
