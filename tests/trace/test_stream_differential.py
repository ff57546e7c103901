"""Column folds of ``Trace`` against the record-walk oracle, exactly.

A generated trace answers statistics, index and critical-path queries
from its columns; ``scalar_stream`` walks the records. Every field must
be equal (``==``), including the order of the instruction mix.
"""

import pytest

from repro.harness.runner import DEFAULT_LENGTH, DEFAULT_SEED
from repro.isa.opcodes import OpClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.trace.scalar_stream import (
    scalar_branch_indices,
    scalar_critical_path_length,
    scalar_is_annotated,
    scalar_mispredicted_indices,
    scalar_statistics,
    scalar_validate,
)

NO_LOADS = WorkloadProfile(
    name="no-loads",
    mix={OpClass.IALU: 0.6, OpClass.STORE: 0.2, OpClass.BRANCH: 0.2},
)
NO_BRANCHES = WorkloadProfile(
    name="no-branches",
    mix={
        OpClass.IALU: 0.5,
        OpClass.FMUL: 0.1,
        OpClass.LOAD: 0.3,
        OpClass.JUMP: 0.1,
    },
)


def suite_trace(name):
    return generate_trace(
        SPEC_PROFILES[name], DEFAULT_LENGTH, seed=derive_seed(DEFAULT_SEED, name)
    )


def cases():
    for name in sorted(SPEC_PROFILES):
        yield pytest.param(lambda name=name: suite_trace(name), id=name)
    yield pytest.param(lambda: generate_trace(NO_LOADS, 0), id="empty")
    yield pytest.param(lambda: generate_trace(NO_LOADS, 5000, seed=3), id="no-loads")
    yield pytest.param(
        lambda: generate_trace(NO_BRANCHES, 5000, seed=4), id="no-branches"
    )


def assert_same_statistics(got, want):
    assert got == want
    assert list(got.mix) == list(want.mix)
    assert got.dependence_histogram.items() == want.dependence_histogram.items()


@pytest.mark.parametrize("make", cases())
def test_column_queries_match_record_walks(make):
    trace = make()
    got_stats = trace.statistics()
    got_branches = trace.branch_indices()
    got_mispredicted = trace.mispredicted_indices()
    got_annotated = trace.is_annotated
    got_path = trace.critical_path_length()
    latency_of = {cls: 1 + i % 4 for i, cls in enumerate(OpClass)}.__getitem__
    got_weighted = trace.critical_path_length(latency_of)
    trace.validate()

    oracle = Trace(trace.records, name=trace.name)
    assert_same_statistics(got_stats, scalar_statistics(oracle))
    assert got_branches == scalar_branch_indices(oracle)
    assert got_mispredicted == scalar_mispredicted_indices(oracle)
    assert got_annotated == scalar_is_annotated(oracle)
    assert got_path == scalar_critical_path_length(oracle)
    assert got_weighted == scalar_critical_path_length(oracle, latency_of)
    scalar_validate(oracle)


class TestRecordBuiltTraces:
    """The same folds over a packed record list, None annotations and
    dependences before record 0 included."""

    def records(self):
        return [
            TraceRecord(OpClass.IALU, deps=(3,)),
            TraceRecord(OpClass.BRANCH, deps=(1,), taken=True),
            TraceRecord(OpClass.LOAD, mem_addr=8, deps=(2, 1), dl1_miss=None),
            TraceRecord(OpClass.BRANCH, mispredict=True, il1_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=16, dl2_miss=True, deps=(9,)),
            TraceRecord(OpClass.IDIV, deps=(1, 4)),
        ]

    def trace(self):
        return Trace(self.records())

    def test_matches_oracle(self):
        trace = self.trace()
        assert_same_statistics(trace.statistics(), scalar_statistics(trace))
        assert trace.is_annotated is scalar_is_annotated(trace) is False
        assert trace.branch_indices() == scalar_branch_indices(trace)
        assert trace.mispredicted_indices() == scalar_mispredicted_indices(trace)
        assert trace.critical_path_length(
            lambda cls: 20 if cls is OpClass.IDIV else 2
        ) == scalar_critical_path_length(
            trace, lambda cls: 20 if cls is OpClass.IDIV else 2
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda records: setattr(records[4], "deps", (0,)), "record 4: non-positive"),
            (lambda records: setattr(records[2], "mem_addr", None), "record 2: memory op"),
            (
                lambda records: (
                    setattr(records[2], "mem_addr", None),
                    setattr(records[2], "deps", (-1,)),
                ),
                "record 2: non-positive",
            ),
        ],
    )
    def test_validate_names_the_first_bad_record(self, mutate, message):
        records = self.records()
        mutate(records)
        trace = Trace(records)
        with pytest.raises(ValueError, match=message):
            scalar_validate(trace)
        with pytest.raises(ValueError, match=message):
            trace.validate()
