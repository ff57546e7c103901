"""Unit tests for trace transformations, and their record oracle."""

import numpy as np
import pytest

from repro.interval.penalty import measure_penalties
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.record import TraceRecord
from repro.trace.synthetic import generate_trace
from repro.trace.transforms import (
    with_perfect_branches,
    with_perfect_icache,
    without_short_misses,
)
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace import record_transforms

TRANSFORMS = {
    "with_perfect_branches": with_perfect_branches,
    "with_perfect_icache": with_perfect_icache,
    "without_short_misses": without_short_misses,
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadProfile(name="tf"), 8000, seed=3)


class TestPerfectBranches:
    def test_no_mispredictions_remain(self, trace):
        ideal = with_perfect_branches(trace)
        assert not ideal.mispredicted_indices()

    def test_other_annotations_preserved(self, trace):
        ideal = with_perfect_branches(trace)
        for a, b in zip(trace.records, ideal.records):
            assert a.il1_miss == b.il1_miss
            assert a.dl1_miss == b.dl1_miss
            assert a.op_class == b.op_class
            assert a.deps == b.deps

    def test_paired_counterfactual_is_faster(self, trace):
        config = CoreConfig()
        base = simulate(trace, config)
        ideal = simulate(with_perfect_branches(trace), config)
        assert ideal.cycles < base.cycles
        assert not ideal.mispredict_events

    def test_name_suffix(self, trace):
        assert with_perfect_branches(trace).name.endswith("+perfect-bp")


class TestPerfectCaches:
    def test_perfect_icache(self, trace):
        ideal = with_perfect_icache(trace)
        assert not any(r.il1_miss for r in ideal.records)

    def test_without_short_misses_keeps_long(self, trace):
        thinned = without_short_misses(trace)
        original_long = sum(
            1 for r in trace.records if r.is_load and r.dl2_miss
        )
        remaining_long = sum(
            1 for r in thinned.records if r.is_load and r.dl2_miss
        )
        assert remaining_long == original_long
        assert not any(
            r.dl1_miss for r in thinned.records if r.is_load
        )

    def test_short_miss_counterfactual_shrinks_resolution(self, trace):
        """Removing short misses is contributor C5 measured directly."""
        config = CoreConfig()
        base = measure_penalties(simulate(trace, config))
        thinned = measure_penalties(
            simulate(without_short_misses(trace), config)
        )
        assert thinned.mean_resolution < base.mean_resolution

    def test_perfect_frontend_combines(self, trace):
        ideal = with_perfect_icache(with_perfect_branches(trace))
        assert not ideal.mispredicted_indices()
        assert not any(r.il1_miss for r in ideal.records)
        assert ideal.name == f"{trace.name}+perfect-bp+perfect-il1"


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("workload", sorted(SPEC_PROFILES))
def test_column_edit_matches_the_record_oracle(workload, transform):
    trace = generate_trace(SPEC_PROFILES[workload], 3000, seed=29)
    got = TRANSFORMS[transform](trace).pack()
    want = getattr(record_transforms, transform)(trace).pack()
    assert got.name == want.name
    assert np.array_equal(got.columns, want.columns)
    assert got.dep_indptr.dtype == want.dep_indptr.dtype
    assert got.dep_data.dtype == want.dep_data.dtype
    assert np.array_equal(got.dep_indptr, want.dep_indptr)
    assert np.array_equal(got.dep_data, want.dep_data)


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_column_edit_builds_no_record_and_leaves_the_original(
    monkeypatch, trace, transform
):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a transform built a TraceRecord")

    before = trace.pack().columns.copy()
    monkeypatch.setattr(TraceRecord, "__init__", refuse)
    edited = TRANSFORMS[transform](trace)
    assert edited._records is None
    assert np.array_equal(trace.pack().columns, before)
    assert edited.pack().dep_data is trace.pack().dep_data
    assert edited.pack().dep_indptr is trace.pack().dep_indptr
