"""The structural column pass against the record-level walk.

``StructuralAnnotator.miss_columns`` visits only the records that
consult a substrate, over the trace's packed columns; the reference
(:mod:`tests.pipeline.record_annotate`) asks a record-level annotator
once per record and folds the answers by the scalar core's rules. The
two must give equal columns and leave the predictor, BTB, caches,
memory and prefetcher in equal states, pass after pass; the cores must
then give the results the scalar oracles give. The oracle pricing of a
load must equal the ILP's full latency column.
"""

from __future__ import annotations

import pytest

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.tournament import TournamentPredictor
from repro.interval.ilp import full_latency
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.memory.prefetch import PrefetchingHierarchyAdapter, StridePrefetcher
from repro.perf.batchcore import TraceColumns, _combined_latency, _FUTables
from repro.pipeline.annotate import MissColumns, StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.kernels import kernel_names, kernel_trace, stride_sum
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.pipeline.record_annotate import (
    RecordStructuralAnnotator,
    annotate_in_order,
)
from tests.pipeline.scalar_core import SuperscalarCore
from tests.pipeline.scalar_inorder import ScalarInOrderCore
from tests.pipeline.test_annotate_first import PREDICTORS
from tests.trace.records import records_of

pytestmark = pytest.mark.usefixtures("kernel_path")

COLUMNS = MissColumns.__slots__


def _setup(make_direction, prefetch, kind):
    """An annotator of ``kind`` over fresh substrates, and a snapshot
    function of every substrate's state."""
    hierarchy = CacheHierarchy(HierarchyConfig())
    memory_system, prefetcher = hierarchy, None
    if prefetch:
        prefetcher = StridePrefetcher(hierarchy.l1d, degree=4)
        memory_system = PrefetchingHierarchyAdapter(
            hierarchy, data_prefetcher=prefetcher
        )
    unit = BranchUnit(direction=make_direction(), btb=BranchTargetBuffer())
    annotator = kind(unit, memory_system)

    def state():
        return (
            vars(unit.stats),
            vars(unit.direction.stats),
            vars(unit.btb.stats),
            [vars(c.stats) for c in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)],
            (hierarchy.memory.reads, hierarchy.memory.writes),
            vars(prefetcher.stats) if prefetcher else None,
        )

    return annotator, state


def _columns(miss):
    return {name: list(getattr(miss, name)) for name in COLUMNS}


def _assert_pass_matches(trace, make_direction=TournamentPredictor, prefetch=False):
    """Two passes over ``trace`` (the second on warm substrates) give
    the reference's columns and substrate state; returns the first
    pass's columns."""
    annotator, got_state = _setup(make_direction, prefetch, StructuralAnnotator)
    reference, want_state = _setup(
        make_direction, prefetch, RecordStructuralAnnotator
    )
    passes = []
    for _ in range(2):
        got = _columns(annotator.miss_columns(trace))
        want = _columns(annotate_in_order(reference, records_of(trace)))
        assert got == want
        assert got_state() == want_state()
        passes.append(got)
    assert annotator._last_fetch_line == reference._last_fetch_line
    return passes[0]


def synthetic_trace(length=3_000):
    return generate_trace(
        SPEC_PROFILES["gcc"], length, seed=derive_seed(2006, "gcc")
    )


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_f17_predictors(name):
    columns = _assert_pass_matches(
        kernel_trace("branchy_search"), PREDICTORS[name]
    )
    assert any(columns["misp"])


@pytest.mark.parametrize("prefetch", [False, True], ids=["plain", "stride"])
def test_f18_hierarchies(prefetch):
    columns = _assert_pass_matches(
        stride_sum(elements=6_144, stride=1).run(), prefetch=prefetch
    )
    assert any(columns["is_long"])


@pytest.mark.parametrize("name", kernel_names())
@pytest.mark.parametrize("prefetch", [False, True], ids=["plain", "stride"])
def test_every_kernel(name, prefetch):
    _assert_pass_matches(kernel_trace(name), prefetch=prefetch)


def test_synthetic_trace():
    columns = _assert_pass_matches(synthetic_trace())
    assert any(columns["icache_lat"]) and any(columns["misp"])


def test_empty_trace_leaves_the_substrates_alone():
    trace = synthetic_trace().slice(0, 0)
    annotator, state = _setup(TournamentPredictor, False, StructuralAnnotator)
    before = state()
    assert _columns(annotator.miss_columns(trace)) == {
        name: [] for name in COLUMNS
    }
    assert state() == before


@pytest.mark.parametrize("name", kernel_names() + ["synthetic"])
def test_cores_match_the_scalar_oracles(name):
    trace = synthetic_trace() if name == "synthetic" else kernel_trace(name)
    config = CoreConfig()
    for entry, oracle in (
        (simulate, SuperscalarCore),
        (simulate_inorder, ScalarInOrderCore),
    ):
        annotator, got_state = _setup(TournamentPredictor, True, StructuralAnnotator)
        reference, want_state = _setup(
            TournamentPredictor, True, RecordStructuralAnnotator
        )
        got = entry(trace, config, annotator=annotator)
        want = oracle(config).run(trace, annotator=reference)
        assert vars(got) == vars(want)
        assert got_state() == want_state()


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
@pytest.mark.parametrize(
    "config",
    [
        CoreConfig(),
        CoreConfig(l1_latency=3, l2_latency=17, memory_latency=333),
    ],
    ids=["baseline", "slow-memory"],
)
def test_oracle_latency_column_is_the_full_latency(name, config):
    """The kernel's oracle execute latency and the ILP's full latency
    are one pricing of a load."""
    trace = generate_trace(SPEC_PROFILES[name], 4_000, seed=derive_seed(7, name))
    cols = TraceColumns.from_trace(trace)
    kernel = _combined_latency(
        cols, MissColumns.oracle(cols, config), _FUTables(config)
    )
    ilp = full_latency(trace, config.fu_specs, config).column.tolist()
    assert kernel == ilp
    assert max(kernel) >= config.l2_latency
