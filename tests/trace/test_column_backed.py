"""A trace is its columns; it has no per-instruction record view.

The figure path (statistics, the interval model, the ILP fit, the
contributor decomposition, the batched and in-order cores, structural
annotation) runs on the columns alone, and a column slice equals the
slice of the same trace rebuilt from its records.
"""

import pytest

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GSharePredictor
from repro.interval.contributors import decompose_contributors
from repro.interval.ilp import fit_ilp_profile
from repro.interval.model import IntervalModel
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.perf.batchcore import run_batch
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace.records import deps_of, records_of, same_columns, trace_of


def fresh(length=3000, name="twolf", seed=7):
    return generate_trace(SPEC_PROFILES[name], length, seed=seed)


def test_generated_trace_is_column_backed():
    trace = fresh()
    assert not hasattr(trace, "pack")
    assert len(trace) == 3000


def test_figure_path_never_builds_records():
    trace = fresh()
    config = CoreConfig()
    trace.statistics()
    trace.dataflow_ipc()
    trace.validate()
    IntervalModel(config).predict(trace)
    fit_ilp_profile(trace)
    result = run_batch(trace, [config])[0]
    decompose_contributors(trace, result, config)
    simulate_inorder(trace, config)
    structural = StructuralAnnotator(
        BranchUnit(direction=GSharePredictor(), btb=BranchTargetBuffer()),
        CacheHierarchy(HierarchyConfig()),
    )
    assert simulate(trace, config, annotator=structural).events
    simulate_inorder(trace, config, annotator=structural)
    trace.slice(100, 900).statistics()


@pytest.mark.parametrize(
    "bounds", [(0, 3000), (100, 900), (2990, 5000), (-50, -10), (700, 300)]
)
def test_column_slice_equals_record_slice(bounds):
    trace = fresh()
    by_records = trace_of(list(records_of(trace)), name=trace.name).slice(*bounds)
    by_columns = fresh().slice(*bounds)
    assert by_columns.name == by_records.name
    assert same_columns(by_columns, by_records)
    assert records_of(by_columns) == records_of(by_records)


def test_slice_keeps_dependences_before_its_start():
    # A producer before the slice stays out of range, and the core
    # treats it as complete, whichever form the slice is in.
    trace = fresh()
    by_columns = trace.slice(1000, 1600)
    first_deps = deps_of(by_columns, 0)
    assert first_deps == deps_of(trace, 1000)
    config = CoreConfig()
    by_records = trace_of(list(records_of(by_columns)))
    assert simulate(by_columns, config).cycles == simulate(by_records, config).cycles
