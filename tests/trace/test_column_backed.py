"""A generated trace is held as columns and builds records only on demand.

The figure path (statistics, the interval model, the ILP fit, the
contributor decomposition, the batched and in-order cores, structural
annotation) must read the columns and never build the record view; appending to a column-backed
trace must leave it packing to the same columns as a record-built one.
"""

import pytest

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.gshare import GSharePredictor
from repro.interval.contributors import decompose_contributors
from repro.interval.ilp import fit_ilp_profile
from repro.interval.model import IntervalModel
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.perf.batchcore import run_batch
from repro.perf.packed import PackedTrace
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES


def fresh(length=3000, name="twolf", seed=7):
    return generate_trace(SPEC_PROFILES[name], length, seed=seed)


def test_generated_trace_is_column_backed():
    trace = fresh()
    assert trace._records is None
    assert trace.pack() is trace.pack()
    assert len(trace) == 3000


def test_figure_path_never_builds_records(monkeypatch):
    def refuse(self):
        raise AssertionError("record view built on the figure path")

    trace = fresh()
    config = CoreConfig()
    monkeypatch.setattr(PackedTrace, "to_records", refuse)
    trace.statistics()
    trace.dataflow_ipc()
    trace.branch_indices()
    trace.mispredicted_indices()
    assert trace.is_annotated
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
    assert trace._records is None


def test_records_are_built_once():
    trace = fresh(500)
    records = trace.records
    assert trace.records is records
    assert len(records) == len(trace) == 500


@pytest.mark.parametrize("grow", ["append", "extend"])
def test_mutation_repacks_the_records(grow):
    trace = fresh(800)
    before = trace.pack()
    version = trace.version
    extra = [
        TraceRecord(OpClass.LOAD, pc=0x40, mem_addr=0x80, deps=(2,), dl1_miss=True),
        TraceRecord(OpClass.BRANCH, pc=0x44, deps=(1,), taken=True, target=0x10),
    ]
    if grow == "append":
        trace.append(extra[0])
        extra = extra[:1]
    else:
        trace.extend(extra)
    assert trace.version == version + 1
    after = trace.pack()
    assert after is not before
    assert len(after) == 800 + len(extra)
    assert after.equals(PackedTrace.pack(Trace(list(trace.records), name=trace.name)))
    assert trace.statistics().instruction_count == len(trace)


@pytest.mark.parametrize(
    "bounds", [(0, 3000), (100, 900), (2990, 5000), (-50, -10), (700, 300)]
)
def test_column_slice_equals_record_slice(bounds):
    trace = fresh()
    by_records = Trace(list(trace.records), name=trace.name).slice(*bounds)
    by_columns = fresh().slice(*bounds)
    assert by_columns._records is None
    assert by_columns.name == by_records.name
    assert by_columns.pack().equals(PackedTrace.pack(by_records))
    assert by_columns.records == by_records.records


def test_slice_keeps_dependences_before_its_start():
    # A producer before the slice stays out of range, and the core
    # treats it as complete, whichever form the slice is in.
    trace = fresh()
    by_columns = trace.slice(1000, 1600)
    first_deps = by_columns.pack().deps_of(0)
    assert first_deps == trace.pack().deps_of(1000)
    config = CoreConfig()
    by_records = Trace(list(by_columns.records))
    assert simulate(by_columns, config).cycles == simulate(by_records, config).cycles
