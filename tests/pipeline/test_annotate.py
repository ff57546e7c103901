"""Unit tests for annotation sources.

Each record goes through the production column pass on its own
one-record trace (the structural annotator keeps its state from pass to
pass); :func:`outcome` reads the one row back. A load's miss class shows
as its long-miss flag and the latency it adds.
"""

from typing import NamedTuple, Optional

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.perfect import PerfectPredictor
from repro.frontend.static import StaticPredictor
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.perf.batchcore import TraceColumns
from repro.pipeline.annotate import MissColumns, StructuralAnnotator
from repro.pipeline.config import CoreConfig
from tests.trace.records import TraceRecord, trace_of


class Outcome(NamedTuple):
    """One row of a :class:`MissColumns` set."""

    mispredicted: bool
    icache_latency: Optional[int]  # None when the fetch hit
    long_miss: bool
    dcache_latency: int  # what a load adds to its FU latency


def outcome(miss: MissColumns) -> Outcome:
    assert len(miss.misp) == 1
    return Outcome(
        mispredicted=miss.misp[0],
        icache_latency=miss.icache_lat[0] or None,
        long_miss=miss.is_long[0],
        dcache_latency=miss.exec_extra[0],
    )


class OracleColumns:
    """The oracle pricing, asked one record at a time."""

    def __init__(self, config: CoreConfig):
        self.config = config

    def annotate(self, record: TraceRecord) -> Outcome:
        cols = TraceColumns.from_trace(trace_of([record]))
        return outcome(MissColumns.oracle(cols, self.config))


class TestOracleAnnotator:
    def setup_method(self):
        self.config = CoreConfig()
        self.annotator = OracleColumns(self.config)

    def test_clean_record(self):
        ann = self.annotator.annotate(TraceRecord(OpClass.IALU))
        assert not ann.mispredicted
        assert ann.icache_latency is None
        assert not ann.long_miss and ann.dcache_latency == 0

    def test_mispredicted_branch(self):
        record = TraceRecord(OpClass.BRANCH, mispredict=True)
        assert self.annotator.annotate(record).mispredicted

    def test_mispredict_flag_on_non_branch_ignored(self):
        record = TraceRecord(OpClass.IALU, mispredict=True)
        assert not self.annotator.annotate(record).mispredicted

    def test_unannotated_branch_is_correct(self):
        record = TraceRecord(OpClass.BRANCH, mispredict=None)
        assert not self.annotator.annotate(record).mispredicted

    def test_icache_miss_latency(self):
        record = TraceRecord(OpClass.IALU, il1_miss=True)
        assert self.annotator.annotate(record).icache_latency == (
            self.config.l2_latency
        )

    def test_load_hit_latency(self):
        record = TraceRecord(OpClass.LOAD, mem_addr=0)
        ann = self.annotator.annotate(record)
        assert not ann.long_miss
        assert ann.dcache_latency == self.config.l1_latency

    def test_load_short_miss(self):
        record = TraceRecord(OpClass.LOAD, mem_addr=0, dl1_miss=True)
        ann = self.annotator.annotate(record)
        assert not ann.long_miss
        assert ann.dcache_latency == self.config.l2_latency

    def test_load_long_miss(self):
        record = TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True)
        ann = self.annotator.annotate(record)
        assert ann.long_miss
        assert ann.dcache_latency == self.config.memory_latency


class OnePass:
    """A structural annotator asked one record (one pass) at a time."""

    def __init__(self, annotator: StructuralAnnotator):
        self.annotator = annotator

    def annotate(self, record: TraceRecord) -> Outcome:
        return outcome(self.annotator.miss_columns(trace_of([record])))


class TestStructuralAnnotator:
    def make(self, predictor=None):
        unit = BranchUnit(
            direction=predictor or PerfectPredictor(), btb=BranchTargetBuffer()
        )
        hierarchy = CacheHierarchy(
            HierarchyConfig(l1i_size=1024, l1i_ways=2, l1d_size=1024,
                            l1d_ways=2, l2_size=8192, l2_ways=4)
        )
        return OnePass(StructuralAnnotator(unit, hierarchy)), hierarchy

    def test_first_fetch_misses_icache(self):
        annotator, _ = self.make()
        ann = annotator.annotate(TraceRecord(OpClass.IALU, pc=0x1000))
        assert ann.icache_latency is not None

    def test_same_line_fetch_shares_access(self):
        annotator, hierarchy = self.make()
        annotator.annotate(TraceRecord(OpClass.IALU, pc=0x1000))
        before = hierarchy.l1i.stats.accesses
        annotator.annotate(TraceRecord(OpClass.IALU, pc=0x1004))
        assert hierarchy.l1i.stats.accesses == before

    def test_refetch_of_warm_line_hits(self):
        annotator, _ = self.make()
        annotator.annotate(TraceRecord(OpClass.IALU, pc=0x1000))
        annotator.annotate(TraceRecord(OpClass.IALU, pc=0x2000))
        ann = annotator.annotate(TraceRecord(OpClass.IALU, pc=0x1004))
        assert ann.icache_latency is None

    def test_static_wrong_direction_mispredicts(self):
        annotator, _ = self.make(predictor=StaticPredictor(predict_taken=False))
        record = TraceRecord(
            OpClass.BRANCH, pc=0x1000, taken=True, target=0x2000
        )
        assert annotator.annotate(record).mispredicted

    def test_load_drives_dcache(self):
        annotator, hierarchy = self.make()
        record = TraceRecord(OpClass.LOAD, pc=0x1000, mem_addr=0x9000)
        ann = annotator.annotate(record)
        assert ann.long_miss
        ann2 = annotator.annotate(record)
        assert not ann2.long_miss
        assert ann2.dcache_latency == hierarchy.config.l1_latency
        assert hierarchy.l1d.stats.accesses == 2

    def test_jump_uses_btb(self):
        annotator, _ = self.make()
        record = TraceRecord(OpClass.JUMP, pc=0x1000, taken=True, target=0x2000)
        assert annotator.annotate(record).mispredicted  # cold BTB
        assert not annotator.annotate(record).mispredicted
