"""Record-level reference for the miss-outcome columns.

:class:`repro.pipeline.annotate.StructuralAnnotator` makes one
program-order pass over a trace's columns and returns a
:class:`~repro.pipeline.annotate.MissColumns` set;
:meth:`~repro.pipeline.annotate.MissColumns.oracle` prices a trace's
oracle flags as whole columns. This module keeps the per-record walk
they replaced: an :class:`Annotator` resolves one record at a time into
an :class:`Annotation`, and :func:`annotate_in_order` folds those into
the columns by the scalar core's rules. The scalar cores
(:mod:`tests.pipeline.scalar_core`, :mod:`tests.pipeline.scalar_inorder`)
ask these annotators once per record; differential tests require the
column passes to equal this walk, column for column, and to leave the
substrates in the same state.

Every annotator here also answers ``miss_columns(trace)``, so the
production entries (``simulate``, ``simulate_inorder``) run on it too.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.frontend.base import BranchUnit
from repro.memory.hierarchy import CacheHierarchy, MissClass
from repro.obs import runtime as _obs
from repro.pipeline.annotate import MissColumns
from repro.pipeline.config import CoreConfig
from repro.trace.stream import Trace
from tests.trace.records import TraceRecord, records_of


def load_latency(config: CoreConfig, miss_class: MissClass) -> int:
    """Total cache latency of a load of ``miss_class`` under ``config``."""
    return {
        MissClass.L1_HIT: config.l1_latency,
        MissClass.SHORT: config.l2_latency,
        MissClass.LONG: config.memory_latency,
    }[miss_class]


@dataclass(frozen=True)
class Annotation:
    """Resolved miss outcomes for one dynamic instruction.

    ``icache_latency`` is None when the fetch hit; ``dcache_class`` is
    None for non-memory instructions.
    """

    mispredicted: bool = False
    icache_latency: Optional[int] = None
    icache_long: bool = False
    dcache_class: Optional[MissClass] = None
    dcache_latency: int = 0


class Annotator(abc.ABC):
    """Produces an :class:`Annotation` per dispatched record."""

    @abc.abstractmethod
    def annotate(self, record: TraceRecord) -> Annotation:
        """Resolve miss outcomes for ``record``."""

    def miss_columns(self, trace: Trace) -> MissColumns:
        """The record walk as the columns a core reads."""
        return annotate_in_order(self, records_of(trace))


class OracleAnnotator(Annotator):
    """Honours the oracle flags carried by annotated (synthetic) traces.

    Records without flags (None) are treated as hits / correct
    predictions — an un-annotated trace run through this annotator
    executes with a perfect frontend and memory system.
    """

    def __init__(self, config: CoreConfig):
        self.config = config

    def annotate(self, record: TraceRecord) -> Annotation:
        config = self.config
        icache_latency = None
        if record.il1_miss:
            icache_latency = config.l2_latency
        dcache_class: Optional[MissClass] = None
        dcache_latency = 0
        if record.is_memory:
            if record.dl2_miss:
                dcache_class = MissClass.LONG
            elif record.dl1_miss:
                dcache_class = MissClass.SHORT
            else:
                dcache_class = MissClass.L1_HIT
            dcache_latency = load_latency(config, dcache_class)
        # Any control instruction can mispredict: conditional branches
        # on direction, jumps on target (BTB miss) — both flush.
        mispredicted = bool(record.mispredict) and record.op_class.is_control
        return Annotation(
            mispredicted=mispredicted,
            icache_latency=icache_latency,
            icache_long=False,
            dcache_class=dcache_class,
            dcache_latency=dcache_latency,
        )


class RecordStructuralAnnotator(Annotator):
    """Derives miss outcomes from predictor and cache substrates, one
    record at a time.

    The I-cache is consulted once per fetched cache line (consecutive
    records on the same line share the fetch). Conditional branches go
    through the branch unit (direction predictor + BTB); unconditional
    jumps only check the BTB.
    """

    def __init__(self, branch_unit: BranchUnit, hierarchy: CacheHierarchy):
        self.branch_unit = branch_unit
        self.hierarchy = hierarchy
        self._last_fetch_line: Optional[int] = None

    def annotate(self, record: TraceRecord) -> Annotation:
        line_bytes = self.hierarchy.config.line_bytes
        fetch_line = record.pc // line_bytes
        icache_latency = None
        icache_long = False
        if fetch_line != self._last_fetch_line:
            outcome = self.hierarchy.access_instruction(record.pc)
            self._last_fetch_line = fetch_line
            if outcome.miss_class is not MissClass.L1_HIT:
                icache_latency = outcome.latency
                icache_long = outcome.miss_class is MissClass.LONG

        mispredicted = False
        if record.is_branch:
            mispredicted = self.branch_unit.resolve_branch(
                record.pc, record.taken, record.target
            )
        elif record.op_class.is_control:
            mispredicted = self.branch_unit.resolve_jump(record.pc, record.target)

        dcache_class: Optional[MissClass] = None
        dcache_latency = 0
        if record.is_memory:
            outcome = self.hierarchy.access_data(
                record.mem_addr, is_write=record.is_store, pc=record.pc
            )
            dcache_class = outcome.miss_class
            dcache_latency = outcome.latency
        return Annotation(
            mispredicted=mispredicted,
            icache_latency=icache_latency,
            icache_long=icache_long,
            dcache_class=dcache_class,
            dcache_latency=dcache_latency,
        )


def annotate_in_order(
    annotator: Annotator, records: Iterable[TraceRecord]
) -> MissColumns:
    """Annotate every record once, in program order, as columns.

    The scalar core's rules are applied as the walk goes: a
    misprediction counts only on a control transfer, and only a load's
    data-cache latency and long miss reach the timing. The ambient
    metrics registry is resolved once for the pass.
    """
    misp = []
    is_long = []
    icache_lat = []
    icache_long = []
    exec_extra = []
    with _obs.metrics_resolved():
        for record in records:
            ann = annotator.annotate(record)
            misp.append(ann.mispredicted and record.is_control)
            latency = ann.icache_latency
            if latency is None:
                latency = 0
            elif latency <= 0:
                raise ValueError(
                    f"I-cache miss of record {len(icache_lat)} stalls "
                    f"{latency} cycles; a miss must stall at least one"
                )
            icache_lat.append(latency)
            icache_long.append(ann.icache_long)
            if ann.dcache_class is None or not record.is_load:
                exec_extra.append(0)
                is_long.append(False)
            else:
                exec_extra.append(ann.dcache_latency)
                is_long.append(ann.dcache_class is MissClass.LONG)
    return MissColumns(misp, is_long, icache_lat, icache_long, exec_extra)
