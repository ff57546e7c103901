"""Per-instruction record objects: the test oracle for trace columns.

A :class:`~repro.trace.stream.Trace` is its columns
(:mod:`repro.trace.columns`); no record object exists in the package.
Tests still state small traces one instruction at a time, and the
scalar reference walks read instructions as objects, so this module
keeps the record form, the packer (:func:`trace_of`) and the unpacker
(:func:`records_of`, :func:`unpack`) that convert between it and the
columns, losslessly and round-trip tested. It also holds the small
column queries only tests ask (:func:`same_columns`, :func:`deps_of`,
:func:`branch_indices`, :func:`mispredicted_indices`,
:func:`is_annotated`).
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import OpClass
from repro.trace.columns import (
    BRANCH_CODE,
    OP_CLASSES,
    OP_CODE,
    RECORD_DTYPE,
)
from repro.trace.stream import Trace


class TraceRecord:
    """A dynamic instruction.

    Parameters
    ----------
    op_class:
        Functional class; selects the FU pool and base latency.
    pc:
        Byte address of the instruction (used by I-cache and predictor).
    deps:
        Dynamic dependence distances: ``deps == (3, 1)`` means this
        instruction reads values produced by the instructions 3 and 1
        positions earlier in the dynamic stream. Distances are >= 1.
        Memory (store→load) dependences are included here too.
    mem_addr:
        Byte address touched by a load/store; ``None`` otherwise.
    taken / target:
        Control-flow outcome for branches and jumps.
    mispredict / il1_miss / dl1_miss / dl2_miss:
        Optional annotations. ``None`` means "not annotated" (a
        structural run must consult the predictor/cache); a bool is an
        oracle outcome the simulator honours directly.
    """

    __slots__ = (
        "op_class",
        "pc",
        "deps",
        "mem_addr",
        "taken",
        "target",
        "mispredict",
        "il1_miss",
        "dl1_miss",
        "dl2_miss",
    )

    def __init__(
        self,
        op_class: OpClass,
        pc: int = 0,
        deps: Tuple[int, ...] = (),
        mem_addr: Optional[int] = None,
        taken: bool = False,
        target: Optional[int] = None,
        mispredict: Optional[bool] = None,
        il1_miss: Optional[bool] = None,
        dl1_miss: Optional[bool] = None,
        dl2_miss: Optional[bool] = None,
    ):
        if deps and min(deps) < 1:
            raise ValueError(f"dependence distances must be >= 1, got {deps}")
        if mem_addr is None and op_class.is_memory:
            raise ValueError(f"{op_class.value} record requires mem_addr")
        self.op_class = op_class
        self.pc = pc
        self.deps = tuple(deps)
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target
        self.mispredict = mispredict
        self.il1_miss = il1_miss
        self.dl1_miss = dl1_miss
        self.dl2_miss = dl2_miss

    @property
    def is_branch(self) -> bool:
        """True for conditional branches (the misprediction carriers)."""
        return self.op_class is OpClass.BRANCH

    @property
    def is_control(self) -> bool:
        return self.op_class.is_control

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_memory(self) -> bool:
        return self.op_class.is_memory

    def __repr__(self) -> str:
        parts = [f"TraceRecord({self.op_class.value}", f"pc={self.pc:#x}"]
        if self.deps:
            parts.append(f"deps={self.deps}")
        if self.mem_addr is not None:
            parts.append(f"mem={self.mem_addr:#x}")
        if self.is_control:
            parts.append(f"taken={self.taken}")
        if self.mispredict:
            parts.append("MISPRED")
        if self.il1_miss:
            parts.append("IL1$")
        if self.dl2_miss:
            parts.append("DL2$")
        elif self.dl1_miss:
            parts.append("DL1$")
        return ", ".join(parts) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )

    def __hash__(self) -> int:
        return hash((self.op_class, self.pc, self.deps, self.mem_addr))


#: Tri-state decode table, indexed by ``code + 1``.
_TRI_VALUES = np.array([None, False, True], dtype=object)


def _tri(value) -> int:
    """Tri-state encode: None -> -1, False -> 0, True -> 1."""
    if value is None:
        return -1
    return 1 if value else 0


def _tri_list(codes: np.ndarray) -> list:
    """Tri-state decode of a whole column to Python None/False/True."""
    return _TRI_VALUES[codes + 1].tolist()


def _optional_list(values: np.ndarray, present: np.ndarray) -> list:
    """``values`` as Python ints, None where ``present`` is False."""
    boxed = values.astype(object)
    boxed[~present] = None
    return boxed.tolist()


def _pack(records: List[TraceRecord], name: str = "trace") -> Trace:
    """The trace whose columns hold ``records`` (lossless)."""
    n = len(records)
    columns = np.zeros(n, dtype=RECORD_DTYPE)
    indptr = np.zeros(n + 1, dtype=np.int64)
    rows = []
    dep_data: List[int] = []
    dep_counts = []
    for r in records:
        rows.append(
            (
                OP_CODE[r.op_class],
                r.pc,
                r.mem_addr if r.mem_addr is not None else 0,
                r.mem_addr is not None,
                r.taken,
                r.target if r.target is not None else 0,
                r.target is not None,
                _tri(r.mispredict),
                _tri(r.il1_miss),
                _tri(r.dl1_miss),
                _tri(r.dl2_miss),
            )
        )
        dep_data.extend(r.deps)
        dep_counts.append(len(r.deps))
    if n:
        columns[:] = rows
        np.cumsum(np.asarray(dep_counts, dtype=np.int64), out=indptr[1:])
    return Trace(
        columns=columns,
        dep_indptr=indptr,
        dep_data=np.asarray(dep_data, dtype=np.int32),
        name=name,
    )


#: The records of each live trace: the list it was built from, or its
#: columns unpacked once (the scalar walks ask once per query, and a
#: trace's columns never change).
_UNPACKED: "weakref.WeakKeyDictionary[Trace, List[TraceRecord]]" = (
    weakref.WeakKeyDictionary()
)


def trace_of(
    records: Iterable[TraceRecord] = (), name: str = "trace"
) -> Trace:
    """The trace whose columns hold ``records``; :func:`records_of`
    hands the list back as it is."""
    records = list(records)
    trace = _pack(records, name)
    _UNPACKED[trace] = records
    return trace


def records_of(trace: Trace) -> List[TraceRecord]:
    """One :class:`TraceRecord` per row of ``trace`` (inverse of
    :func:`trace_of`), fields as Python values; the constructor's checks
    run on each.

    A trace's list is built once and shared: do not mutate it.
    :func:`unpack` reads the columns afresh.
    """
    records = _UNPACKED.get(trace)
    if records is None:
        records = _UNPACKED[trace] = unpack(trace)
    return records


def unpack(trace: Trace) -> List[TraceRecord]:
    """The records of ``trace``'s columns, unpacked now (never the list
    :func:`trace_of` was given)."""
    cols = trace.columns
    bounds = trace.dep_indptr.tolist()
    flat = trace.dep_data.tolist()
    deps = map(tuple, map(flat.__getitem__, map(slice, bounds, bounds[1:])))
    return list(
        map(
            TraceRecord,
            map(OP_CLASSES.__getitem__, cols["op"].tolist()),
            cols["pc"].tolist(),
            deps,
            _optional_list(cols["mem_addr"], cols["has_mem_addr"]),
            cols["taken"].tolist(),
            _optional_list(cols["target"], cols["has_target"]),
            _tri_list(cols["mispredict"]),
            _tri_list(cols["il1_miss"]),
            _tri_list(cols["dl1_miss"]),
            _tri_list(cols["dl2_miss"]),
        )
    )


def same_columns(a: Trace, b: Trace) -> bool:
    """Exact column equality, name included."""
    return (
        a.name == b.name
        and np.array_equal(a.columns, b.columns)
        and np.array_equal(a.dep_indptr, b.dep_indptr)
        and np.array_equal(a.dep_data, b.dep_data)
    )


def deps_of(trace: Trace, seq: int) -> Tuple[int, ...]:
    """The dependence distances of row ``seq``."""
    lo, hi = int(trace.dep_indptr[seq]), int(trace.dep_indptr[seq + 1])
    return tuple(trace.dep_data[lo:hi].tolist())


def branch_indices(trace: Trace) -> List[int]:
    """Rows of conditional branches."""
    return np.flatnonzero(trace.op == BRANCH_CODE).tolist()


def mispredicted_indices(trace: Trace) -> List[int]:
    """Rows of conditional branches flagged mispredicted."""
    return np.flatnonzero(
        (trace.op == BRANCH_CODE) & (trace.mispredict == 1)
    ).tolist()


def is_annotated(trace: Trace) -> bool:
    """True when every conditional branch carries a mispredict flag."""
    return not np.any((trace.op == BRANCH_CODE) & (trace.mispredict < 0))
