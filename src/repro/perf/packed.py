"""Columnar trace representation: NumPy structured arrays + CSR deps.

A :class:`PackedTrace` holds the same information as a
:class:`~repro.trace.stream.Trace` — losslessly, round-trip tested —
but in columns: one structured array with a field per
:class:`~repro.trace.record.TraceRecord` attribute, plus the dynamic
dependence lists flattened into a CSR-style (indptr, data) pair. The
vectorized kernels in this package operate on these columns instead of
walking Python objects.

Encoding notes:

* ``op`` is the index of the record's :class:`OpClass` in enum
  definition order (:data:`OP_CLASSES`);
* the optional booleans (``mispredict``, ``il1_miss``, ``dl1_miss``,
  ``dl2_miss``) are tri-state ``int8``: -1 encodes ``None`` (not
  annotated), 0/1 encode the oracle outcome;
* optional integers (``mem_addr``, ``target``) carry a companion
  presence bit so ``None`` and 0 stay distinguishable;
* ``dep_indptr[i]:dep_indptr[i+1]`` slices ``dep_data`` to the
  dependence distances of record ``i`` (distances are >= 1, stored in
  record order).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace

#: Op classes in enum definition order; ``op`` column values index this.
OP_CLASSES: Tuple[OpClass, ...] = tuple(OpClass)

#: OpClass -> column code.
OP_CODE: Dict[OpClass, int] = {cls: i for i, cls in enumerate(OP_CLASSES)}

BRANCH_CODE = OP_CODE[OpClass.BRANCH]
JUMP_CODE = OP_CODE[OpClass.JUMP]
LOAD_CODE = OP_CODE[OpClass.LOAD]
STORE_CODE = OP_CODE[OpClass.STORE]

#: One row per dynamic instruction.
RECORD_DTYPE = np.dtype(
    [
        ("op", np.uint8),
        ("pc", np.int64),
        ("mem_addr", np.int64),
        ("has_mem_addr", np.bool_),
        ("taken", np.bool_),
        ("target", np.int64),
        ("has_target", np.bool_),
        ("mispredict", np.int8),
        ("il1_miss", np.int8),
        ("dl1_miss", np.int8),
        ("dl2_miss", np.int8),
    ]
)

#: D-cache miss-class codes of :func:`oracle_miss_columns`: no memory
#: access, L1 hit, short (L2-hit) miss, long (memory) miss.
DCODE_NONE, DCODE_L1_HIT, DCODE_SHORT, DCODE_LONG = 0, 1, 2, 3


def _tri(value) -> int:
    """Tri-state encode: None -> -1, False -> 0, True -> 1."""
    if value is None:
        return -1
    return 1 if value else 0


def _untri(code: int):
    """Inverse of :func:`_tri`."""
    if code < 0:
        return None
    return bool(code)


class PackedTrace:
    """A trace as columns; see the module docstring for the encoding."""

    __slots__ = ("columns", "dep_indptr", "dep_data", "name")

    def __init__(
        self,
        columns: np.ndarray,
        dep_indptr: np.ndarray,
        dep_data: np.ndarray,
        name: str = "trace",
    ):
        if columns.dtype != RECORD_DTYPE:
            raise ValueError(f"columns must have dtype {RECORD_DTYPE}")
        if len(dep_indptr) != len(columns) + 1:
            raise ValueError(
                f"dep_indptr length {len(dep_indptr)} != n+1 "
                f"({len(columns) + 1})"
            )
        self.columns = columns
        self.dep_indptr = dep_indptr
        self.dep_data = dep_data
        self.name = name

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        """Total array payload size in bytes."""
        return (
            self.columns.nbytes + self.dep_indptr.nbytes + self.dep_data.nbytes
        )

    # -- column views ------------------------------------------------------

    @property
    def op(self) -> np.ndarray:
        return self.columns["op"]

    @property
    def pc(self) -> np.ndarray:
        return self.columns["pc"]

    @property
    def taken(self) -> np.ndarray:
        return self.columns["taken"]

    @property
    def mispredict(self) -> np.ndarray:
        return self.columns["mispredict"]

    @property
    def il1_miss(self) -> np.ndarray:
        return self.columns["il1_miss"]

    @property
    def dl1_miss(self) -> np.ndarray:
        return self.columns["dl1_miss"]

    @property
    def dl2_miss(self) -> np.ndarray:
        return self.columns["dl2_miss"]

    def deps_of(self, seq: int) -> Tuple[int, ...]:
        """Dependence distances of record ``seq`` (for tests/inspection)."""
        lo, hi = int(self.dep_indptr[seq]), int(self.dep_indptr[seq + 1])
        return tuple(int(d) for d in self.dep_data[lo:hi])

    # -- conversion --------------------------------------------------------

    @classmethod
    def pack(cls, trace: Trace) -> "PackedTrace":
        """Pack a record-list trace into columns (lossless)."""
        records = trace.records
        n = len(records)
        columns = np.zeros(n, dtype=RECORD_DTYPE)
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows = []
        dep_data = []
        dep_counts = []
        # The one blessed per-record loop in this package: packing is the
        # boundary between the object and columnar worlds, so it must
        # walk the records once.
        for r in records:  # repro: noqa[PERF001]
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
            np.cumsum(
                np.asarray(dep_counts, dtype=np.int64), out=indptr[1:]
            )
        return cls(
            columns=columns,
            dep_indptr=indptr,
            dep_data=np.asarray(dep_data, dtype=np.int32),
            name=trace.name,
        )

    def unpack(self) -> Trace:
        """Reconstruct the record-list trace (inverse of :meth:`pack`)."""
        cols = self.columns
        op = cols["op"].tolist()
        pc = cols["pc"].tolist()
        mem = cols["mem_addr"].tolist()
        has_mem = cols["has_mem_addr"].tolist()
        taken = cols["taken"].tolist()
        target = cols["target"].tolist()
        has_target = cols["has_target"].tolist()
        misp = cols["mispredict"].tolist()
        il1 = cols["il1_miss"].tolist()
        dl1 = cols["dl1_miss"].tolist()
        dl2 = cols["dl2_miss"].tolist()
        indptr = self.dep_indptr.tolist()
        dep_data = self.dep_data.tolist()
        records = [
            TraceRecord(
                op_class=OP_CLASSES[op[i]],
                pc=pc[i],
                deps=tuple(dep_data[indptr[i]:indptr[i + 1]]),
                mem_addr=mem[i] if has_mem[i] else None,
                taken=taken[i],
                target=target[i] if has_target[i] else None,
                mispredict=_untri(misp[i]),
                il1_miss=_untri(il1[i]),
                dl1_miss=_untri(dl1[i]),
                dl2_miss=_untri(dl2[i]),
            )
            for i in range(len(cols))
        ]
        return Trace(records, name=self.name)

    def equals(self, other: "PackedTrace") -> bool:
        """Exact column equality (name included)."""
        return (
            self.name == other.name
            and np.array_equal(self.columns, other.columns)
            and np.array_equal(self.dep_indptr, other.dep_indptr)
            and np.array_equal(self.dep_data, other.dep_data)
        )

    def __repr__(self) -> str:
        return (
            f"PackedTrace({self.name!r}, n={len(self)}, "
            f"deps={len(self.dep_data)}, {self.nbytes} bytes)"
        )


def oracle_miss_columns(
    packed: PackedTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle miss columns the detailed core reads, one row per record.

    Returns ``(mispredicted, il1_miss, dcode)``: mispredicted control
    transfers, I-cache misses, and the D-cache miss-class code
    (``DCODE_*``) of every memory access, ``DCODE_NONE`` elsewhere.
    Unannotated (-1) flags read as no miss, as ``OracleAnnotator`` does.
    """
    op = packed.op
    is_control = (op == BRANCH_CODE) | (op == JUMP_CODE)
    is_memory = (op == LOAD_CODE) | (op == STORE_CODE)
    mispredicted = is_control & (packed.mispredict == 1)
    il1_miss = packed.il1_miss == 1
    dcode = np.where(
        is_memory,
        np.where(
            packed.dl2_miss == 1,
            DCODE_LONG,
            np.where(packed.dl1_miss == 1, DCODE_SHORT, DCODE_L1_HIT),
        ),
        DCODE_NONE,
    )
    return mispredicted, il1_miss, dcode
