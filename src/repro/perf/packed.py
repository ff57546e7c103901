"""Columnar trace representation: NumPy structured arrays + CSR deps.

A :class:`PackedTrace` holds the same information as a
:class:`~repro.trace.stream.Trace` — losslessly, round-trip tested —
but in columns: one structured array with a field per
:class:`~repro.trace.record.TraceRecord` attribute, plus the dynamic
dependence lists flattened into a CSR-style (indptr, data) pair.

It is the canonical form of a generated trace: the synthetic generator
writes these columns directly, and :class:`~repro.trace.stream.Trace`
builds record objects from them only when a caller asks for
``trace.records``. The column queries a trace answers (statistics,
miss-event masks, dataflow critical path, validation) live here so that
``repro.trace.stream`` never imports NumPy.

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

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace, TraceStatistics
from repro.util.stats import Histogram

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

#: D-cache miss-class codes of :func:`load_classes`: not a load, L1
#: hit, short (L2-hit) miss, long (memory) miss.
DCODE_NONE, DCODE_L1_HIT, DCODE_SHORT, DCODE_LONG = 0, 1, 2, 3

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

    def producer_csr(self) -> Tuple[List[int], List[int]]:
        """The dependence CSR with each distance turned into the index of
        its producer, producers before record 0 dropped, as Python lists
        ``(indptr, producers)``."""
        n = len(self)
        owners = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.dep_indptr)
        )
        producers = owners - self.dep_data.astype(np.int64)
        keep = producers >= 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners[keep], minlength=n), out=indptr[1:])
        return indptr.tolist(), producers[keep].tolist()

    def window_deps(
        self, start: int, stop: int
    ) -> Tuple[List[int], List[int]]:
        """The dependence CSR of records ``[start, stop)`` as Python lists.

        Returns ``(offsets, distances)``: record ``seq`` depends on
        ``distances[offsets[seq - start]:offsets[seq - start + 1]]``.
        Slice walks read these instead of the whole trace's CSR.
        """
        bounds = self.dep_indptr[start:stop + 1]
        lo = bounds[0]
        return (
            (bounds - lo).tolist(),
            self.dep_data[lo:bounds[-1]].tolist(),
        )

    # -- conversion --------------------------------------------------------

    @classmethod
    def pack(cls, trace: Trace) -> "PackedTrace":
        """Pack a trace's records into columns (lossless)."""
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

    def to_records(self) -> List[TraceRecord]:
        """One :class:`TraceRecord` per row, fields as Python values.

        Every column is converted once (``tolist`` and object-table
        lookups), then one ``map`` builds the records, so the
        constructor's checks still run on each.
        """
        cols = self.columns
        bounds = self.dep_indptr.tolist()
        flat = self.dep_data.tolist()
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

    def unpack(self) -> Trace:
        """The trace over these columns with its records built (inverse
        of :meth:`pack`)."""
        return Trace.from_columns(self, self.to_records())

    def slice(self, start: int, stop: int, name: str) -> "PackedTrace":
        """Rows ``[start, stop)`` (non-negative, ``start <= stop``).

        Distances are kept as they are, so a dependence that reaches
        before ``start`` names a producer before row 0 of the slice.
        """
        lo = self.dep_indptr[start]
        return PackedTrace(
            self.columns[start:stop],
            self.dep_indptr[start:stop + 1] - lo,
            self.dep_data[lo:self.dep_indptr[stop]],
            name=name,
        )

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

    # -- trace queries (the folds behind :class:`Trace`'s methods) ---------

    def validate(self) -> None:
        """The record constructor's checks over whole columns: every
        distance is >= 1 and every memory op has an address. Raises
        ValueError naming the first offending record."""
        bad_dep = np.flatnonzero(self.dep_data < 1)
        op = self.op
        bad_mem = np.flatnonzero(
            ((op == LOAD_CODE) | (op == STORE_CODE))
            & ~self.columns["has_mem_addr"]
        )
        dep_at = (
            int(np.searchsorted(self.dep_indptr, bad_dep[0], side="right")) - 1
            if len(bad_dep)
            else len(self)
        )
        mem_at = int(bad_mem[0]) if len(bad_mem) else len(self)
        if dep_at < len(self) and dep_at <= mem_at:
            raise ValueError(
                f"record {dep_at}: non-positive dependence distance"
            )
        if mem_at < len(self):
            raise ValueError(f"record {mem_at}: memory op without address")

    def is_annotated(self) -> bool:
        """True when every branch carries an oracle mispredict flag."""
        return not np.any((self.op == BRANCH_CODE) & (self.mispredict < 0))

    def branch_indices(self) -> List[int]:
        return np.flatnonzero(self.op == BRANCH_CODE).tolist()

    def mispredicted_indices(self) -> List[int]:
        return np.flatnonzero(
            (self.op == BRANCH_CODE) & (self.mispredict == 1)
        ).tolist()

    def statistics(self) -> TraceStatistics:
        """:class:`TraceStatistics` as bincount folds over the columns."""
        n = len(self)
        op = self.op
        is_branch = op == BRANCH_CODE
        is_load = op == LOAD_CODE
        branch_count = int(np.count_nonzero(is_branch))
        taken_count = int(np.count_nonzero(is_branch & self.taken))
        mispredict_count = int(
            np.count_nonzero(is_branch & (self.mispredict == 1))
        )
        il1_count = int(np.count_nonzero(self.il1_miss == 1))
        load_count = int(np.count_nonzero(is_load))
        dl1_count = int(np.count_nonzero(is_load & (self.dl1_miss == 1)))
        dl2_count = int(np.count_nonzero(is_load & (self.dl2_miss == 1)))
        # The mix keeps the order in which each class first appears.
        codes, first = np.unique(op, return_index=True)
        counts = np.bincount(op, minlength=len(OP_CLASSES))
        mix = {
            OP_CLASSES[code].value: int(counts[code]) / n
            for code in codes[np.argsort(first)].tolist()
        }
        dep_hist = Histogram()
        if len(self.dep_data):
            values = np.bincount(self.dep_data)
            for dist in np.flatnonzero(values).tolist():
                dep_hist.add(dist, int(values[dist]))
        per_ki = 1000.0 / n if n else 0.0
        return TraceStatistics(
            instruction_count=n,
            mix=mix,
            branch_count=branch_count,
            taken_fraction=taken_count / branch_count if branch_count else 0.0,
            mispredict_count=mispredict_count,
            mispredictions_per_ki=mispredict_count * per_ki,
            il1_misses_per_ki=il1_count * per_ki,
            dl1_miss_rate=dl1_count / load_count if load_count else 0.0,
            dl2_miss_rate=dl2_count / load_count if load_count else 0.0,
            mean_dependence_distance=dep_hist.mean,
            dependence_histogram=dep_hist,
        )

    def critical_path_length(
        self, latency_of: Optional[Callable[[OpClass], int]] = None
    ) -> int:
        """Dataflow critical path over the columns; see
        :meth:`Trace.critical_path_length`."""
        n = len(self)
        if not n:
            return 0
        op = self.op
        if latency_of is None:
            latencies = [1] * n
        else:
            table = [0] * len(OP_CLASSES)
            present = np.bincount(op, minlength=len(OP_CLASSES))
            for code in np.flatnonzero(present).tolist():
                table[code] = latency_of(OP_CLASSES[code])
            latencies = list(map(table.__getitem__, op.tolist()))
        indptr, producers = self.producer_csr()
        finish = [0] * n
        # Each finish time needs its producers' finish times: a
        # recurrence in record order, walked once over the CSR lists.
        for i, lo, hi, latency in zip(range(n), indptr, indptr[1:], latencies):
            start = 0
            for producer in producers[lo:hi]:
                if finish[producer] > start:
                    start = finish[producer]
            finish[i] = start + latency
        return max(0, max(finish))


def miss_event_masks(
    packed: PackedTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-record miss-event masks ``(bpred, icache, long, short)``:
    mispredicted conditional branches, I-cache misses, loads that miss
    to memory, and loads that miss L1 only. Unannotated (-1) flags read
    as no event."""
    op = packed.op
    is_load = op == LOAD_CODE
    return (
        (op == BRANCH_CODE) & (packed.mispredict == 1),
        packed.il1_miss == 1,
        is_load & (packed.dl2_miss == 1),
        is_load & (packed.dl1_miss == 1),
    )


def load_classes(packed: PackedTrace, long_misses: bool = True) -> np.ndarray:
    """The D-cache miss-class code (``DCODE_*``) of every load,
    ``DCODE_NONE`` for every other record.

    A load flagged as missing to memory is long whatever its L1 flag;
    with ``long_misses`` off the memory flag is not read, and a load is
    short or a hit on its L1 flag alone. Unannotated (-1) flags read as
    a hit.
    """
    is_load = packed.op == LOAD_CODE
    # DCODE_L1_HIT for every load, one more for an L1 miss.
    code = is_load.astype(np.int8)
    code += is_load & (packed.dl1_miss == 1)
    if long_misses:
        code[is_load & (packed.dl2_miss == 1)] = DCODE_LONG
    return code


def oracle_miss_columns(
    packed: PackedTrace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle miss columns the detailed core reads, one row per record.

    Returns ``(mispredicted, il1_miss, load_class)``: mispredicted
    control transfers, I-cache misses, and :func:`load_classes`.
    Unannotated (-1) flags read as no miss.
    """
    op = packed.op
    is_control = (op == BRANCH_CODE) | (op == JUMP_CODE)
    mispredicted = is_control & (packed.mispredict == 1)
    return mispredicted, packed.il1_miss == 1, load_classes(packed)
