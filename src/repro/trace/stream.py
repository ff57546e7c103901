"""The trace: one immutable set of columns, and its descriptive statistics.

This module loads no NumPy at import time: building a trace needs its
arrays, so each method imports NumPy and the format
(:mod:`repro.trace.columns`) where it uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.util.stats import Histogram

if TYPE_CHECKING:
    import numpy as np

    from repro.isa.opcodes import OpClass


@dataclass
class TraceStatistics:
    """Descriptive statistics of a dynamic trace.

    These are exactly the quantities the synthetic generator is
    parameterized on, which lets tests close the loop: generate a trace
    from a profile, measure it, and check the statistics match.
    """

    instruction_count: int
    mix: Dict[str, float]
    branch_count: int
    taken_fraction: float
    mispredict_count: int
    mispredictions_per_ki: float
    il1_misses_per_ki: float
    dl1_miss_rate: float
    dl2_miss_rate: float
    mean_dependence_distance: float
    dependence_histogram: Histogram = field(repr=False)

    @property
    def mispredict_rate(self) -> float:
        """Mispredictions per conditional branch."""
        if not self.branch_count:
            return 0.0
        return self.mispredict_count / self.branch_count


class Trace:
    """An ordered dynamic instruction stream with a name, as columns.

    ``columns`` is a structured array of
    :data:`~repro.trace.columns.RECORD_DTYPE`, one row per dynamic
    instruction; ``dep_indptr[i]:dep_indptr[i + 1]`` slices
    ``dep_data`` to row ``i``'s dependence distances (see
    :mod:`repro.trace.columns` for the encoding). The synthetic
    generator, the functional executor, the trace-file reader and the
    counterfactual transforms each build their arrays and pass them in.
    Every query below is a fold over them. Nothing may write to them
    after construction.
    """

    __slots__ = (
        "columns",
        "dep_indptr",
        "dep_data",
        "name",
        "_stats_cache",
        "__weakref__",
    )

    def __init__(
        self,
        columns: "np.ndarray",
        dep_indptr: "np.ndarray",
        dep_data: "np.ndarray",
        name: str = "trace",
    ):
        from repro.trace.columns import RECORD_DTYPE

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
        self._stats_cache: Optional[TraceStatistics] = None

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, n={len(self)}, deps={len(self.dep_data)})"

    # -- column views ------------------------------------------------------

    @property
    def op(self) -> "np.ndarray":
        return self.columns["op"]

    @property
    def pc(self) -> "np.ndarray":
        return self.columns["pc"]

    @property
    def taken(self) -> "np.ndarray":
        return self.columns["taken"]

    @property
    def mispredict(self) -> "np.ndarray":
        return self.columns["mispredict"]

    @property
    def il1_miss(self) -> "np.ndarray":
        return self.columns["il1_miss"]

    @property
    def dl1_miss(self) -> "np.ndarray":
        return self.columns["dl1_miss"]

    @property
    def dl2_miss(self) -> "np.ndarray":
        return self.columns["dl2_miss"]

    # -- queries -----------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Trace":
        """Return the sub-trace ``[start:stop]``, a slice of the columns.

        Dependence distances are kept as they are: one that reaches
        before ``start`` names a producer before the sub-trace's first
        record, which the simulators treat as already complete, so
        slicing is always safe.
        """
        lo, hi, _ = slice(start, stop).indices(len(self))
        hi = max(lo, hi)
        base = self.dep_indptr[lo]
        return Trace(
            self.columns[lo:hi],
            self.dep_indptr[lo:hi + 1] - base,
            self.dep_data[base:self.dep_indptr[hi]],
            name=f"{self.name}[{start}:{stop}]",
        )

    def producer_csr(self) -> Tuple[List[int], List[int]]:
        """The dependence CSR with each distance turned into the index of
        its producer, producers before record 0 dropped, as Python lists
        ``(indptr, producers)``."""
        import numpy as np

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

    def validate(self) -> None:
        """The trace invariants over whole columns: every distance is
        >= 1 and every memory op has an address. Raises ValueError
        naming the first offending record."""
        import numpy as np

        from repro.trace.columns import LOAD_CODE, STORE_CODE

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

    def statistics(self) -> TraceStatistics:
        """Descriptive statistics over the whole trace, as bincount folds
        over the columns.

        Memoized: the lab bills this per job, so repeated calls return
        the same object. Treat the result as read-only — it is shared
        between callers.
        """
        if self._stats_cache is not None:
            return self._stats_cache
        import numpy as np

        from repro.trace.columns import BRANCH_CODE, LOAD_CODE, OP_CLASSES

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
        self._stats_cache = TraceStatistics(
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
        return self._stats_cache

    def critical_path_length(
        self, latency_of: Optional[Callable[["OpClass"], int]] = None
    ) -> int:
        """Dataflow critical path length of the whole trace, in cycles.

        ``latency_of`` maps an :class:`OpClass` to an execution latency;
        the default charges one cycle per instruction, which yields the
        classic dataflow-limit measure of inherent ILP.
        """
        import numpy as np

        from repro.trace.columns import OP_CLASSES

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

    def dataflow_ipc(self, latency_of=None) -> float:
        """Instructions per cycle at the dataflow limit (infinite window)."""
        n = len(self)
        if not n:
            return 0.0
        length = self.critical_path_length(latency_of)
        return n / length if length else float(n)
