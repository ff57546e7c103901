"""Trace container and descriptive statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.stats import Histogram


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
    """An ordered dynamic instruction stream with a name.

    A trace is one immutable set of columns
    (:class:`repro.perf.packed.PackedTrace`), wrapped as they are: the
    synthetic generator, the functional executor, the trace-file reader
    and the counterfactual transforms each build their columns and pass
    them in. Every query below is a fold over the columns. Nothing may
    write to them after construction.
    """

    def __init__(self, packed):
        self._columns = packed
        self.name = packed.name
        self._stats_cache: Optional[TraceStatistics] = None

    def __len__(self) -> int:
        return len(self._columns)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return the sub-trace ``[start:stop]``, a slice of the columns.

        Dependence distances are kept as they are: one that reaches
        before ``start`` names a producer before the sub-trace's first
        record, which the simulators treat as already complete, so
        slicing is always safe.
        """
        lo, hi, _ = slice(start, stop).indices(len(self))
        name = f"{self.name}[{start}:{stop}]"
        return Trace(self._columns.slice(lo, max(lo, hi), name))

    @property
    def is_annotated(self) -> bool:
        """True when branch records carry oracle mispredict flags."""
        return self.pack().is_annotated()

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        self.pack().validate()

    def statistics(self) -> TraceStatistics:
        """Descriptive statistics over the whole trace.

        Memoized: the lab bills this per job, so repeated calls return
        the same object. Treat the result as read-only — it is shared
        between callers.
        """
        if self._stats_cache is None:
            self._stats_cache = self._compute_statistics()
        return self._stats_cache

    def pack(self):
        """This trace's columns (:class:`repro.perf.packed.PackedTrace`),
        as they are."""
        return self._columns

    def _compute_statistics(self) -> TraceStatistics:
        return self.pack().statistics()

    def branch_indices(self) -> List[int]:
        """Indices of conditional branches."""
        return self.pack().branch_indices()

    def mispredicted_indices(self) -> List[int]:
        """Indices of annotated mispredicted branches."""
        return self.pack().mispredicted_indices()

    def critical_path_length(self, latency_of=None) -> int:
        """Dataflow critical path length of the whole trace, in cycles.

        ``latency_of`` maps an :class:`OpClass` to an execution latency;
        the default charges one cycle per instruction, which yields the
        classic dataflow-limit measure of inherent ILP.
        """
        return self.pack().critical_path_length(latency_of)

    def dataflow_ipc(self, latency_of=None) -> float:
        """Instructions per cycle at the dataflow limit (infinite window)."""
        n = len(self)
        if not n:
            return 0.0
        length = self.critical_path_length(latency_of)
        return n / length if length else float(n)
