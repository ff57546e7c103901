"""Trace container and descriptive statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.trace.record import TraceRecord
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
    """An ordered sequence of :class:`TraceRecord` with metadata.

    A trace is held in one of two forms. A *record-built* trace keeps
    the records it was given and packs them into columns
    (:class:`repro.perf.packed.PackedTrace`) on the first :meth:`pack`.
    A *column-backed* trace (:meth:`from_columns`, which the synthetic
    generator uses) keeps only the columns; :attr:`records` builds the
    record objects from them on first access and caches them. Every
    query below is a fold over the columns, so it never builds records.
    :meth:`append` / :meth:`extend` work on records and drop the
    columns, which the next :meth:`pack` rebuilds.
    """

    def __init__(
        self,
        records: Optional[Sequence[TraceRecord]] = None,
        name: str = "trace",
    ):
        self._records: Optional[List[TraceRecord]] = (
            list(records) if records else []
        )
        self._columns = None
        self.name = name
        self._version = 0
        self._stats_cache: Optional[TraceStatistics] = None

    @classmethod
    def from_columns(cls, packed) -> "Trace":
        """A column-backed trace over ``packed`` (not copied); its name
        is the columns' name."""
        trace = cls(name=packed.name)
        trace._records = None
        trace._columns = packed
        return trace

    @property
    def records(self) -> List[TraceRecord]:
        """The records, built from the columns on first access."""
        if self._records is None:
            self._records = self._columns.to_records()
        return self._records

    @property
    def version(self) -> int:
        """Mutation counter; bumped by :meth:`append` / :meth:`extend`.

        Derived-value caches (statistics, packed form, reachability
        sets) key on this to notice when the record list has grown.
        """
        return self._version

    def _invalidate(self) -> None:
        self._version += 1
        self._stats_cache = None
        self._columns = None

    def __len__(self) -> int:
        if self._records is None:
            return len(self._columns)
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)
        self._invalidate()

    def extend(self, records: Sequence[TraceRecord]) -> None:
        self.records.extend(records)
        self._invalidate()

    def slice(self, start: int, stop: int) -> "Trace":
        """Return the sub-trace ``[start:stop]``.

        Dependence distances are kept as they are: one that reaches
        before ``start`` names a producer before the sub-trace's first
        record, which the simulators treat as already complete, so
        slicing is always safe. A column-backed trace slices its
        columns.
        """
        name = f"{self.name}[{start}:{stop}]"
        if self._records is None:
            lo, hi, _ = slice(start, stop).indices(len(self))
            return Trace.from_columns(
                self._columns.slice(lo, max(lo, hi), name)
            )
        return Trace(self._records[start:stop], name=name)

    @property
    def is_annotated(self) -> bool:
        """True when branch records carry oracle mispredict flags."""
        return self.pack().is_annotated()

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        self.pack().validate()

    def statistics(self) -> TraceStatistics:
        """Descriptive statistics over the whole trace.

        Memoized: the lab bills this per job, so repeated calls on an
        unchanged trace return the same object. :meth:`append` /
        :meth:`extend` invalidate the cache. Treat the result as
        read-only — it is shared between callers.
        """
        if self._stats_cache is None:
            self._stats_cache = self._compute_statistics()
        return self._stats_cache

    def pack(self):
        """This trace in columnar form (:class:`repro.perf.packed.
        PackedTrace`). A column-backed trace returns its columns as
        they are; a record-built one packs its records once, memoized
        with the same invalidation as :meth:`statistics`."""
        if self._columns is None:
            from repro.perf.packed import PackedTrace

            self._columns = PackedTrace.pack(self)
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
