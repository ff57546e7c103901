"""Interval segmentation: cutting execution at miss events.

An *interval* is the run of dynamic instructions from just after one
miss event up to and including the next one. The first interval starts
at instruction 0; if the trace ends without a final event, the tail
forms a trailing event-less interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs import runtime as _obs
from repro.pipeline.events import MissEvent, MissEventKind
from repro.pipeline.result import SimulationResult
from repro.util.stats import Histogram


@dataclass(frozen=True)
class Interval:
    """One inter-miss interval.

    ``start_seq`` is the first instruction of the interval;
    ``end_seq`` the index of the terminating event's instruction
    (inclusive). ``event`` is None only for a trailing tail interval.
    """

    start_seq: int
    end_seq: int
    event: Optional[MissEvent]

    @property
    def length(self) -> int:
        """Number of instructions in the interval (>= 1)."""
        return self.end_seq - self.start_seq + 1

    @property
    def gap(self) -> int:
        """Instructions *before* the event since the previous event —
        the paper's "number of instructions since the last miss event"
        (contributor C2)."""
        return self.end_seq - self.start_seq

    @property
    def kind(self) -> Optional[MissEventKind]:
        return self.event.kind if self.event is not None else None


@dataclass
class IntervalBreakdown:
    """All intervals of a run plus summary statistics."""

    intervals: List[Interval]
    instructions: int

    @property
    def event_count(self) -> int:
        return sum(1 for iv in self.intervals if iv.event is not None)

    def length_histogram(self, kind: Optional[MissEventKind] = None) -> Histogram:
        """Histogram of interval lengths (optionally one event kind)."""
        hist = Histogram()
        for interval in self.intervals:
            if interval.event is None:
                continue
            if kind is not None and interval.kind is not kind:
                continue
            hist.add(interval.length)
        return hist

    @property
    def mean_interval_length(self) -> float:
        lengths = [iv.length for iv in self.intervals if iv.event is not None]
        if not lengths:
            return 0.0
        return sum(lengths) / len(lengths)

    def burstiness(self) -> float:
        """Coefficient of variation of interval lengths.

        Pure Bernoulli event placement gives CV ~= 1 (geometric gaps);
        clustered (bursty) miss events push CV above 1.
        """
        lengths = [iv.length for iv in self.intervals if iv.event is not None]
        if len(lengths) < 2:
            return 0.0
        mean = sum(lengths) / len(lengths)
        if mean == 0:
            return 0.0
        var = sum((x - mean) ** 2 for x in lengths) / (len(lengths) - 1)
        return var**0.5 / mean


def segment_intervals(result: SimulationResult) -> IntervalBreakdown:
    """Segment a simulation's committed stream into intervals.

    Events are cut points in dynamic-instruction order. Multiple events
    on the same instruction (e.g. an I-cache miss on a mispredicted
    branch) are merged into one interval terminated by the
    highest-priority event (mispredict > long D-miss > I-cache miss),
    matching the paper's treatment of overlapping events.
    """
    priority = {
        MissEventKind.BRANCH_MISPREDICT: 0,
        MissEventKind.LONG_DCACHE_MISS: 1,
        MissEventKind.ICACHE_MISS: 2,
    }
    by_seq: dict = {}
    for event in result.events:
        current = by_seq.get(event.seq)
        if current is None or priority[event.kind] < priority[current.kind]:
            by_seq[event.seq] = event
    intervals: List[Interval] = []
    start = 0
    for seq in sorted(by_seq):
        event = by_seq[seq]
        if seq < start:
            continue  # defensive: events must not precede the interval
        intervals.append(Interval(start_seq=start, end_seq=seq, event=event))
        start = seq + 1
    if start < result.instructions:
        intervals.append(
            Interval(start_seq=start, end_seq=result.instructions - 1, event=None)
        )
    _observe_intervals(result, intervals)
    return IntervalBreakdown(intervals=intervals, instructions=result.instructions)


def _observe_intervals(result: SimulationResult, intervals: List[Interval]) -> None:
    """Emit interval-boundary instants and length metrics, once per result.

    Segmentation is re-run by several analyses over the same result
    (penalty measurement, the CPI stack), so the emission is keyed on the
    result object to keep traces and metrics free of duplicates.
    """
    tracer = _obs.current_tracer()
    metrics = _obs.current_metrics()
    if tracer is None and metrics is None:
        return
    if getattr(result, "_obs_segmented", False):
        return
    result._obs_segmented = True
    m_length = (
        metrics.histogram("interval.length_instructions")
        if metrics is not None
        else None
    )
    m_events = (
        metrics.counter("interval.events_total") if metrics is not None else None
    )
    for interval in intervals:
        if interval.event is None:
            continue
        if m_length is not None:
            m_length.add(interval.length)
            m_events.inc()
        if tracer is not None:
            tracer.instant(
                "interval_boundary",
                cycle=interval.event.cycle,
                seq=interval.end_seq,
                length_instructions=interval.length,
                kind=interval.event.kind.value,
            )
