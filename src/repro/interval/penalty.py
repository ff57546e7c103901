"""Branch misprediction penalty measurement and aggregation.

The paper's central measurement: for every mispredicted branch,

``penalty = resolution + refill``

where *resolution* is dispatch→execute of the branch and *refill* the
frontend pipeline depth. This module aggregates those measurements per
workload and characterizes contributor C2 by bucketing resolution times
against the number of instructions since the previous miss event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.interval.segmentation import segment_intervals
from repro.pipeline.events import BranchMispredictEvent, MissEventKind
from repro.pipeline.result import SimulationResult
from repro.util.stats import OnlineStats, bucketize


@dataclass(frozen=True)
class PenaltyDecomposition:
    """One misprediction's measured penalty pieces.

    ``prev_kind`` is the kind of the miss event that ended the previous
    interval (None for the first interval). It matters for the C2
    characterization: after a branch misprediction or I-cache miss the
    window restarts empty, so the gap measures window occupancy; after
    a long D-cache miss the window is still full of stalled work and
    the gap-occupancy correspondence breaks (the long-miss shadow).
    """

    seq: int
    resolution: int
    refill: int
    window_occupancy: int
    gap: int  # instructions since the previous miss event
    prev_kind: "MissEventKind" = None

    @property
    def penalty(self) -> int:
        return self.resolution + self.refill

    @property
    def in_long_miss_shadow(self) -> bool:
        return self.prev_kind is MissEventKind.LONG_DCACHE_MISS


@dataclass
class PenaltyReport:
    """Aggregate penalty statistics for one run."""

    decompositions: List[PenaltyDecomposition]
    frontend_depth: int
    resolution_stats: OnlineStats = field(default_factory=OnlineStats)

    @property
    def count(self) -> int:
        return len(self.decompositions)

    @property
    def mean_resolution(self) -> float:
        return self.resolution_stats.mean

    @property
    def mean_penalty(self) -> float:
        return self.mean_resolution + self.frontend_depth

    @property
    def penalty_over_refill(self) -> float:
        """How much larger the true penalty is than the refill alone —
        the paper's headline ratio (folk wisdom says 1.0)."""
        if not self.frontend_depth:
            return 0.0
        return self.mean_penalty / self.frontend_depth


def measure_penalties(result: SimulationResult) -> PenaltyReport:
    """Measure every misprediction's penalty in one simulation."""
    breakdown = segment_intervals(result)
    gap_by_seq: Dict[int, int] = {}
    prev_kind_by_seq: Dict[int, object] = {}
    previous_kind = None
    for interval in breakdown.intervals:
        if interval.kind is MissEventKind.BRANCH_MISPREDICT:
            gap_by_seq[interval.end_seq] = interval.gap
            prev_kind_by_seq[interval.end_seq] = previous_kind
        previous_kind = interval.kind

    decompositions: List[PenaltyDecomposition] = []
    refill = 0
    for event in result.events:
        if not isinstance(event, BranchMispredictEvent):
            continue
        refill = event.refill_cycles
        decompositions.append(
            PenaltyDecomposition(
                seq=event.seq,
                resolution=event.resolution,
                refill=event.refill_cycles,
                window_occupancy=event.window_occupancy,
                gap=gap_by_seq.get(event.seq, event.seq),
                prev_kind=prev_kind_by_seq.get(event.seq),
            )
        )
    report = PenaltyReport(decompositions=decompositions, frontend_depth=refill)
    san = _sanitizer.current()
    for item in decompositions:
        report.resolution_stats.add(item.resolution)
        if san is not None:
            san.check_penalty_decomposition(item)
    return report


DEFAULT_GAP_EDGES: Tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)


def bucket_resolution_by_gap(
    report: PenaltyReport,
    edges: Sequence[int] = DEFAULT_GAP_EDGES,
    exclude_long_miss_shadow: bool = False,
) -> List[Tuple[str, int, float]]:
    """Average resolution time per instructions-since-last-event bucket.

    Returns (bucket label, count, mean resolution) rows — the F4
    characterization of contributor C2: short gaps mean a near-empty
    window and fast resolution; long gaps saturate at the full window
    drain time.

    ``exclude_long_miss_shadow`` drops mispredictions whose previous
    event was a long D-cache miss: the window is still full of stalled
    work behind such an event, so the gap does not measure occupancy
    there and the correlation inverts (most visibly on mcf).
    """
    buckets: List[OnlineStats] = [OnlineStats() for _ in range(len(edges) + 1)]
    for item in report.decompositions:
        if exclude_long_miss_shadow and item.in_long_miss_shadow:
            continue
        buckets[bucketize(item.gap, edges)].add(item.resolution)
    rows = []
    lower = 0
    for i, edge in enumerate(edges):
        label = f"{lower}-{edge}"
        rows.append((label, buckets[i].count, buckets[i].mean))
        lower = edge + 1
    rows.append((f">{edges[-1]}", buckets[-1].count, buckets[-1].mean))
    return rows
