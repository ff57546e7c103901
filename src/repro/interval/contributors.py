"""Five-way decomposition of the branch misprediction penalty.

The paper's contribution is to identify and quantify five contributors.
We quantify them per misprediction by evaluating the branch's backward
slice (the dependence chain the branch waits on, restricted to the
window content at dispatch) under incrementally richer latency models:

=====  ======================================  =========================
piece  measured as                              paper contributor
=====  ======================================  =========================
C1     frontend refill (constant)               frontend pipeline length
C2     reflected in the slice depth via the     instructions since last
       window occupancy at dispatch             miss event (burstiness)
C3     slice critical path, unit latencies      inherent program ILP
C4     + (FU latencies) - (unit latencies)      functional unit latency
C5     + (FU + D-cache) - (FU only)             short L1 D-cache misses
=====  ======================================  =========================

The issue/dispatch overhead not explained by the slice (scheduling,
width contention) is reported separately as ``residual`` so that the
pieces plus the residual always sum to the measured penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.interval.ilp import (
    backward_slice_latencies,
    fu_latency,
    full_latency,
    unit_latency,
)
from repro.interval.penalty import PenaltyReport, measure_penalties
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace


@dataclass
class ContributorBreakdown:
    """Average per-misprediction attribution (cycles)."""

    count: int
    refill: float  # C1
    mean_gap: float  # C2 (reported as the driver, in instructions)
    mean_occupancy: float  # C2's machine-level expression
    ilp_chain: float  # C3: unit-latency slice depth
    fu_latency_extra: float  # C4
    short_miss_extra: float  # C5
    residual: float  # scheduling/width effects not in the slice
    mean_resolution: float
    mean_penalty: float

    @property
    def explained(self) -> float:
        """Slice-explained share of the resolution time."""
        return self.ilp_chain + self.fu_latency_extra + self.short_miss_extra

    def rows(self) -> List[tuple]:
        """Rows for the F11 table."""
        return [
            ("C1 frontend refill", self.refill),
            ("C3 inherent-ILP chain (unit latency)", self.ilp_chain),
            ("C4 functional-unit latency", self.fu_latency_extra),
            ("C5 short (L1) D-cache misses", self.short_miss_extra),
            ("scheduling residual", self.residual),
            ("total penalty", self.mean_penalty),
            ("(C2 driver: mean instrs since last event)", self.mean_gap),
            ("(C2 expression: mean window occupancy)", self.mean_occupancy),
        ]


def decompose_contributors(
    trace: Trace,
    result: SimulationResult,
    config: CoreConfig,
    report: Optional[PenaltyReport] = None,
    max_events: Optional[int] = None,
) -> ContributorBreakdown:
    """Attribute each misprediction's penalty to the five contributors.

    ``max_events`` caps how many mispredictions are sliced, to bound
    analysis time on very long traces: the first ``max_events`` in
    program order are taken, not a sample of the whole run.
    """
    if report is None:
        report = measure_penalties(result)
    items = report.decompositions
    if max_events is not None:
        items = items[:max_events]
    if not items:
        return ContributorBreakdown(
            count=0,
            refill=float(config.frontend_depth),
            mean_gap=0.0,
            mean_occupancy=0.0,
            ilp_chain=0.0,
            fu_latency_extra=0.0,
            short_miss_extra=0.0,
            residual=0.0,
            mean_resolution=0.0,
            mean_penalty=float(config.frontend_depth),
        )

    latencies = (
        unit_latency(trace),
        fu_latency(trace, config.fu_specs, config),
        full_latency(trace, config.fu_specs, config),
    )

    # Producers that finished executing before the branch dispatched do
    # not delay it: anchor the slice at the branch's dispatch cycle.
    complete = result.complete_cycle
    dispatch = result.dispatch_cycle

    total_unit = 0.0
    total_fu = 0.0
    total_full = 0.0
    total_resolution = 0.0
    total_gap = 0.0
    total_occ = 0.0
    for item in items:
        window_start = max(0, item.seq - item.window_occupancy)
        if complete is not None and dispatch is not None:
            branch_dispatch = dispatch[item.seq]

            def satisfied(seq: int, _at: int = branch_dispatch) -> bool:
                return complete[seq] != 0 and complete[seq] <= _at
        else:
            satisfied = None
        unit_depth, fu_depth, full_depth = backward_slice_latencies(
            trace, item.seq, window_start, latencies, satisfied=satisfied
        )
        total_unit += unit_depth
        total_fu += fu_depth
        total_full += full_depth
        total_resolution += item.resolution
        total_gap += item.gap
        total_occ += item.window_occupancy

    n = len(items)
    mean_unit = total_unit / n
    mean_fu = total_fu / n
    mean_full = total_full / n
    mean_resolution = total_resolution / n
    return ContributorBreakdown(
        count=n,
        refill=float(config.frontend_depth),
        mean_gap=total_gap / n,
        mean_occupancy=total_occ / n,
        ilp_chain=mean_unit,
        fu_latency_extra=mean_fu - mean_unit,
        short_miss_extra=mean_full - mean_fu,
        residual=mean_resolution - mean_full,
        mean_resolution=mean_resolution,
        mean_penalty=mean_resolution + config.frontend_depth,
    )
