"""Interval timeline extraction (figure F1).

Turns a simulation's per-instruction dispatch cycles into the classic
interval-analysis "sawtooth": dispatch rate over time around a miss
event — steady at the machine width, collapsing when the event hits,
recovering after resolve + refill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.pipeline.events import BranchMispredictEvent
from repro.pipeline.result import SimulationResult


@dataclass(frozen=True)
class TimelinePoint:
    """One bucket of the dispatch-rate timeline."""

    relative_cycle: int  # bucket start, relative to the branch dispatch
    dispatch_rate: float
    phase: str  # steady | resolving | refill | ramp-up


def interval_timeline(
    result: SimulationResult,
    event: BranchMispredictEvent,
    lead_cycles: int = 30,
    trail_cycles: int = 30,
    bucket: int = 5,
) -> List[TimelinePoint]:
    """Dispatch-rate buckets around one misprediction event.

    Requires the run to have recorded its timeline
    (``CoreConfig.record_timeline``).
    """
    if result.dispatch_cycle is None:
        raise ValueError("timeline recording was disabled for this run")
    if bucket < 1:
        raise ValueError(f"bucket must be >= 1, got {bucket}")
    start = event.cycle - lead_cycles
    stop = event.resolve_cycle + event.refill_cycles + trail_cycles
    counts = {}
    for cycle in result.dispatch_cycle:
        if start <= cycle < stop:
            index = (cycle - start) // bucket
            counts[index] = counts.get(index, 0) + 1

    points: List[TimelinePoint] = []
    for index in range((stop - start) // bucket + 1):
        relative = start + index * bucket - event.cycle
        rate = counts.get(index, 0) / bucket
        if relative < 0:
            phase = "steady"
        elif relative < event.resolution:
            phase = "resolving"
        elif relative < event.resolution + event.refill_cycles:
            phase = "refill"
        else:
            phase = "ramp-up"
        points.append(
            TimelinePoint(
                relative_cycle=relative, dispatch_rate=rate, phase=phase
            )
        )
    return points


def pick_illustrative_event(
    result: SimulationResult,
    min_resolution: int = 10,
    min_occupancy: int = 32,
) -> Optional[BranchMispredictEvent]:
    """A misprediction worth plotting: long enough to show the phases.

    Falls back to the median event when none meets the thresholds;
    None when the run had no mispredictions.
    """
    events = result.mispredict_events
    if not events:
        return None
    qualified = [
        e
        for e in events
        if e.resolution >= min_resolution
        and e.window_occupancy >= min_occupancy
    ]
    pool = qualified or events
    return pool[len(pool) // 2]

