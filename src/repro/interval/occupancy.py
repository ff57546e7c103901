"""Window (ROB) occupancy reconstruction from a simulation timeline.

Contributor C2 works through the window occupancy at branch dispatch;
this module reconstructs the full occupancy-over-time signal from the
per-instruction dispatch/commit cycles, so occupancy can be studied
directly: its distribution, its trajectory around miss events, and its
correlation with resolution times.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.pipeline.result import SimulationResult


def occupancy_events(result: SimulationResult) -> List[Tuple[int, int]]:
    """(cycle, delta) events: +1 at each dispatch, -1 after each commit.

    Requires a recorded timeline.
    """
    if result.dispatch_cycle is None or result.commit_cycle is None:
        raise ValueError("timeline recording was disabled for this run")
    events: List[Tuple[int, int]] = []
    for cycle in result.dispatch_cycle:
        events.append((cycle, +1))
    for cycle in result.commit_cycle:
        # commit precedes dispatch within a cycle, so the slot frees at
        # the commit cycle itself; sorting puts the -1 first at ties.
        events.append((cycle, -1))
    events.sort()
    return events


def occupancy_trace(result: SimulationResult) -> List[Tuple[int, int]]:
    """Piecewise-constant occupancy: (cycle, occupancy) change points."""
    points: List[Tuple[int, int]] = []
    occupancy = 0
    for cycle, delta in occupancy_events(result):
        occupancy += delta
        if points and points[-1][0] == cycle:
            points[-1] = (cycle, occupancy)
        else:
            points.append((cycle, occupancy))
    return points


def occupancy_at_dispatch(result: SimulationResult) -> List[int]:
    """Occupancy seen by each instruction as it dispatched (cheap
    reconstruction: instructions dispatched-but-not-yet-committed)."""
    if result.dispatch_cycle is None or result.commit_cycle is None:
        raise ValueError("timeline recording was disabled for this run")
    n = result.instructions
    occupancies: List[int] = []
    # Two-pointer sweep over commit cycles sorted by seq (program order
    # commits make commit_cycle non-decreasing).
    committed = 0
    for seq in range(n):
        dispatch = result.dispatch_cycle[seq]
        while (
            committed < seq and result.commit_cycle[committed] <= dispatch
        ):
            committed += 1
        occupancies.append(seq - committed)
    return occupancies
