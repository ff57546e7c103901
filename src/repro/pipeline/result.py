"""Simulation results: cycle counts, per-instruction timing, miss events.

A finished result is also what a run reports to the ambient
observability pillars (:func:`observe_run`): the tracer records its
miss events themselves, and its ``core.*`` metrics are read from the
events and counts here, so both are the same whichever core produced
the result.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs import runtime as _obs
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)

#: Element type of the per-instruction cycle columns (signed 64-bit).
CYCLE_TYPECODE = "q"


def cycle_column(values: Optional[Iterable[int]]) -> Optional[array]:
    """``values`` as a typed cycle column; None stays None.

    The cores build their timelines as Python lists and convert once,
    on the way out, so a result holds 8 bytes per cycle rather than one
    int object per cycle, and the store's codec reads the columns
    without copying.
    """
    return None if values is None else array(CYCLE_TYPECODE, values)


@dataclass
class SimulationResult:
    """Everything the interval-analysis layer needs from one run.

    The per-instruction timing columns are ``array('q')`` indexed by
    dynamic sequence number (elements read back as Python ints) and are
    only populated when ``CoreConfig.record_timeline`` is set (the
    default). ``events`` holds the three miss-event types in the order
    their instructions dispatched.
    """

    instructions: int
    cycles: int
    events: List[MissEvent] = field(default_factory=list)
    dispatch_cycle: Optional[array] = None
    issue_cycle: Optional[array] = None
    complete_cycle: Optional[array] = None
    commit_cycle: Optional[array] = None
    fu_issue_counts: Dict[str, int] = field(default_factory=dict)
    rob_peak_occupancy: int = 0
    squashed_ghosts: int = 0

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    @property
    def mispredict_events(self) -> List[BranchMispredictEvent]:
        return [e for e in self.events if isinstance(e, BranchMispredictEvent)]

    @property
    def icache_events(self) -> List[ICacheMissEvent]:
        return [e for e in self.events if isinstance(e, ICacheMissEvent)]

    @property
    def long_dmiss_events(self) -> List[LongDMissEvent]:
        return [e for e in self.events if isinstance(e, LongDMissEvent)]

    @property
    def mean_mispredict_penalty(self) -> float:
        events = self.mispredict_events
        if not events:
            return 0.0
        return sum(e.penalty for e in events) / len(events)

    @property
    def mean_branch_resolution(self) -> float:
        events = self.mispredict_events
        if not events:
            return 0.0
        return sum(e.resolution for e in events) / len(events)

    def summary(self) -> Dict[str, float]:
        """Headline numbers for table rendering."""
        return {
            "instructions": float(self.instructions),
            "cycles": float(self.cycles),
            "ipc": self.ipc,
            "cpi": self.cpi,
            "mispredictions": float(len(self.mispredict_events)),
            "icache_misses": float(len(self.icache_events)),
            "long_dmisses": float(len(self.long_dmiss_events)),
            "mean_penalty": self.mean_mispredict_penalty,
            "mean_resolution": self.mean_branch_resolution,
        }


def observe_run(result: SimulationResult, out_of_order: bool = True) -> None:
    """Report one finished run to the ambient tracer and metrics registry.

    Called once per simulated config by the out-of-order loop
    (:func:`repro.perf.batchcore._run_cores`) and by
    :func:`repro.pipeline.inorder.simulate_inorder`; an empty run
    reports nothing. ``out_of_order`` adds the two window metrics the in-order
    core has no counterpart for.
    """
    if not result.instructions:
        return
    tracer = _obs.current_tracer()
    if tracer is not None:
        tracer.miss_events(result.events)
    metrics = _obs.current_metrics()
    if metrics is None:
        return
    mispredicts = result.mispredict_events
    metrics.counter("core.mispredicts_total").inc(len(mispredicts))
    resolution = metrics.histogram("core.resolution_cycles")
    penalty = metrics.histogram("core.penalty_cycles")
    for event in mispredicts:
        resolution.add(event.resolution)
        penalty.add(event.penalty)
    metrics.counter("core.icache_misses_total").inc(len(result.icache_events))
    metrics.counter("core.long_dmisses_total").inc(
        len(result.long_dmiss_events)
    )
    metrics.counter("core.instructions_total").inc(result.instructions)
    metrics.counter("core.cycles_total").inc(result.cycles)
    if out_of_order:
        metrics.counter("core.wrongpath_squashed_total").inc(
            result.squashed_ghosts
        )
        metrics.gauge("core.rob_occupancy_peak").set_max(
            result.rob_peak_occupancy
        )
