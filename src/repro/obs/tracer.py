"""Structured event tracing for the simulators.

The first pillar of ``repro.obs``. A traced run records its finished
result's miss events (:class:`~repro.pipeline.events.MissEvent`), in
event order, plus :class:`InstantEvent` markers at interval boundaries.
The events are read from the finished result
(:func:`repro.pipeline.result.observe_run`), not recorded inside the
cores, so every core reports a run the same way. The export
(:mod:`repro.obs.export`) draws each event as a timeline span: a branch
mispredict's runs from dispatch through resolution to the end of the
frontend refill, so its duration *is* the penalty the paper
decomposes.

``Tracer`` is the no-op default: every hook is a ``pass``, and callers
guard on ``runtime.current_tracer() is None`` so a disabled run pays
nothing but a handful of ``is not None`` checks.
``RecordingTracer`` buffers everything in memory for export
(:mod:`repro.obs.export`) or direct inspection in tests.

All timestamps are simulated cycles, never wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.pipeline.events import MissEvent

#: Short span kinds, one per miss event class the paper studies.
KIND_BPRED = "bpred"
KIND_ICACHE = "icache"
KIND_LONG_DMISS = "long_dmiss"

SPAN_KINDS: Tuple[str, ...] = (KIND_BPRED, KIND_ICACHE, KIND_LONG_DMISS)

ArgValue = Union[int, float, str]


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (e.g. an interval boundary)."""

    name: str
    cycle: int
    args: Dict[str, ArgValue] = field(default_factory=dict)


class Tracer:
    """No-op tracer; the default when tracing is disabled."""

    enabled = False

    def miss_events(self, events: Sequence["MissEvent"]) -> None:
        pass

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        pass


class RecordingTracer(Tracer):
    """Buffers miss events and instants in memory, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.events: List["MissEvent"] = []
        self.instants: List[InstantEvent] = []

    def miss_events(self, events: Sequence["MissEvent"]) -> None:
        self.events.extend(events)

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        self.instants.append(InstantEvent(name=name, cycle=cycle, args=args))

    def counts(self) -> Dict[str, int]:
        """Recorded miss events per short kind (``KIND_*``)."""
        # The export holds the event-type layout. It imports the
        # pipeline's event types, and the pipeline imports this module
        # (through repro.obs.runtime), so the layout is read at call time.
        from repro.obs.export import event_kind

        tally: Dict[str, int] = {}
        for event in self.events:
            kind = event_kind(event)
            tally[kind] = tally.get(kind, 0) + 1
        return tally

    def __len__(self) -> int:
        return len(self.events) + len(self.instants)
