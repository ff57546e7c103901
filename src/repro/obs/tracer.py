"""Structured event tracing for the simulators.

The first pillar of ``repro.obs``. Every detailed-core run yields one
:class:`MissSpan` per miss event — for a branch mispredict, the span
runs from dispatch through resolution to the end of the frontend
refill, so its duration *is* the penalty the paper decomposes — plus
:class:`InstantEvent` markers at interval boundaries. The spans are
read from the finished result
(:meth:`repro.pipeline.result.SimulationResult.miss_spans`), not
recorded inside the cores, so every core reports a run the same way.

``Tracer`` is the no-op default: every hook is a ``pass``, and callers
guard on ``runtime.current_tracer() is None`` so a disabled run pays
nothing but a handful of ``is not None`` checks.
``RecordingTracer`` buffers everything in memory for export
(:mod:`repro.obs.export`) or direct inspection in tests.

All timestamps are simulated cycles, never wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

#: Span kinds, mirroring the three miss event classes the paper studies.
KIND_BPRED = "bpred"
KIND_ICACHE = "icache"
KIND_LONG_DMISS = "long_dmiss"

SPAN_KINDS: Tuple[str, ...] = (KIND_BPRED, KIND_ICACHE, KIND_LONG_DMISS)

ArgValue = Union[int, float, str]


@dataclass(frozen=True)
class MissSpan:
    """One miss event as a timeline span, in simulated cycles.

    For a branch mispredict (``kind == "bpred"``) the span decomposes as
    dispatch → resolve (``resolution`` cycles of in-flight execution)
    followed by ``refill_cycles`` of frontend refill after the redirect,
    so ``duration`` equals the recorded penalty. I-cache and long D-cache
    miss spans carry ``refill_cycles == 0`` and their duration is just
    the miss latency.
    """

    kind: str
    seq: int
    dispatch_cycle: int
    resolve_cycle: int
    refill_cycles: int = 0
    window_occupancy: int = 0
    wrong_path_instructions: int = 0

    @property
    def resolution(self) -> int:
        return self.resolve_cycle - self.dispatch_cycle

    @property
    def end_cycle(self) -> int:
        return self.resolve_cycle + self.refill_cycles

    @property
    def duration(self) -> int:
        return self.end_cycle - self.dispatch_cycle


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (e.g. an interval boundary)."""

    name: str
    cycle: int
    args: Dict[str, ArgValue] = field(default_factory=dict)


class Tracer:
    """No-op tracer; the default when tracing is disabled."""

    enabled = False

    def miss_span(self, span: MissSpan) -> None:
        pass

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        pass


class RecordingTracer(Tracer):
    """Buffers spans and instants in memory, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[MissSpan] = []
        self.instants: List[InstantEvent] = []

    def miss_span(self, span: MissSpan) -> None:
        self.spans.append(span)

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        self.instants.append(InstantEvent(name=name, cycle=cycle, args=args))

    def spans_of_kind(self, kind: str) -> List[MissSpan]:
        return [span for span in self.spans if span.kind == kind]

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for span in self.spans:
            tally[span.kind] = tally.get(span.kind, 0) + 1
        return tally

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)
