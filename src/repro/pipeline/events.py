"""Miss-event records emitted by the timing simulator.

These are the raw material of interval analysis: each event carries the
dynamic instruction index (``seq``) and the cycles needed to segment
execution into inter-miss intervals and to decompose penalties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MissEventKind(enum.Enum):
    """The paper's three miss-event types."""

    BRANCH_MISPREDICT = "branch_mispredict"
    ICACHE_MISS = "icache_miss"
    LONG_DCACHE_MISS = "long_dcache_miss"


@dataclass(frozen=True)
class MissEvent:
    """Base fields shared by all miss events."""

    seq: int
    cycle: int  # cycle the event's instruction entered the window

    @property
    def kind(self) -> MissEventKind:
        raise NotImplementedError


@dataclass(frozen=True)
class BranchMispredictEvent(MissEvent):
    """A mispredicted conditional branch (or jump target miss).

    ``resolve_cycle`` is when the branch executed; the resolution time
    (``resolve_cycle - cycle``) plus the frontend refill is the paper's
    misprediction penalty. ``window_occupancy`` is the number of
    instructions in the ROB when the branch dispatched — the quantity
    contributor C2 (instructions since last miss event) controls.
    ``wrong_path_instructions`` counts the ghost instructions dispatched
    while the branch was unresolved; only the wrong-path dispatch mode
    has any, so it is 0 everywhere else.
    """

    resolve_cycle: int = 0
    refill_cycles: int = 0
    window_occupancy: int = 0
    wrong_path_instructions: int = 0

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.BRANCH_MISPREDICT

    @property
    def resolution(self) -> int:
        """Branch resolution time in cycles (dispatch -> execute)."""
        return self.resolve_cycle - self.cycle

    @property
    def penalty(self) -> int:
        """Total misprediction penalty: resolution + frontend refill."""
        return self.resolution + self.refill_cycles


@dataclass(frozen=True)
class ICacheMissEvent(MissEvent):
    """An instruction-cache miss stalling the frontend."""

    latency: int = 0
    long_miss: bool = False  # True when the line came from memory

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.ICACHE_MISS


@dataclass(frozen=True)
class LongDMissEvent(MissEvent):
    """A load that missed in L2 (served by main memory)."""

    complete_cycle: int = 0

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.LONG_DCACHE_MISS

    @property
    def latency(self) -> int:
        return self.complete_cycle - self.cycle
