"""Phase timers: where does the wall time go?

The third pillar of ``repro.obs``. A :class:`PhaseProfiler` accumulates
wall-time per named phase (``cli.trace_gen``, ``cli.simulate``,
``fast_sim.estimate`` ...). Call sites either ``add`` a measured
duration or wrap the work in the :meth:`PhaseProfiler.phase` context
manager. The detailed cores have no phases of their own.

Built on the same clock doorway as :class:`repro.util.timing.Stopwatch`
so the CLK001/OBS001 lint rules keep raw ``time.*`` calls out of the
instrumented packages; this module is the one place phase timing may
touch the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.util.timing import default_clock


@dataclass(frozen=True)
class PhaseRow:
    name: str
    count: int
    seconds: float


@dataclass(frozen=True)
class PhaseReport:
    rows: Tuple[PhaseRow, ...]

    @property
    def total_seconds(self) -> float:
        return sum(row.seconds for row in self.rows)

    def as_payload(self) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "phases": [
                {"name": row.name, "count": row.count, "seconds": row.seconds}
                for row in self.rows
            ],
        }

    def render(self) -> str:
        if not self.rows:
            return "(no phases recorded)\n"
        total = self.total_seconds
        width = max(len(row.name) for row in self.rows)
        lines = [f"{'phase'.ljust(width)}  {'calls':>10}  {'seconds':>10}  {'share':>6}"]
        for row in self.rows:
            share = row.seconds / total if total > 0 else 0.0
            lines.append(
                f"{row.name.ljust(width)}  {row.count:>10}"
                f"  {row.seconds:>10.4f}  {share:>5.1%}"
            )
        lines.append(f"{'total'.ljust(width)}  {'':>10}  {total:>10.4f}")
        return "\n".join(lines) + "\n"


class _Phase:
    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Phase":
        self._start = self._profiler.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.add(self._name, self._profiler.clock() - self._start)


class PhaseProfiler:
    """Accumulates (seconds, call count) per phase name.

    The clock is injectable for deterministic tests; it defaults to the
    repo-wide :data:`repro.util.timing.default_clock`.
    """

    def __init__(self, clock: Callable[[], float] = default_clock) -> None:
        self.clock = clock
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + count

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def report(self) -> PhaseReport:
        rows: List[PhaseRow] = [
            PhaseRow(name=name, count=self._counts[name], seconds=seconds)
            for name, seconds in self._seconds.items()
        ]
        rows.sort(key=lambda row: (-row.seconds, row.name))
        return PhaseReport(rows=tuple(rows))

    def clear(self) -> None:
        self._seconds.clear()
        self._counts.clear()
