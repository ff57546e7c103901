"""Interval simulation: a fast analytical alternative to cycle simulation.

This paper's interval analysis later grew into *interval simulation*
(the Sniper simulator): instead of simulating every cycle, walk the
dynamic stream once, charge ``1/D`` cycle per instruction between miss
events, and charge each miss event its analytically derived penalty.
This module implements that idea over our annotated traces:

* between events, instructions cost ``1 / dispatch_width`` cycles;
* a branch misprediction costs its *measured backward slice*: the
  critical path, under steady-state latencies, of the dependence chain
  feeding the branch within the window content at dispatch (bounded by
  the gap to the previous event and the ROB) — plus the frontend
  refill;
* an I-cache miss costs its fill latency;
* a long D-cache miss costs the memory latency, with overlap-merging of
  independent misses within one window (and serialization of dependent
  ones).

Compared with :class:`~repro.interval.model.IntervalModel` (which uses
the fitted power law K(w)), interval simulation evaluates each branch's
*actual* slice, trading a little speed for per-event fidelity. It reads
the same packed columns as the model (the event rule, the dependence
CSR) and is several times faster than the SoA detailed core
(:func:`~repro.pipeline.core.simulate`) at a few percent CPI error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis import sanitizer as _sanitizer
from repro.interval.ilp import depends_on, load_latencies
from repro.interval.model import IntervalModel
from repro.obs import runtime as _obs
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.perf.packed import PackedTrace


@dataclass
class FastEstimate:
    """Result of one interval-simulation pass."""

    instructions: int
    base_cycles: float
    mispredict_cycles: float
    icache_cycles: float
    long_dmiss_cycles: float
    mispredict_count: int
    icache_count: int
    long_dmiss_count: int
    resolutions: List[int] = field(default_factory=list, repr=False)
    wall_seconds: float = 0.0

    @property
    def cycles(self) -> float:
        return (
            self.base_cycles
            + self.mispredict_cycles
            + self.icache_cycles
            + self.long_dmiss_cycles
        )

    @property
    def cpi(self) -> float:
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def mean_penalty(self) -> float:
        if not self.mispredict_count:
            return 0.0
        return self.mispredict_cycles / self.mispredict_count

    def error_vs(self, result: SimulationResult) -> float:
        """Relative cycle error against a detailed simulation."""
        if not result.cycles:
            return 0.0
        return (self.cycles - result.cycles) / result.cycles


def _window_depth(
    packed: PackedTrace, latency: List[int], window_start: int, branch_seq: int
) -> int:
    """Critical-path length of the chain ending at ``branch_seq`` within
    ``[window_start, branch_seq]``.

    Equal to :func:`~repro.interval.ilp.backward_slice_latency` over the
    same window: finishing every instruction of the window in program
    order, dependences before the window satisfied, gives each one the
    depth of its own slice. The estimate's windows are whole gaps
    between events, so one forward walk beats collecting the slice.
    """
    offsets, distances = packed.window_deps(window_start, branch_seq + 1)
    finish: List[int] = []
    append = finish.append
    lo = 0
    for at, hi in enumerate(offsets[1:]):
        begin = 0
        for dist in distances[lo:hi]:
            if dist <= at:
                done = finish[at - dist]
                if done > begin:
                    begin = done
        append(begin + latency[window_start + at])
        lo = hi
    return finish[-1]


class FastIntervalSimulator:
    """One-pass interval simulation over an annotated trace."""

    def __init__(self, config: CoreConfig = CoreConfig()):
        self.config = config

    def estimate(self, trace: Trace) -> FastEstimate:
        """Run the one-pass estimate; returns cycles and components."""
        watch = Stopwatch()
        config = self.config
        n = len(trace)
        packed = trace.pack()
        latency = load_latencies(
            trace, config.fu_specs, config.l1_latency, config.l2_latency
        ).column.tolist()
        # Events in dynamic order; a mispredict shadows events on the
        # same record, mirroring the segmentation priority.
        events = IntervalModel.event_positions(trace)

        base_cycles = n / config.dispatch_width
        mispredict_cycles = 0.0
        icache_cycles = 0.0
        long_cycles = 0.0
        mispredict_count = 0
        icache_count = 0
        resolutions: List[int] = []
        last_event = -1
        previous_long: Optional[int] = None
        long_count = 0

        for seq, kind in events:
            if kind == "bpred":
                gap = seq - last_event - 1
                occupancy = min(gap, config.rob_size)
                window_start = max(0, seq - occupancy)
                resolution = _window_depth(packed, latency, window_start, seq)
                resolutions.append(resolution)
                mispredict_cycles += resolution + config.frontend_depth
                mispredict_count += 1
            elif kind == "icache":
                icache_cycles += config.l2_latency
                icache_count += 1
            else:
                long_count += 1
                independent = (
                    previous_long is None
                    or seq - previous_long > config.rob_size
                    or depends_on(trace, seq, previous_long)
                )
                if independent:
                    long_cycles += config.memory_latency
                previous_long = seq
            last_event = seq

        estimate = FastEstimate(
            instructions=n,
            base_cycles=base_cycles,
            mispredict_cycles=mispredict_cycles,
            icache_cycles=icache_cycles,
            long_dmiss_cycles=long_cycles,
            mispredict_count=mispredict_count,
            icache_count=icache_count,
            long_dmiss_count=long_count,
            resolutions=resolutions,
            wall_seconds=watch.elapsed,
        )
        metrics = _obs.current_metrics()
        if metrics is not None:
            metrics.counter("fast_sim.estimates_total").inc()
            metrics.counter("fast_sim.mispredicts_total").inc(mispredict_count)
            metrics.counter("fast_sim.instructions_total").inc(n)
        san = _sanitizer.current()
        if san is not None:
            san.check_fast_estimate(estimate, config.frontend_depth)
        return estimate


#: Timed rounds of each simulator in :func:`compare_with_detailed`.
_TIMING_ROUNDS = 3


def compare_with_detailed(
    trace: Trace, config: CoreConfig = CoreConfig()
) -> Dict[str, float]:
    """Run both simulators on the same trace; return the comparison.

    Keys: ``detailed_cycles``, ``fast_cycles``, ``cpi_error``,
    ``speedup``, ``detailed_penalty``, ``fast_penalty``,
    ``detailed_seconds``, ``fast_seconds``. The two simulators run in
    ``_TIMING_ROUNDS`` interleaved pairs, and each side is timed by
    its best round, so one slow run on a noisy host does not move the
    speedup. Every round is a full run (observed like any other); the
    results are deterministic, so the last round's are reported.
    """
    from repro.interval.penalty import measure_penalties
    from repro.pipeline.core import simulate

    detailed_seconds = fast_seconds = float("inf")
    for _ in range(_TIMING_ROUNDS):
        # The speedup is quoted against the detailed core the figures run.
        watch = Stopwatch()
        detailed = simulate(trace, config)
        detailed_seconds = min(detailed_seconds, watch.elapsed)
        fast = FastIntervalSimulator(config).estimate(trace)
        fast_seconds = min(fast_seconds, fast.wall_seconds)
    report = measure_penalties(detailed)
    return {
        "detailed_cycles": float(detailed.cycles),
        "fast_cycles": fast.cycles,
        "cpi_error": fast.error_vs(detailed),
        "speedup": (
            detailed_seconds / fast_seconds if fast_seconds > 0 else float("inf")
        ),
        "detailed_penalty": report.mean_penalty,
        "fast_penalty": fast.mean_penalty,
        "detailed_seconds": detailed_seconds,
        "fast_seconds": fast_seconds,
    }
