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
*actual* slice, trading a little speed for per-event fidelity — it is
typically 10-50x faster than the cycle-level core at a few percent CPI
error.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.interval.ilp import backward_slice_latency, load_latencies
from repro.obs import runtime as _obs
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace
from repro.util.timing import Stopwatch


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

    def speedup_vs(self, detailed_seconds: float) -> float:
        """Wall-clock speedup over a detailed simulation's runtime."""
        if self.wall_seconds <= 0:
            return float("inf")
        return detailed_seconds / self.wall_seconds


class FastIntervalSimulator:
    """One-pass interval simulation over an annotated trace."""

    def __init__(self, config: CoreConfig = CoreConfig()):
        self.config = config
        # trace -> (trace.version, {consumer seq -> upstream reach set}).
        # Weak keys so discarded traces don't pin their reach sets.
        self._reach_cache: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    @staticmethod
    def _event_stream(trace: Trace) -> List[Tuple[int, str]]:
        """(seq, kind) pairs in dynamic order; bpred shadows co-located
        events, mirroring the segmentation priority."""
        events = []
        # F16 measures this one-pass walk over the record objects
        # against the detailed core, so it stays a record walk.
        for seq, record in enumerate(trace.records):  # repro: noqa[PERF001]
            if record.is_branch and record.mispredict:
                events.append((seq, "bpred"))
            elif record.il1_miss:
                events.append((seq, "icache"))
            elif record.is_load and record.dl2_miss:
                events.append((seq, "long"))
        return events

    def _depends_on(self, trace: Trace, consumer: int, producer: int) -> bool:
        """True when ``consumer`` transitively depends on ``producer``.

        Dependence paths walk strictly upstream, so ``consumer`` reaches
        ``producer`` iff ``producer`` is in the set of sequence numbers
        reachable from ``consumer`` down to ``consumer - rob_size`` —
        a set that is a property of the trace alone. That set is
        memoized per consumer (weakly keyed by trace, invalidated by
        :attr:`Trace.version`), so sweeps that re-estimate one trace
        under many configurations pay each BFS once.
        """
        floor = consumer - self.config.rob_size
        if producer < floor:
            # Outside the window the overlap logic ever asks about;
            # answer exactly without polluting the bounded cache.
            return self._bfs_depends_on(trace, consumer, producer)
        per_trace = self._reach_cache.get(trace)
        version = getattr(trace, "version", 0)
        if per_trace is None or per_trace[0] != version:
            per_trace = (version, {})
            self._reach_cache[trace] = per_trace
        reach = per_trace[1].get(consumer)
        if reach is None:
            reach = self._reachable_upstream(trace, consumer, floor)
            per_trace[1][consumer] = reach
        return producer in reach

    def _reachable_upstream(
        self, trace: Trace, consumer: int, floor: int
    ) -> Set[int]:
        """All seqs in ``[floor, consumer)`` reachable from ``consumer``."""
        records = trace.records
        frontier = [consumer]
        reach: Set[int] = set()
        while frontier:
            seq = frontier.pop()
            for dist in records[seq].deps:
                upstream = seq - dist
                if upstream >= floor and upstream not in reach:
                    reach.add(upstream)
                    frontier.append(upstream)
        return reach

    @staticmethod
    def _bfs_depends_on(trace: Trace, consumer: int, producer: int) -> bool:
        records = trace.records
        frontier = [consumer]
        seen = set()
        while frontier:
            seq = frontier.pop()
            for dist in records[seq].deps:
                upstream = seq - dist
                if upstream == producer:
                    return True
                if upstream > producer and upstream not in seen:
                    seen.add(upstream)
                    frontier.append(upstream)
        return False

    def estimate(self, trace: Trace) -> FastEstimate:
        """Run the one-pass estimate; returns cycles and components."""
        watch = Stopwatch()
        config = self.config
        n = len(trace.records)
        latency = load_latencies(
            trace, config.fu_specs, config.l1_latency, config.l2_latency
        )
        events = self._event_stream(trace)

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
                resolution = backward_slice_latency(
                    trace, seq, window_start, latency
                )
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
                    or self._depends_on(trace, seq, previous_long)
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
        prof = _obs.current_profiler()
        if prof is not None:
            prof.add("fast_sim.estimate", estimate.wall_seconds)
        metrics = _obs.current_metrics()
        if metrics is not None:
            metrics.counter("fast_sim.estimates_total").inc()
            metrics.counter("fast_sim.mispredicts_total").inc(mispredict_count)
            metrics.counter("fast_sim.instructions_total").inc(n)
        san = _sanitizer.current()
        if san is not None:
            san.check_fast_estimate(estimate, config.frontend_depth)
        return estimate


def compare_with_detailed(
    trace: Trace, config: CoreConfig = CoreConfig()
) -> Dict[str, float]:
    """Run both simulators on the same trace; return the comparison.

    Keys: ``detailed_cycles``, ``fast_cycles``, ``cpi_error``,
    ``speedup``, ``detailed_penalty``, ``fast_penalty``.
    """
    from repro.interval.penalty import measure_penalties
    from repro.pipeline.core import simulate

    watch = Stopwatch()
    detailed = simulate(trace, config)
    detailed_seconds = watch.elapsed

    fast = FastIntervalSimulator(config).estimate(trace)
    report = measure_penalties(detailed)
    return {
        "detailed_cycles": float(detailed.cycles),
        "fast_cycles": fast.cycles,
        "cpi_error": fast.error_vs(detailed),
        "speedup": fast.speedup_vs(detailed_seconds),
        "detailed_penalty": report.mean_penalty,
        "fast_penalty": fast.mean_penalty,
        "detailed_seconds": detailed_seconds,
        "fast_seconds": fast.wall_seconds,
    }
