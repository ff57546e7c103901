"""Interval analysis as an estimator: one event walk, two drain rules.

Predicts total execution time by walking the trace's miss events once,
in the style the paper's interval analysis enables:

``cycles = N/D  +  sum over miss events of their penalties``

* between events, instructions cost ``1 / dispatch_width`` cycles;
* each branch misprediction costs its window drain plus the frontend
  refill. The window holds the instructions since the previous miss
  event, bounded by the ROB size (contributor C2), under *steady-state*
  latencies (FU + L1 + short misses; long misses are events of their
  own and must not leak into the drain);
* each I-cache miss costs its fill latency;
* long D-cache misses cost the memory latency, with overlapping
  (clustered) misses within one window sharing a single latency — the
  classic first-order memory-level-parallelism correction — *unless*
  the later miss depends on the earlier one (pointer chasing), in
  which case the latencies serialize.

The two public methods differ only in the drain:

* :meth:`IntervalModel.predict` (the first-order model, experiment T3)
  charges the fitted power law ``K(occupancy)``;
* :meth:`IntervalModel.estimate` (interval simulation, the Sniper
  lineage, experiment F16) charges each branch's *measured backward
  slice*: the critical path of the dependence chain feeding it within
  its window. It is several times faster than the SoA detailed core
  (:func:`~repro.pipeline.core.simulate`) at a few percent CPI error;
  :func:`compare_with_detailed` times the two.

Comparing either against the simulator validates interval analysis
exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.interval.ilp import (
    ILPFit,
    LatencyColumn,
    depends_on,
    fit_ilp_profile,
    load_latencies,
)
from repro.obs import runtime as _obs
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace
from repro.util.timing import Stopwatch


@dataclass(frozen=True)
class ModelPrediction:
    """Predicted cycle budget, its components, and the resolution the
    drain rule charged each misprediction, in dynamic order."""

    instructions: int
    base_cycles: float
    mispredict_cycles: float
    icache_cycles: float
    long_dmiss_cycles: float
    mispredict_count: int
    icache_count: int
    long_dmiss_count: int
    resolutions: Tuple[float, ...] = field(repr=False)

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
        """Relative CPI error against a simulation of the same trace."""
        if not result.cycles:
            return 0.0
        return (self.cycles - result.cycles) / result.cycles

    def components(self) -> Dict[str, float]:
        return {
            "base": self.base_cycles,
            "bpred": self.mispredict_cycles,
            "icache": self.icache_cycles,
            "long_dcache": self.long_dmiss_cycles,
        }


def _window_depth(
    trace: Trace, latency: List[int], window_start: int, branch_seq: int
) -> int:
    """Critical-path length of the chain ending at ``branch_seq`` within
    ``[window_start, branch_seq]``.

    Equal to :func:`~repro.interval.ilp.backward_slice_latency` over the
    same window: finishing every instruction of the window in program
    order, dependences before the window satisfied, gives each one the
    depth of its own slice. The estimate's windows are whole gaps
    between events, so one forward walk beats collecting the slice.
    """
    offsets, distances = trace.window_deps(window_start, branch_seq + 1)
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


class IntervalModel:
    """Interval estimator over an annotated trace.

    ``ilp_fit``, when given, is the drain profile :meth:`predict` uses
    for every trace; otherwise each :meth:`predict` fits the trace it
    is given. :meth:`estimate` needs no fit.
    """

    def __init__(
        self,
        config: CoreConfig = CoreConfig(),
        ilp_fit: Optional[ILPFit] = None,
    ):
        self.config = config
        self.ilp_fit = ilp_fit

    # -- event extraction (trace-level, no simulation) -------------------

    @staticmethod
    def event_positions(trace: Trace) -> List[Tuple[int, str]]:
        """Miss-event positions visible in an annotated trace.

        Returns (seq, kind) with kind in {"bpred", "icache", "long"}.
        A single instruction can carry several events and keeps one:
        bpred, then icache, then long. This does not mirror
        :func:`repro.interval.segmentation.segment_intervals`, which
        ranks a long D-miss above an I-cache miss, so a record with
        both drops its long miss here.
        """
        import numpy as np

        from repro.trace.columns import miss_event_masks

        bpred, icache, long, _ = miss_event_masks(trace)
        seqs = np.flatnonzero(bpred | icache | long)
        kinds = np.where(bpred[seqs], 0, np.where(icache[seqs], 1, 2))
        names = ("bpred", "icache", "long")
        return list(zip(seqs.tolist(), map(names.__getitem__, kinds.tolist())))

    def _steady_latency(self, trace: Trace) -> LatencyColumn:
        """Inter-miss steady-state latencies: FU + L1 + short misses.

        Long misses are miss *events*, charged separately; including
        their memory latency in the drain profile would double-count
        them and wreck the base rate for memory-bound workloads.
        """
        config = self.config
        return load_latencies(
            trace, config.fu_specs, config.l1_latency, config.l2_latency
        )

    def fit(self, trace: Trace) -> ILPFit:
        """The drain profile :meth:`predict` uses for ``trace``: the fit
        given to the constructor, else one fitted to ``trace``."""
        if self.ilp_fit is not None:
            return self.ilp_fit
        return fit_ilp_profile(trace, latency_of=self._steady_latency(trace))

    def _walk(
        self, trace: Trace, drain: Callable[[int, int], float]
    ) -> ModelPrediction:
        """The one event walk behind :meth:`predict` and :meth:`estimate`.

        ``drain(seq, occupancy)`` is the resolution of the misprediction
        at ``seq`` whose window holds the ``occupancy`` instructions
        before it.
        """
        config = self.config
        n = len(trace)
        mispredict_cycles = 0.0
        icache_cycles = 0.0
        long_dmiss_cycles = 0.0
        icache_count = 0
        long_count = 0
        resolutions: List[float] = []
        last_event = -1
        previous_long: Optional[int] = None
        for seq, kind in self.event_positions(trace):
            if kind == "bpred":
                occupancy = min(seq - last_event - 1, config.rob_size)
                resolution = drain(seq, occupancy)
                resolutions.append(resolution)
                mispredict_cycles += resolution + config.frontend_depth
            elif kind == "icache":
                icache_cycles += config.l2_latency
                icache_count += 1
            else:
                # Long D-miss MLP correction: a miss within one ROB-reach
                # of the previous long miss overlaps it and shares its
                # latency, unless it depends on it (pointer chasing).
                long_count += 1
                if (
                    previous_long is None
                    or seq - previous_long > config.rob_size
                    or depends_on(trace, seq, previous_long)
                ):
                    long_dmiss_cycles += config.memory_latency
                previous_long = seq
            last_event = seq
        return ModelPrediction(
            instructions=n,
            base_cycles=n / config.dispatch_width,
            mispredict_cycles=mispredict_cycles,
            icache_cycles=icache_cycles,
            long_dmiss_cycles=long_dmiss_cycles,
            mispredict_count=len(resolutions),
            icache_count=icache_count,
            long_dmiss_count=long_count,
            resolutions=tuple(resolutions),
        )

    def predict(self, trace: Trace) -> ModelPrediction:
        """The first-order model: each misprediction drains by the
        fitted profile, ``K(occupancy)``."""
        predict_drain = self.fit(trace).predict_drain
        return self._walk(trace, lambda seq, occupancy: predict_drain(occupancy))

    def estimate(self, trace: Trace) -> ModelPrediction:
        """Interval simulation: each misprediction drains by its measured
        backward slice over its window."""
        latency = self._steady_latency(trace).column.tolist()
        estimate = self._walk(
            trace,
            lambda seq, occupancy: _window_depth(
                trace, latency, seq - occupancy, seq
            ),
        )
        metrics = _obs.current_metrics()
        if metrics is not None:
            metrics.counter("fast_sim.estimates_total").inc()
            metrics.counter("fast_sim.mispredicts_total").inc(
                estimate.mispredict_count
            )
            metrics.counter("fast_sim.instructions_total").inc(len(trace))
        san = _sanitizer.current()
        if san is not None:
            san.check_fast_estimate(estimate, self.config.frontend_depth)
        return estimate


#: Timed rounds of each simulator in :func:`compare_with_detailed`.
_TIMING_ROUNDS = 3


def compare_with_detailed(
    trace: Trace, config: CoreConfig = CoreConfig()
) -> Dict[str, float]:
    """Run the detailed core and :meth:`IntervalModel.estimate` on the
    same trace; return the comparison.

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

    model = IntervalModel(config)
    detailed_seconds = fast_seconds = float("inf")
    for _ in range(_TIMING_ROUNDS):
        # The speedup is quoted against the detailed core the figures run.
        watch = Stopwatch()
        detailed = simulate(trace, config)
        detailed_seconds = min(detailed_seconds, watch.elapsed)
        watch = Stopwatch()
        fast = model.estimate(trace)
        fast_seconds = min(fast_seconds, watch.elapsed)
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
