"""First-order interval CPI model.

Predicts total execution time from *trace statistics alone* (no timing
simulation), in the style the paper's interval analysis enables:

``cycles = N/D  +  sum over miss events of their penalties``

* each branch misprediction costs ``K(n) + frontend_depth`` where
  ``K`` is the window-drain profile fitted with *steady-state*
  latencies (FU + L1 + short misses; long misses are events of their
  own and must not leak into the drain profile) and ``n`` the expected
  window occupancy when the branch dispatches (bounded by the gap to
  the previous miss event and by the ROB size — contributor C2);
* each I-cache miss costs its fill latency;
* long D-cache misses cost the memory latency, with overlapping
  (clustered) misses within one window sharing a single latency — the
  classic first-order memory-level-parallelism correction — *unless*
  the later miss depends on the earlier one (pointer chasing), in
  which case the latencies serialize.

Comparing the prediction against the simulator validates the model
(experiment T3) exactly as the paper validates interval analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.interval.ilp import (
    ILPFit,
    LatencyColumn,
    depends_on,
    fit_ilp_profile,
    load_latencies,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace


@dataclass(frozen=True)
class ModelPrediction:
    """Predicted cycle budget and its components."""

    instructions: int
    base_cycles: float
    mispredict_cycles: float
    icache_cycles: float
    long_dmiss_cycles: float
    mispredict_count: int
    icache_count: int
    long_dmiss_count: int
    mean_penalty: float

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


class IntervalModel:
    """First-order model over an annotated trace."""

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
        A single instruction can carry several events; bpred wins for
        interval-cutting purposes (mirrors the segmentation rule).
        """
        import numpy as np

        from repro.perf.packed import miss_event_masks

        bpred, icache, long, _ = miss_event_masks(trace.pack())
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

    def _fit(self, trace: Trace) -> ILPFit:
        if self.ilp_fit is None:
            self.ilp_fit = fit_ilp_profile(
                trace, latency_of=self._steady_latency(trace)
            )
        return self.ilp_fit

    def predict(self, trace: Trace) -> ModelPrediction:
        """Predict total cycles for an annotated trace."""
        config = self.config
        n = len(trace)
        fit = self._fit(trace)
        positions = self.event_positions(trace)

        base_cycles = n / config.dispatch_width

        mispredict_cycles = 0.0
        icache_cycles = 0.0
        mispredict_count = 0
        icache_count = 0
        last_event_seq = -1
        long_positions: List[int] = []
        for seq, kind in positions:
            gap = seq - last_event_seq - 1
            if kind == "bpred":
                occupancy = min(gap, config.rob_size)
                resolution = fit.predict_drain(occupancy)
                mispredict_cycles += resolution + config.frontend_depth
                mispredict_count += 1
            elif kind == "icache":
                icache_cycles += config.l2_latency
                icache_count += 1
            else:
                long_positions.append(seq)
            last_event_seq = seq

        # Long D-miss MLP correction: misses within one ROB-reach of the
        # previous long miss overlap and share a single memory latency —
        # unless the later load depends on the earlier one, in which
        # case the accesses serialize (pointer chasing).
        long_dmiss_cycles = 0.0
        long_count = len(long_positions)
        previous = None
        for seq in long_positions:
            independent = previous is None or seq - previous > config.rob_size
            if not independent and depends_on(trace, seq, previous):
                independent = True
            if independent:
                long_dmiss_cycles += config.memory_latency
            previous = seq

        mean_penalty = (
            mispredict_cycles / mispredict_count if mispredict_count else 0.0
        )
        return ModelPrediction(
            instructions=n,
            base_cycles=base_cycles,
            mispredict_cycles=mispredict_cycles,
            icache_cycles=icache_cycles,
            long_dmiss_cycles=long_dmiss_cycles,
            mispredict_count=mispredict_count,
            icache_count=icache_count,
            long_dmiss_count=long_count,
            mean_penalty=mean_penalty,
        )

    def predict_mean_penalty(self, trace: Trace) -> float:
        """Predicted average misprediction penalty for the trace."""
        return self.predict(trace).mean_penalty
