"""Record-walk reference for the columnar interval-model inputs.

``IntervalModel.predict``, the latency columns of the contributor
decomposition and ``backward_slice_latency`` read the trace's columns
and dependence CSR; this module keeps the per-record walks they
replaced. Differential tests require the two to agree exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.interval.ilp import LatencyFn, fit_ilp_profile
from repro.interval.model import ModelPrediction
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.trace.stream import Trace
from tests.trace.records import records_of


def scalar_unit_latency(trace: Trace) -> LatencyFn:
    return lambda seq: 1


def scalar_fu_latency(trace: Trace, fu_specs, config=None) -> LatencyFn:
    records = records_of(trace)
    l1_latency = config.l1_latency if config is not None else 0

    def latency(seq: int) -> int:
        record = records[seq]
        base = fu_specs[record.op_class].latency
        if record.op_class is OpClass.LOAD:
            base += l1_latency
        return base

    return latency


def scalar_full_latency(trace: Trace, fu_specs, config) -> LatencyFn:
    records = records_of(trace)

    def latency(seq: int) -> int:
        record = records[seq]
        base = fu_specs[record.op_class].latency
        if record.op_class is OpClass.LOAD:
            if record.dl2_miss:
                base += config.memory_latency
            elif record.dl1_miss:
                base += config.l2_latency
            else:
                base += config.l1_latency
        return base

    return latency


def scalar_steady_latency(trace: Trace, config: CoreConfig) -> LatencyFn:
    records = records_of(trace)

    def latency(seq: int) -> int:
        record = records[seq]
        base = config.fu_specs[record.op_class].latency
        if record.op_class is OpClass.LOAD:
            base += config.l2_latency if record.dl1_miss else config.l1_latency
        return base

    return latency


def scalar_backward_slice_latency(
    trace: Trace,
    branch_seq: int,
    window_start: int,
    latency_of: LatencyFn,
    satisfied: Optional[Callable[[int], bool]] = None,
) -> int:
    records = records_of(trace)

    def in_window(seq: int) -> bool:
        if seq < window_start:
            return False
        return satisfied is None or not satisfied(seq)

    in_slice = {branch_seq}
    stack = [branch_seq]
    while stack:
        seq = stack.pop()
        for dist in records[seq].deps:
            producer = seq - dist
            if producer >= 0 and in_window(producer) and producer not in in_slice:
                in_slice.add(producer)
                stack.append(producer)
    finish = {}
    for seq in sorted(in_slice):
        begin = 0
        for dist in records[seq].deps:
            producer = seq - dist
            if producer in finish:
                begin = max(begin, finish[producer])
        finish[seq] = begin + latency_of(seq)
    return finish[branch_seq]


def scalar_event_positions(trace: Trace) -> List[Tuple[int, str]]:
    positions: List[Tuple[int, str]] = []
    for seq, record in enumerate(records_of(trace)):
        if record.is_branch and record.mispredict:
            positions.append((seq, "bpred"))
        elif record.il1_miss:
            positions.append((seq, "icache"))
        elif record.is_load and record.dl2_miss:
            positions.append((seq, "long"))
    return positions


def scalar_depends_on(trace: Trace, consumer: int, producer: int) -> bool:
    records = records_of(trace)
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


def scalar_predict(trace: Trace, config: CoreConfig) -> ModelPrediction:
    """``IntervalModel(config).predict(trace)`` over the records. The
    ILP fit reads the record-walk latencies through the fit's callable
    path (the fit itself has its own oracle in ``scalar_ilp``)."""
    n = len(records_of(trace))
    fit = fit_ilp_profile(
        trace, latency_of=scalar_steady_latency(trace, config)
    )
    base_cycles = n / config.dispatch_width
    mispredict_cycles = 0.0
    icache_cycles = 0.0
    mispredict_count = 0
    icache_count = 0
    last_event_seq = -1
    long_positions: List[int] = []
    resolutions: List[float] = []
    for seq, kind in scalar_event_positions(trace):
        gap = seq - last_event_seq - 1
        if kind == "bpred":
            occupancy = min(gap, config.rob_size)
            resolution = fit.predict_drain(occupancy)
            resolutions.append(resolution)
            mispredict_cycles += resolution + config.frontend_depth
            mispredict_count += 1
        elif kind == "icache":
            icache_cycles += config.l2_latency
            icache_count += 1
        else:
            long_positions.append(seq)
        last_event_seq = seq
    long_dmiss_cycles = 0.0
    previous = None
    for seq in long_positions:
        independent = previous is None or seq - previous > config.rob_size
        if not independent and scalar_depends_on(trace, seq, previous):
            independent = True
        if independent:
            long_dmiss_cycles += config.memory_latency
        previous = seq
    return ModelPrediction(
        instructions=n,
        base_cycles=base_cycles,
        mispredict_cycles=mispredict_cycles,
        icache_cycles=icache_cycles,
        long_dmiss_cycles=long_dmiss_cycles,
        mispredict_count=mispredict_count,
        icache_count=icache_count,
        long_dmiss_count=len(long_positions),
        resolutions=tuple(resolutions),
    )
