"""A scoreboarded in-order core, for contrast with the OoO machine.

The paper's large misprediction penalties are a consequence of the
out-of-order window: the branch waits behind a drain of up to ROB-many
instructions. On an in-order machine the branch issues as soon as its
operands are ready and everything older has issued, so the resolution
time collapses to roughly its operands' latency — and the folk-wisdom
approximation ``penalty ≈ frontend depth`` becomes almost true.
Experiment F20 quantifies that contrast.

The model: instructions issue strictly in program order, up to
``issue_width`` per cycle, when (a) their producers have completed
(full bypass), (b) a functional unit is free, (c) the frontend has
delivered them, and (d) a scoreboard entry is free — at most
``rob_size`` instructions may be in flight (issued but not yet retired
in order), so outstanding long misses buffer exactly as much work as
the out-of-order machine's window, not infinitely. Miss events are
logged with the same types as the OoO core, so the entire
interval-analysis layer works unchanged.

The core reads what the SoA kernel (:mod:`repro.perf.batchcore`)
reads: the trace's :class:`~repro.perf.batchcore.TraceColumns` (op
codes and the producer CSR, built from the trace's columns), one
:class:`~repro.pipeline.annotate.MissColumns` set (the trace's oracle
flags priced at the config's latencies, or a structural annotator's
one program-order pass,
:meth:`~repro.pipeline.annotate.StructuralAnnotator.miss_columns`)
and per-op-code FU tables. Because issue is in order, the recurrence
is one integer loop over those lists. Without an annotator no record,
annotation or unit heap is built, so a generated trace keeps only its
columns.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.analysis import sanitizer as _sanitizer
from repro.pipeline.annotate import MissColumns, StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import SimulationResult, cycle_column, observe_run
from repro.trace.stream import Trace


class InOrderCore:
    """Width-``issue_width`` in-order pipeline with full bypassing."""

    def __init__(self, config: CoreConfig = CoreConfig()):
        self.config = config

    def run(
        self, trace: Trace, annotator: Optional[StructuralAnnotator] = None
    ) -> SimulationResult:
        """Simulate the trace; returns the same result type as the
        out-of-order core (ROB fields read as the in-flight count).

        With an ``annotator``, the whole trace is annotated first, in
        program order (:meth:`StructuralAnnotator.miss_columns`), the
        order this core issues in.
        """
        config = self.config
        n = len(trace)
        if n == 0:
            return SimulationResult(instructions=0, cycles=0)
        # repro.perf sits above the pipeline layer, so the column types
        # are imported at run time (as simulate imports the kernel).
        from repro.perf.batchcore import (
            TraceColumns,
            _combined_latency,
            _FUTables,
        )
        from repro.trace.columns import OP_CODE

        cols = TraceColumns.from_trace(trace)
        if annotator is None:
            miss = MissColumns.oracle(cols, config)
        else:
            miss = annotator.miss_columns(trace)
        fu = _FUTables(config)
        lat_total = _combined_latency(cols, miss, fu)

        san = _sanitizer.current()
        if san is not None:
            san.begin_run()
        op = cols.op
        indptr = cols.prod_indptr
        producers = cols.prod_data
        misp = miss.misp
        is_long = miss.is_long
        icache_lat = miss.icache_lat
        icache_long = miss.icache_long
        fu_interval = fu.interval
        issue_width = config.issue_width
        rob_size = config.rob_size
        frontend_depth = config.frontend_depth

        # Each unit is the cycle it next accepts an op. Issue times never
        # decrease, so a unit free now stays free and any free one may
        # take the op. Classes that can never bind are skipped
        # (_FUTables.binding): at most issue_width ops issue per cycle.
        fu_free = [[0] * count for count in fu.count]
        fu_scan = [range(count) for count in fu.count]
        op_bind = list(map(fu.binding(issue_width).__getitem__, op))

        comp: List[int] = [0] * n
        dispatch_cycle: List[int] = [0] * n
        issue_cycle: List[int] = [0] * n
        # retired[seq + rob_size] is seq's in-order retirement time, so
        # retired[seq] is that of the instruction rob_size older (0
        # before the trace start).
        retired: List[int] = [0] * (rob_size + n)
        events: List[MissEvent] = []
        frontend_ready = frontend_depth
        issue_time = frontend_ready  # earliest issue for the next instr
        issued_this_cycle = 0
        retire = 0
        hi = 0

        for seq in range(n):
            # Frontend: I-cache misses stall delivery.
            stall = icache_lat[seq]
            if stall:
                stall_from = (
                    issue_time if issue_time > frontend_ready else frontend_ready
                )
                frontend_ready = stall_from + stall
                events.append(
                    ICacheMissEvent(
                        seq=seq,
                        cycle=stall_from,
                        latency=stall,
                        long_miss=bool(icache_long[seq]),
                    )
                )
            start = issue_time if issue_time > frontend_ready else frontend_ready
            dispatch_cycle[seq] = start

            # Scoreboard capacity: at most rob_size in flight, so the
            # instruction rob_size older must have retired.
            ready = retired[seq]
            if ready > start:
                start = ready
            # Operand readiness (full bypass: ready at producer completion).
            lo = hi
            hi = indptr[seq + 1]
            for producer in producers[lo:hi]:
                ready = comp[producer]
                if ready > start:
                    start = ready

            # Structural: a unit of the class must be free.
            if op_bind[seq]:
                code = op[seq]
                free = fu_free[code]
                for unit in fu_scan[code]:
                    if free[unit] <= start:
                        break
                else:
                    start = min(free)
                    unit = free.index(start)
                free[unit] = start + fu_interval[code]
            done = start + lat_total[seq]
            comp[seq] = done
            if done > retire:
                retire = done
            retired[seq + rob_size] = retire
            if san is not None:
                # Retirement is the in-order commit point; the window of
                # issued-but-unretired instructions is bounded by rob_size.
                san.check_commit(retire, seq=seq)
                san.check_stages(
                    seq, dispatch_cycle[seq], start, done, retire
                )

            # In-order issue bandwidth: width per cycle, no younger
            # instruction issues earlier.
            if start != issue_time:
                issue_time = start
                issued_this_cycle = 0
            issued_this_cycle += 1
            if issued_this_cycle >= issue_width:
                issue_time = start + 1
                issued_this_cycle = 0
            issue_cycle[seq] = start

            # Miss events.
            if is_long[seq]:
                events.append(
                    LongDMissEvent(
                        seq=seq, cycle=dispatch_cycle[seq], complete_cycle=done
                    )
                )
            if misp[seq]:
                events.append(
                    BranchMispredictEvent(
                        seq=seq,
                        cycle=dispatch_cycle[seq],
                        resolve_cycle=done,
                        refill_cycles=frontend_depth,
                        window_occupancy=0,
                    )
                )
                frontend_ready = done + frontend_depth

        # Every instruction issues exactly once, on a unit of its class.
        issued = Counter(op)
        timeline = config.record_timeline
        result = SimulationResult(
            instructions=n,
            cycles=retire + 1,
            events=events,
            dispatch_cycle=cycle_column(dispatch_cycle),
            issue_cycle=cycle_column(issue_cycle) if timeline else None,
            complete_cycle=cycle_column(comp) if timeline else None,
            # Completion times: in-order retirement is not kept per seq.
            commit_cycle=cycle_column(comp) if timeline else None,
            fu_issue_counts={
                op_class.value: issued[OP_CODE[op_class]]
                for op_class in config.fu_specs
            },
            rob_peak_occupancy=0,
        )
        if san is not None:
            san.seal_run(result, config)
        return result


def simulate_inorder(
    trace: Trace,
    config: CoreConfig = CoreConfig(),
    annotator: Optional[StructuralAnnotator] = None,
) -> SimulationResult:
    """Run ``trace`` on a fresh in-order core and report the run to the
    ambient tracer and metrics (:func:`observe_run`)."""
    result = InOrderCore(config).run(trace, annotator=annotator)
    observe_run(result, out_of_order=False)
    return result
