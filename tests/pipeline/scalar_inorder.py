"""Scalar reference for the column in-order core.

:class:`repro.pipeline.inorder.InOrderCore` runs its scoreboard
recurrence as one integer loop over the trace's columns; this module
keeps the per-record implementation it replaced, which asks an
:class:`~tests.pipeline.record_annotate.Annotator` once per record and
reserves units through :class:`~tests.pipeline.functional_units.
FunctionalUnits` heaps. Differential tests require the two to produce
equal :class:`~repro.pipeline.result.SimulationResult` objects, events
and timelines included.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis import sanitizer as _sanitizer
from repro.memory.hierarchy import MissClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
)
from repro.pipeline.result import SimulationResult, cycle_column
from repro.trace.stream import Trace

from tests.pipeline.functional_units import FunctionalUnits
from tests.pipeline.record_annotate import Annotator, OracleAnnotator
from tests.trace.records import records_of


class ScalarInOrderCore:
    """The record-walking in-order core the column loop replaced."""

    def __init__(self, config: CoreConfig = CoreConfig()):
        self.config = config

    def run(
        self, trace: Trace, annotator: Optional[Annotator] = None
    ) -> SimulationResult:
        """Simulate the trace; returns the same result type as the
        out-of-order core (ROB fields read as the in-flight count)."""
        config = self.config
        records = records_of(trace)
        n = len(records)
        if annotator is None:
            annotator = OracleAnnotator(config)
        if n == 0:
            return SimulationResult(instructions=0, cycles=0)

        san = _sanitizer.current()
        if san is not None:
            san.begin_run()
        fus = FunctionalUnits(config.fu_specs)
        comp: List[int] = [0] * n
        retire: List[int] = [0] * n  # in-order retirement times
        record_timeline = config.record_timeline
        dispatch_cycle = [0] * n
        issue_cycle = [0] * n if record_timeline else None
        commit_cycle = [0] * n if record_timeline else None

        events = []
        frontend_ready = config.frontend_depth
        issue_time = frontend_ready  # earliest issue for the next instr
        issued_this_cycle = 0
        last_commit = 0

        for seq, record in enumerate(records):
            annotation = annotator.annotate(record)

            # Frontend: I-cache misses stall delivery.
            if annotation.icache_latency is not None:
                stall_from = max(issue_time, frontend_ready)
                frontend_ready = stall_from + annotation.icache_latency
                events.append(
                    ICacheMissEvent(
                        seq=seq,
                        cycle=stall_from,
                        latency=annotation.icache_latency,
                        long_miss=annotation.icache_long,
                    )
                )

            earliest = max(issue_time, frontend_ready)
            dispatch_cycle[seq] = earliest

            # Operand readiness (full bypass: ready at producer completion).
            ready = earliest
            # Scoreboard capacity: at most rob_size in flight, so the
            # oldest-but-rob_size instruction must have retired.
            if seq >= config.rob_size:
                ready = max(ready, retire[seq - config.rob_size])
            for dist in record.deps:
                producer = seq - dist
                if producer >= 0:
                    ready = max(ready, comp[producer])

            # Structural: a unit of the class must be free.
            start = ready
            while not fus.can_issue(record.op_class, start):
                start += 1
            done = fus.issue(record.op_class, start)
            if record.is_load and annotation.dcache_class is not None:
                done += annotation.dcache_latency
            comp[seq] = done
            retire[seq] = done if seq == 0 else max(retire[seq - 1], done)
            if san is not None:
                # Retirement is the in-order commit point; the window of
                # issued-but-unretired instructions is bounded by rob_size.
                san.check_commit(retire[seq], seq=seq)
                san.check_stages(
                    seq, dispatch_cycle[seq], start, done, retire[seq]
                )

            # In-order issue bandwidth: width per cycle, no younger
            # instruction issues earlier.
            if start != issue_time:
                issue_time = start
                issued_this_cycle = 0
            issued_this_cycle += 1
            if issued_this_cycle >= config.issue_width:
                issue_time = start + 1
                issued_this_cycle = 0

            if record_timeline:
                issue_cycle[seq] = start
                commit_cycle[seq] = done
            last_commit = max(last_commit, done)

            # Miss events.
            if record.is_load and annotation.dcache_class is MissClass.LONG:
                events.append(
                    LongDMissEvent(
                        seq=seq, cycle=dispatch_cycle[seq], complete_cycle=done
                    )
                )
            if record.is_control and annotation.mispredicted:
                events.append(
                    BranchMispredictEvent(
                        seq=seq,
                        cycle=dispatch_cycle[seq],
                        resolve_cycle=done,
                        refill_cycles=config.frontend_depth,
                        window_occupancy=0,
                    )
                )
                frontend_ready = done + config.frontend_depth

        result = SimulationResult(
            instructions=n,
            cycles=last_commit + 1,
            events=events,
            dispatch_cycle=cycle_column(dispatch_cycle),
            issue_cycle=cycle_column(issue_cycle),
            complete_cycle=cycle_column(comp) if record_timeline else None,
            commit_cycle=cycle_column(commit_cycle),
            fu_issue_counts=fus.issue_counts(),
            rob_peak_occupancy=0,
        )
        if san is not None:
            san.seal_run(result, config)
        return result
