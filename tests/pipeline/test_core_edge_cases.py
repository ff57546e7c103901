"""Edge-case tests for the out-of-order core."""

import pytest

from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from tests.trace.records import TraceRecord, trace_of


def ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


class TestTraceBoundaries:
    def test_mispredicted_branch_is_last_instruction(self):
        records = [ialu() for _ in range(5)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        result = simulate(trace_of(records), CoreConfig())
        assert result.instructions == 6
        assert len(result.mispredict_events) == 1

    def test_trace_of_only_mispredicts(self):
        records = [
            TraceRecord(OpClass.BRANCH, mispredict=True) for _ in range(20)
        ]
        config = CoreConfig()
        result = simulate(trace_of(records), config)
        assert len(result.mispredict_events) == 20
        # back-to-back: each pays ~resolution(1) + refill
        assert result.cycles >= 20 * config.frontend_depth

    def test_icache_miss_on_first_instruction(self):
        records = [TraceRecord(OpClass.IALU, il1_miss=True), ialu()]
        config = CoreConfig()
        result = simulate(trace_of(records), config)
        assert result.dispatch_cycle[0] >= (
            config.frontend_depth + config.l2_latency
        )

    def test_long_miss_is_last_instruction(self):
        records = [ialu(), TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True)]
        config = CoreConfig()
        result = simulate(trace_of(records), config)
        assert result.cycles >= config.memory_latency

    def test_mispredicted_jump_counts_as_event(self):
        records = [ialu()]
        records.append(
            TraceRecord(OpClass.JUMP, taken=True, target=0x40, mispredict=True)
        )
        records.append(ialu())
        result = simulate(trace_of(records), CoreConfig())
        assert len(result.mispredict_events) == 1


class TestDegenerateMachines:
    def test_single_wide_single_entry_window_is_in_order(self):
        config = CoreConfig(
            dispatch_width=1, issue_width=1, commit_width=1, rob_size=1
        )
        records = [ialu() for _ in range(50)]
        result = simulate(trace_of(records), config)
        # one instruction in flight at a time
        assert result.rob_peak_occupancy == 1
        assert result.ipc < 1.0

    def test_rob_equals_width(self):
        config = CoreConfig(rob_size=4)
        records = [ialu((1,) if i else ()) for i in range(100)]
        result = simulate(trace_of(records), config)
        assert result.rob_peak_occupancy <= 4
        assert result.instructions == 100

    def test_huge_frontend_depth(self):
        config = CoreConfig(frontend_depth=100)
        records = [ialu() for _ in range(10)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.extend(ialu() for _ in range(10))
        result = simulate(trace_of(records), config)
        event = result.mispredict_events[0]
        assert event.refill_cycles == 100
        assert event.penalty >= 101

    def test_timeline_recording_disabled(self):
        config = CoreConfig(record_timeline=False)
        records = [ialu() for _ in range(100)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.append(ialu())
        result = simulate(trace_of(records), config)
        assert result.dispatch_cycle is None
        assert result.issue_cycle is None
        # events still carry full timing
        assert result.mispredict_events[0].penalty > 0

    def test_timeline_off_matches_timeline_on_cycles(self):
        records = [ialu((2,) if i >= 2 else ()) for i in range(500)]
        trace = trace_of(records)
        with_timeline = simulate(trace, CoreConfig(record_timeline=True))
        without = simulate(trace, CoreConfig(record_timeline=False))
        assert with_timeline.cycles == without.cycles


class TestDependenceEdgeCases:
    def test_dep_on_instruction_before_trace_start_ignored(self):
        # first instruction cannot have deps (generator guarantees it),
        # but a sliced trace can: distances reaching before index 0.
        records = [ialu(), ialu((5,))]  # 1 - 5 < 0
        result = simulate(trace_of(records), CoreConfig())
        assert result.instructions == 2

    def test_duplicate_dependence_distances(self):
        records = [ialu(), ialu((1, 1))]
        result = simulate(trace_of(records), CoreConfig())
        assert result.issue_cycle[1] >= result.complete_cycle[0]

    def test_dependence_on_store(self):
        records = [
            TraceRecord(OpClass.STORE, mem_addr=0),
            ialu((1,)),
        ]
        result = simulate(trace_of(records), CoreConfig())
        assert result.issue_cycle[1] >= result.complete_cycle[0]

    def test_long_dependence_distance(self):
        records = [ialu() for _ in range(300)]
        records.append(TraceRecord(OpClass.IALU, deps=(300,)))
        result = simulate(trace_of(records), CoreConfig())
        # producer long retired: no stall
        assert result.instructions == 301


class TestEventOrdering:
    def test_events_sorted_by_dispatch_seq_per_kind(self):
        records = []
        for block in range(10):
            records.extend(ialu() for _ in range(10))
            records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        result = simulate(trace_of(records), CoreConfig())
        seqs = [e.seq for e in result.mispredict_events]
        assert seqs == sorted(seqs)

    def test_interleaved_event_kinds(self):
        records = [
            TraceRecord(OpClass.IALU, il1_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            TraceRecord(OpClass.BRANCH, mispredict=True),
            ialu(),
        ]
        result = simulate(trace_of(records), CoreConfig())
        assert len(result.icache_events) == 1
        assert len(result.long_dmiss_events) == 1
        assert len(result.mispredict_events) == 1
