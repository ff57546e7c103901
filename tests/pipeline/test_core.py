"""Behavioural unit tests for the superscalar core."""

import pytest

from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig, FUSpec, DEFAULT_FU_SPECS
from repro.pipeline.core import simulate
from tests.trace.records import TraceRecord, trace_of


def ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


def chain(n):
    """n serially dependent single-cycle instructions."""
    return trace_of([ialu((1,) if i else ()) for i in range(n)])


def independent(n):
    return trace_of([ialu() for _ in range(n)])


class TestBasics:
    def test_empty_trace(self):
        result = simulate(trace_of(), CoreConfig())
        assert result.instructions == 0
        assert result.cycles == 0

    def test_single_instruction(self):
        config = CoreConfig()
        result = simulate(trace_of([ialu()]), config)
        # frontend fill + dispatch + issue + execute + commit
        assert result.cycles >= config.frontend_depth + 2
        assert result.instructions == 1

    def test_serial_chain_ipc_near_one(self):
        result = simulate(chain(2000), CoreConfig())
        assert result.ipc == pytest.approx(1.0, abs=0.05)

    def test_independent_ipc_hits_width(self):
        result = simulate(independent(4000), CoreConfig())
        assert result.ipc == pytest.approx(4.0, abs=0.2)

    def test_dispatch_width_bounds_ipc(self):
        config = CoreConfig(dispatch_width=2, issue_width=4, commit_width=4)
        result = simulate(independent(4000), config)
        assert result.ipc <= 2.05

    def test_issue_width_bounds_ipc(self):
        config = CoreConfig(dispatch_width=4, issue_width=2, commit_width=4)
        result = simulate(independent(4000), config)
        assert result.ipc <= 2.05

    def test_commit_width_bounds_ipc(self):
        config = CoreConfig(dispatch_width=4, issue_width=4, commit_width=1)
        result = simulate(independent(4000), config)
        assert result.ipc <= 1.05

    def test_cycles_at_least_n_over_width(self):
        result = simulate(independent(1000), CoreConfig())
        assert result.cycles >= 1000 / 4


class TestLatencies:
    def test_mul_chain_costs_latency_each(self):
        records = [
            TraceRecord(OpClass.IMUL, deps=(1,) if i else ())
            for i in range(500)
        ]
        result = simulate(trace_of(records), CoreConfig())
        latency = DEFAULT_FU_SPECS[OpClass.IMUL].latency
        assert result.cycles == pytest.approx(500 * latency, rel=0.05)

    def test_unpipelined_divider_serializes(self):
        records = [TraceRecord(OpClass.IDIV) for _ in range(50)]
        result = simulate(trace_of(records), CoreConfig())
        interval = DEFAULT_FU_SPECS[OpClass.IDIV].issue_interval
        assert result.cycles >= 50 * interval

    def test_fu_count_limits_throughput(self):
        # 1 FMUL unit, independent fmuls -> IPC <= 1
        records = [TraceRecord(OpClass.FMUL) for _ in range(1000)]
        result = simulate(trace_of(records), CoreConfig())
        assert result.ipc <= 1.05

    def test_load_hit_latency_on_chain(self):
        config = CoreConfig()
        records = []
        for i in range(400):
            records.append(
                TraceRecord(OpClass.LOAD, mem_addr=8 * i, deps=(1,) if i else ())
            )
        result = simulate(trace_of(records), config)
        load_cost = (
            DEFAULT_FU_SPECS[OpClass.LOAD].latency + config.l1_latency
        )
        assert result.cycles == pytest.approx(400 * load_cost, rel=0.08)

    def test_long_miss_blocks_dependents(self):
        config = CoreConfig()
        records = [
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            ialu((1,)),
        ]
        result = simulate(trace_of(records), config)
        assert result.cycles >= config.memory_latency


class TestBranchMisprediction:
    def test_penalty_is_resolution_plus_refill(self):
        config = CoreConfig()
        records = [ialu() for _ in range(20)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True, taken=True))
        records.extend(ialu() for _ in range(20))
        result = simulate(trace_of(records), config)
        events = result.mispredict_events
        assert len(events) == 1
        event = events[0]
        assert event.refill_cycles == config.frontend_depth
        assert event.penalty == event.resolution + config.frontend_depth
        assert event.resolution >= 1

    def test_dispatch_gap_matches_penalty(self):
        config = CoreConfig()
        records = [ialu() for _ in range(8)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.extend(ialu() for _ in range(8))
        result = simulate(trace_of(records), config)
        event = result.mispredict_events[0]
        branch_seq = event.seq
        next_dispatch = result.dispatch_cycle[branch_seq + 1]
        assert next_dispatch == event.resolve_cycle + config.frontend_depth

    def test_branch_on_slow_chain_resolves_late(self):
        config = CoreConfig()
        fast = [
            ialu(),
            TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,)),
            ialu(),
        ]
        slow = [
            TraceRecord(OpClass.IDIV),  # 20-cycle producer
            TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,)),
            ialu(),
        ]
        fast_result = simulate(trace_of(fast), config)
        slow_result = simulate(trace_of(slow), config)
        assert (
            slow_result.mispredict_events[0].resolution
            > fast_result.mispredict_events[0].resolution
        )

    def test_correctly_predicted_branch_no_event(self):
        records = [ialu(), TraceRecord(OpClass.BRANCH, mispredict=False), ialu()]
        result = simulate(trace_of(records))
        assert not result.mispredict_events

    def test_full_window_resolution_exceeds_empty_window(self):
        config = CoreConfig()

        def trace_with_gap(gap):
            records = [TraceRecord(OpClass.BRANCH, mispredict=True)]
            records.extend(ialu((1,)) for _ in range(gap))
            records.append(TraceRecord(OpClass.BRANCH, mispredict=True,
                                       deps=(1,)))
            records.extend(ialu() for _ in range(10))
            return trace_of(records)

        short_gap = simulate(trace_with_gap(4), config)
        long_gap = simulate(trace_with_gap(200), config)
        assert (
            long_gap.mispredict_events[-1].resolution
            > short_gap.mispredict_events[-1].resolution
        )

    def test_window_occupancy_recorded(self):
        records = [ialu((1,) if i else ()) for i in range(30)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.append(ialu())
        result = simulate(trace_of(records), CoreConfig())
        event = result.mispredict_events[0]
        assert 0 < event.window_occupancy <= 30


class TestICacheMiss:
    def test_icache_miss_stalls_dispatch(self):
        config = CoreConfig()
        records = [ialu() for _ in range(4)]
        records.append(TraceRecord(OpClass.IALU, il1_miss=True))
        records.extend(ialu() for _ in range(4))
        result = simulate(trace_of(records), config)
        events = result.icache_events
        assert len(events) == 1
        miss_seq = events[0].seq
        gap = result.dispatch_cycle[miss_seq] - result.dispatch_cycle[miss_seq - 1]
        assert gap >= config.l2_latency

    def test_icache_event_latency(self):
        config = CoreConfig()
        records = [TraceRecord(OpClass.IALU, il1_miss=True), ialu()]
        result = simulate(trace_of(records), config)
        assert result.icache_events[0].latency == config.l2_latency


class TestLongDMiss:
    def test_event_logged_with_latency(self):
        config = CoreConfig()
        records = [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True), ialu()]
        result = simulate(trace_of(records), config)
        events = result.long_dmiss_events
        assert len(events) == 1
        assert events[0].latency >= config.memory_latency

    def test_rob_fills_behind_long_miss(self):
        config = CoreConfig(rob_size=16)
        records = [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True)]
        records.extend(ialu() for _ in range(100))
        result = simulate(trace_of(records), config)
        assert result.rob_peak_occupancy == 16

    def test_store_long_miss_not_an_event(self):
        records = [TraceRecord(OpClass.STORE, mem_addr=0, dl2_miss=True), ialu()]
        result = simulate(trace_of(records))
        assert not result.long_dmiss_events


class TestWrongPathMode:
    def test_ghosts_squashed_and_counted(self):
        config = CoreConfig(dispatch_wrong_path=True)
        records = [ialu() for _ in range(10)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,)))
        records.extend(ialu() for _ in range(10))
        result = simulate(trace_of(records), config)
        assert result.instructions == 21
        assert result.squashed_ghosts > 0

    def test_penalty_insensitive_to_wrong_path(self):
        records = [ialu((1,) if i else ()) for i in range(50)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True, deps=(1,)))
        records.extend(ialu() for _ in range(50))
        stop = simulate(trace_of(records), CoreConfig())
        ghost = simulate(trace_of(records), CoreConfig(dispatch_wrong_path=True))
        assert stop.mispredict_events[0].resolution == pytest.approx(
            ghost.mispredict_events[0].resolution, abs=3
        )


class TestIssuePolicy:
    def test_random_policy_deterministic(self):
        trace = chain(500)
        config = CoreConfig(issue_policy="random", seed=3)
        a = simulate(trace, config)
        b = simulate(trace, config)
        assert a.cycles == b.cycles

    def test_random_policy_not_faster_than_oldest(self):
        # random selection can only hurt (or match) a width-bound stream
        records = []
        for i in range(2000):
            records.append(ialu((1,) if i % 4 == 0 and i else ()))
        trace = trace_of(records)
        oldest = simulate(trace, CoreConfig())
        random_policy = simulate(
            trace, CoreConfig(issue_policy="random", seed=1)
        )
        assert random_policy.cycles >= oldest.cycles - 2
