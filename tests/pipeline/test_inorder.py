"""Unit tests for the in-order core."""

from collections import Counter

import pytest

from repro.interval.penalty import measure_penalties
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig, DEFAULT_FU_SPECS
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace.records import TraceRecord, records_of, trace_of


def ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


class TestBasics:
    def test_empty_trace(self):
        result = simulate_inorder(trace_of())
        assert result.cycles == 0

    def test_independent_stream_hits_width(self):
        result = simulate_inorder(trace_of([ialu() for _ in range(4000)]))
        assert result.ipc == pytest.approx(4.0, abs=0.2)

    def test_serial_chain_ipc_one(self):
        records = [ialu((1,) if i else ()) for i in range(2000)]
        result = simulate_inorder(trace_of(records))
        assert result.ipc == pytest.approx(1.0, abs=0.05)

    def test_no_memory_level_parallelism(self):
        """Two independent long misses, each followed by its consumer:
        the OoO window overlaps the misses; stall-on-use in-order
        serializes them."""
        config = CoreConfig()
        records = [
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            ialu((1,)),
            TraceRecord(OpClass.LOAD, mem_addr=64, dl2_miss=True),
            ialu((1,)),
        ]
        in_order = simulate_inorder(trace_of(records), config)
        out_of_order = simulate(trace_of(records), config)
        assert in_order.cycles >= 2 * config.memory_latency
        assert out_of_order.cycles < 1.5 * config.memory_latency

    def test_issue_order_is_program_order(self):
        trace = generate_trace(WorkloadProfile(), 2000, seed=5)
        result = simulate_inorder(trace)
        issues = result.issue_cycle
        assert all(a <= b for a, b in zip(issues, issues[1:]))

    def test_no_issue_before_producer(self):
        trace = generate_trace(WorkloadProfile(), 2000, seed=5)
        result = simulate_inorder(trace)
        for i, record in enumerate(records_of(trace)):
            for dist in record.deps:
                producer = i - dist
                if producer >= 0:
                    assert result.issue_cycle[i] >= result.complete_cycle[producer]

    def test_issue_width_respected(self):
        trace = generate_trace(WorkloadProfile(), 2000, seed=5)
        config = CoreConfig()
        result = simulate_inorder(trace, config)
        per_cycle = {}
        for cycle in result.issue_cycle:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values()) <= config.issue_width

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_issue_width_respected_on_the_suite(self, width):
        config = CoreConfig(
            dispatch_width=width, issue_width=width, commit_width=width
        )
        for name, profile in sorted(SPEC_PROFILES.items()):
            trace = generate_trace(profile, 3_000, seed=derive_seed(0, name))
            result = simulate_inorder(trace, config)
            per_cycle = Counter(result.issue_cycle)
            assert max(per_cycle.values()) <= width, name


class TestMissEvents:
    def test_mispredict_event_logged(self):
        records = [ialu() for _ in range(10)]
        records.append(TraceRecord(OpClass.BRANCH, mispredict=True))
        records.extend(ialu() for _ in range(10))
        config = CoreConfig()
        result = simulate_inorder(trace_of(records), config)
        events = result.mispredict_events
        assert len(events) == 1
        assert events[0].refill_cycles == config.frontend_depth
        # redirect: next instruction delivered after resolve + refill
        next_dispatch = result.dispatch_cycle[events[0].seq + 1]
        assert next_dispatch >= events[0].resolve_cycle + config.frontend_depth

    def test_icache_miss_stalls(self):
        config = CoreConfig()
        records = [ialu() for _ in range(4)]
        records.append(TraceRecord(OpClass.IALU, il1_miss=True))
        records.extend(ialu() for _ in range(4))
        result = simulate_inorder(trace_of(records), config)
        assert len(result.icache_events) == 1

    def test_long_miss_event(self):
        records = [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True), ialu()]
        result = simulate_inorder(trace_of(records))
        assert len(result.long_dmiss_events) == 1


class TestContrastWithOoO:
    """The F20 claim at unit scale."""

    def test_inorder_never_faster(self):
        trace = generate_trace(WorkloadProfile(), 6000, seed=11)
        config = CoreConfig()
        in_order = simulate_inorder(trace, config)
        out_of_order = simulate(trace, config)
        assert in_order.cycles >= out_of_order.cycles

    def test_inorder_resolution_much_smaller(self):
        trace = generate_trace(WorkloadProfile(name="c"), 10_000, seed=13)
        config = CoreConfig()
        in_order = measure_penalties(simulate_inorder(trace, config))
        out_of_order = measure_penalties(simulate(trace, config))
        assert in_order.count == out_of_order.count
        assert in_order.mean_resolution < 0.5 * out_of_order.mean_resolution

    def test_folk_wisdom_nearly_true_inorder(self):
        """On the in-order machine, penalty ~ frontend depth + a small
        execute term."""
        trace = generate_trace(
            WorkloadProfile(dl1_miss_rate=0.0, dl2_miss_rate=0.0),
            10_000,
            seed=17,
        )
        config = CoreConfig()
        report = measure_penalties(simulate_inorder(trace, config))
        assert report.mean_penalty < config.frontend_depth + 8
