"""Invariant checks over full simulations of realistic traces."""

import pytest

from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import mispredicted_indices, records_of


@pytest.fixture(scope="module")
def run():
    trace = generate_trace(WorkloadProfile(name="inv"), 8000, seed=77)
    config = CoreConfig()
    return trace, config, simulate(trace, config)


class TestTimelineInvariants:
    def test_dispatch_monotone_nondecreasing(self, run):
        _, _, result = run
        cycles = result.dispatch_cycle
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_issue_after_dispatch(self, run):
        _, _, result = run
        for d, s in zip(result.dispatch_cycle, result.issue_cycle):
            assert s >= d + 1

    def test_complete_after_issue(self, run):
        _, _, result = run
        for s, c in zip(result.issue_cycle, result.complete_cycle):
            assert c >= s + 1

    def test_commit_at_or_after_complete(self, run):
        _, _, result = run
        for c, r in zip(result.complete_cycle, result.commit_cycle):
            assert r >= c

    def test_commit_order_is_program_order(self, run):
        _, _, result = run
        commits = result.commit_cycle
        assert all(a <= b for a, b in zip(commits, commits[1:]))

    def test_no_issue_before_producer_completes(self, run):
        trace, _, result = run
        for i, record in enumerate(records_of(trace)):
            for dist in record.deps:
                producer = i - dist
                if producer >= 0:
                    assert (
                        result.issue_cycle[i]
                        >= result.complete_cycle[producer]
                    ), f"instruction {i} issued before producer {producer}"

    def test_commit_width_respected(self, run):
        _, config, result = run
        per_cycle = {}
        for cycle in result.commit_cycle:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values()) <= config.commit_width

    def test_dispatch_width_respected(self, run):
        _, config, result = run
        per_cycle = {}
        for cycle in result.dispatch_cycle:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values()) <= config.dispatch_width

    def test_issue_width_respected(self, run):
        _, config, result = run
        per_cycle = {}
        for cycle in result.issue_cycle:
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values()) <= config.issue_width

    def test_inflight_never_exceeds_rob(self, run):
        _, config, result = run
        assert result.rob_peak_occupancy <= config.rob_size


class TestCycleBounds:
    def test_cycles_at_least_width_bound(self, run):
        trace, config, result = run
        assert result.cycles >= len(trace) / config.dispatch_width

    def test_cycles_at_least_critical_path(self, run):
        trace, config, result = run

        def latency(op_class):
            return config.fu_specs[op_class].latency

        assert result.cycles >= trace.critical_path_length(latency)

    def test_total_cycles_is_last_commit(self, run):
        _, _, result = run
        assert result.cycles == max(result.commit_cycle) + 1


class TestEventConsistency:
    def test_event_seqs_within_trace(self, run):
        trace, _, result = run
        for event in result.events:
            assert 0 <= event.seq < len(trace)

    def test_mispredict_events_match_annotations(self, run):
        trace, _, result = run
        annotated = set(mispredicted_indices(trace))
        observed = {e.seq for e in result.mispredict_events}
        assert observed == annotated

    def test_mispredict_resolution_matches_timeline(self, run):
        _, _, result = run
        for event in result.mispredict_events:
            assert event.cycle == result.dispatch_cycle[event.seq]
            assert event.resolve_cycle == result.complete_cycle[event.seq]

    def test_long_dmiss_events_match_annotations(self, run):
        trace, _, result = run
        annotated = {
            i
            for i, r in enumerate(records_of(trace))
            if r.is_load and r.dl2_miss
        }
        observed = {e.seq for e in result.long_dmiss_events}
        assert observed == annotated

    def test_icache_events_match_annotations(self, run):
        trace, _, result = run
        annotated = {i for i, r in enumerate(records_of(trace)) if r.il1_miss}
        observed = {e.seq for e in result.icache_events}
        assert observed == annotated

    def test_determinism(self, run):
        trace, config, result = run
        again = simulate(trace, config)
        assert again.cycles == result.cycles
        assert again.dispatch_cycle == result.dispatch_cycle
        assert len(again.events) == len(result.events)
