"""Unit tests for interval simulation, ``IntervalModel.estimate``.

The file keeps the name of the ``fast_sim`` stage, counters and
sanitizer rule the estimate still reports under.
"""

import pytest

from repro.interval import model as interval_model
from repro.interval.ilp import (
    backward_slice_latency,
    depends_on,
    load_latencies,
)
from repro.interval.model import IntervalModel, compare_with_detailed
from repro.interval.penalty import measure_penalties
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.interval.scalar_model import scalar_depends_on
from tests.trace.records import TraceRecord, records_of, trace_of


@pytest.fixture(scope="module")
def estimate(small_trace, base_config):
    return IntervalModel(base_config).estimate(small_trace)


class TestEstimateStructure:
    def test_components_sum(self, estimate):
        assert estimate.cycles == pytest.approx(
            estimate.base_cycles
            + estimate.mispredict_cycles
            + estimate.icache_cycles
            + estimate.long_dmiss_cycles
        )

    def test_event_counts_match_trace(self, estimate, small_trace):
        assert (
            estimate.mispredict_count
            == small_trace.statistics().mispredict_count
        )
        assert len(estimate.resolutions) == estimate.mispredict_count

    def test_base_is_width_bound(self, estimate, small_trace, base_config):
        assert estimate.base_cycles == pytest.approx(
            len(small_trace) / base_config.dispatch_width
        )

    def test_cpi_ipc_inverse(self, estimate):
        assert estimate.cpi * estimate.ipc == pytest.approx(1.0)

    def test_resolutions_positive(self, estimate):
        assert all(r >= 1 for r in estimate.resolutions)

    def test_empty_trace(self, base_config):
        estimate = IntervalModel(base_config).estimate(trace_of())
        assert estimate.cycles == 0.0
        assert estimate.cpi == 0.0


class TestAccuracy:
    def test_cpi_within_fifteen_percent(self, small_trace, base_config):
        detailed = simulate(small_trace, base_config)
        fast = IntervalModel(base_config).estimate(small_trace)
        assert abs(fast.error_vs(detailed)) < 0.15

    def test_penalty_close_to_measured(self, small_trace, base_config):
        detailed = simulate(small_trace, base_config)
        fast = IntervalModel(base_config).estimate(small_trace)
        measured = measure_penalties(detailed).mean_penalty
        assert fast.mean_penalty == pytest.approx(measured, rel=0.3)

    def test_tracks_ilp_changes(self, base_config):
        estimates = []
        for distance in (2.0, 8.0):
            profile = WorkloadProfile(
                mean_dependence_distance=distance,
                dl2_miss_rate=0.0,
                il1_mpki=0.0,
            )
            trace = generate_trace(profile, 8000, seed=3)
            estimates.append(
                IntervalModel(base_config).estimate(trace)
            )
        assert estimates[0].mean_penalty > estimates[1].mean_penalty

    def test_compare_with_detailed_keys(self, base_config):
        trace = generate_trace(WorkloadProfile(), 4000, seed=7)
        comparison = compare_with_detailed(trace, base_config)
        assert comparison["detailed_cycles"] > 0
        assert comparison["fast_cycles"] > 0
        assert comparison["speedup"] > 1.0

    def test_speedup_times_each_side_by_its_best_round(
        self, base_config, monkeypatch
    ):
        """Both sides run in interleaved rounds; one slow round of
        either side does not move the quoted times or the speedup."""
        # Elapsed seconds in call order: detailed, fast, per round.
        readings = iter([4.0, 2.0, 1.0, 0.25, 3.0, 1.0])

        class FakeStopwatch:
            @property
            def elapsed(self):
                return next(readings)

        monkeypatch.setattr(interval_model, "Stopwatch", FakeStopwatch)
        trace = generate_trace(WorkloadProfile(), 1000, seed=7)
        comparison = compare_with_detailed(trace, base_config)
        assert comparison["detailed_seconds"] == 1.0
        assert comparison["fast_seconds"] == 0.25
        assert comparison["speedup"] == 4.0
        assert next(readings, None) is None


@pytest.mark.parametrize("name", ["gzip", "mcf", "twolf", "eon"])
@pytest.mark.parametrize("rob_size", [32, 128])
def test_resolutions_are_backward_slices(name, rob_size):
    """Each window's forward walk equals the slice collected back from
    the branch over the same window."""
    trace = generate_trace(
        SPEC_PROFILES[name], 4_000, seed=derive_seed(2006, name)
    )
    config = CoreConfig(rob_size=rob_size)
    latency = load_latencies(
        trace, config.fu_specs, config.l1_latency, config.l2_latency
    )
    expected = []
    last_event = -1
    for seq, kind in IntervalModel.event_positions(trace):
        if kind == "bpred":
            occupancy = min(seq - last_event - 1, rob_size)
            expected.append(
                backward_slice_latency(trace, seq, seq - occupancy, latency)
            )
        last_event = seq
    estimate = IntervalModel(config).estimate(trace)
    assert estimate.resolutions == tuple(expected)
    assert expected


class TestEventHandling:
    def test_bpred_shadows_colocated_icache(self, base_config):
        records = [TraceRecord(OpClass.IALU) for _ in range(10)]
        records.append(
            TraceRecord(OpClass.BRANCH, mispredict=True, il1_miss=True)
        )
        records.extend(TraceRecord(OpClass.IALU) for _ in range(10))
        estimate = IntervalModel(base_config).estimate(trace_of(records))
        assert estimate.mispredict_count == 1
        assert estimate.icache_count == 0

    def test_dependent_long_misses_serialize(self, base_config):
        serial = [
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=8, dl2_miss=True, deps=(1,)),
        ]
        parallel = [
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=8, dl2_miss=True),
        ]
        model = IntervalModel(base_config)
        assert model.estimate(trace_of(serial)).long_dmiss_cycles == pytest.approx(
            2 * base_config.memory_latency
        )
        assert model.estimate(trace_of(parallel)).long_dmiss_cycles == pytest.approx(
            base_config.memory_latency
        )

    def test_icache_cost(self, base_config):
        records = [TraceRecord(OpClass.IALU, il1_miss=True)]
        records.extend(TraceRecord(OpClass.IALU) for _ in range(7))
        estimate = IntervalModel(base_config).estimate(trace_of(records))
        assert estimate.icache_cycles == pytest.approx(base_config.l2_latency)


class TestLongMissDependence:
    """Long-miss overlap asks whether one miss depends on an earlier
    one; the answer is walked from the trace's dependence columns."""

    def _chain_trace(self, n=40):
        """Loads where each depends on the previous; all long misses."""
        records = [TraceRecord(OpClass.LOAD, mem_addr=8 * i, dl2_miss=True,
                               deps=(1,) if i else ())
                   for i in range(n)]
        return trace_of(records)

    def test_depends_on_matches_record_bfs(self):
        trace = generate_trace(
            WorkloadProfile(name="reach", dl2_miss_rate=0.1), 600, seed=4
        )
        oracle = trace_of(records_of(trace))
        for consumer in range(50, 600, 97):
            for producer in range(max(0, consumer - 150), consumer):
                assert depends_on(trace, consumer, producer) == \
                    scalar_depends_on(oracle, consumer, producer)

    def test_extra_dependent_miss_adds_a_latency(self, base_config):
        trace = self._chain_trace()
        model = IntervalModel(base_config)
        before = model.estimate(trace)
        grown = trace_of(
            records_of(trace)
            + [TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True, deps=(1,))],
            name=trace.name,
        )
        after = model.estimate(grown)  # sees the extra dependent miss
        assert after.long_dmiss_count == before.long_dmiss_count + 1
        assert after.long_dmiss_cycles == pytest.approx(
            before.long_dmiss_cycles + base_config.memory_latency
        )

    def test_repeated_estimates_are_identical(self, base_config):
        trace = generate_trace(
            WorkloadProfile(name="reach2", dl2_miss_rate=0.08), 800, seed=9
        )
        model = IntervalModel(base_config)
        first = model.estimate(trace)
        second = model.estimate(trace)
        assert first.long_dmiss_cycles == second.long_dmiss_cycles
        assert first.cycles == second.cycles
