"""Property-based tests across the analytical models and cores."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interval.fast_sim import FastIntervalSimulator
from repro.interval.model import IntervalModel
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.trace.transforms import with_perfect_branches, without_short_misses

PROFILES = st.builds(
    WorkloadProfile,
    mean_dependence_distance=st.floats(min_value=1.5, max_value=10.0),
    mispredict_rate=st.floats(min_value=0.0, max_value=0.2),
    dl1_miss_rate=st.floats(min_value=0.0, max_value=0.2),
    dl2_miss_rate=st.floats(min_value=0.0, max_value=0.03),
    il1_mpki=st.floats(min_value=0.0, max_value=10.0),
)
SEEDS = st.integers(min_value=0, max_value=2**31)

# Oldest-first issue is a list scheduler, and list schedulers exhibit
# Graham-style anomalies: removing latency (or constraints) can shift a
# tie-break and lengthen the schedule by a few cycles. Cross-simulator
# orderings therefore hold up to this noise bound, not cycle-exactly.
# Observed anomalies reach 6 cycles (a shifted tie-break can delay one
# load past a commit-width boundary and cascade once), so the bound
# sits above that with margin.
SCHEDULING_NOISE_CYCLES = 10


class TestInOrderProperties:
    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_inorder_invariants(self, profile, seed):
        config = CoreConfig()
        trace = generate_trace(profile, 600, seed=seed)
        result = simulate_inorder(trace, config)
        assert result.instructions == 600
        assert result.cycles >= 600 / config.dispatch_width
        issues = result.issue_cycle
        assert all(a <= b for a, b in zip(issues, issues[1:]))
        for event in result.mispredict_events:
            assert event.resolution >= 1
            assert event.refill_cycles == config.frontend_depth

    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_inorder_never_faster_than_ooo(self, profile, seed):
        config = CoreConfig()
        trace = generate_trace(profile, 500, seed=seed)
        assert (
            simulate_inorder(trace, config).cycles
            >= simulate(trace, config).cycles - SCHEDULING_NOISE_CYCLES
        )


class TestEstimatorProperties:
    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_fast_sim_components_and_counts(self, profile, seed):
        config = CoreConfig()
        trace = generate_trace(profile, 600, seed=seed)
        fast = FastIntervalSimulator(config).estimate(trace)
        assert fast.cycles >= 600 / config.dispatch_width
        assert fast.mispredict_count == len(trace.mispredicted_indices())
        assert all(r >= 1 for r in fast.resolutions)

    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_model_monotone_in_events(self, profile, seed):
        """Removing mispredictions can only lower the model's estimate."""
        config = CoreConfig()
        trace = generate_trace(profile, 600, seed=seed)
        model = IntervalModel(config)
        base = model.predict(trace)
        ideal = IntervalModel(config, ilp_fit=model.fit(trace)).predict(
            with_perfect_branches(trace)
        )
        assert ideal.cycles <= base.cycles + 1e-9

    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=12, deadline=None)
    def test_short_miss_removal_never_hurts_detailed(self, profile, seed):
        config = CoreConfig()
        trace = generate_trace(profile, 500, seed=seed)
        thinned = without_short_misses(trace)
        assert (
            simulate(thinned, config).cycles
            <= simulate(trace, config).cycles + SCHEDULING_NOISE_CYCLES
        )
