"""Cross-model consistency: every estimator, one set of traces.

The library contains four ways to get a cycle count — the cycle-level
out-of-order core, the in-order core, one-pass interval simulation, and
the first-order interval model — plus trace transforms that produce
counterfactual workloads. These tests pin down the orderings and error
bounds that must hold among them on shared traces.
"""

import pytest

from repro.interval.model import IntervalModel
from repro.interval.penalty import measure_penalties
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.trace.transforms import (
    with_perfect_branches,
    with_perfect_icache,
    without_short_misses,
)
from repro.workloads.spec_profiles import SPEC_PROFILES

NAMES = ("gzip", "parser", "twolf")
N = 15_000


@pytest.fixture(scope="module")
def bundles():
    """(trace, detailed, inorder, fast, model_prediction) per workload."""
    config = CoreConfig()
    out = {}
    for name in NAMES:
        trace = generate_trace(SPEC_PROFILES[name], N, seed=777)
        detailed = simulate(trace, config)
        in_order = simulate_inorder(trace, config)
        fast = IntervalModel(config).estimate(trace)
        model = IntervalModel(config).predict(trace)
        out[name] = (trace, detailed, in_order, fast, model)
    return config, out


class TestOrderings:
    def test_inorder_never_beats_ooo(self, bundles):
        _, out = bundles
        for name, (_t, detailed, in_order, _f, _m) in out.items():
            assert in_order.cycles >= detailed.cycles, name

    def test_width_bound_holds_for_all(self, bundles):
        config, out = bundles
        lower = N / config.dispatch_width
        for name, (_t, detailed, in_order, fast, model) in out.items():
            assert detailed.cycles >= lower
            assert in_order.cycles >= lower
            assert fast.cycles >= lower
            assert model.cycles >= lower

    def test_analytical_estimators_bracket_detailed(self, bundles):
        _, out = bundles
        for name, (_t, detailed, _i, fast, model) in out.items():
            assert abs(fast.error_vs(detailed)) < 0.20, name
            assert abs(model.error_vs(detailed)) < 0.30, name

    def test_event_counts_agree_everywhere(self, bundles):
        _, out = bundles
        for name, (trace, detailed, in_order, fast, model) in out.items():
            expected = trace.statistics().mispredict_count
            assert len(detailed.mispredict_events) == expected
            assert len(in_order.mispredict_events) == expected
            assert fast.mispredict_count == expected
            assert model.mispredict_count == expected


class TestCounterfactualOrderings:
    def test_each_perfect_transform_helps_every_simulator(self, bundles):
        config, out = bundles
        for name, (trace, detailed, in_order, _f, _m) in out.items():
            for transform in (
                with_perfect_branches,
                with_perfect_icache,
                without_short_misses,
            ):
                ideal_trace = transform(trace)
                assert simulate(ideal_trace, config).cycles <= detailed.cycles
                assert (
                    simulate_inorder(ideal_trace, config).cycles
                    <= in_order.cycles
                )

    def test_perfect_frontend_dominates_single_transforms(self, bundles):
        config, out = bundles
        for name, (trace, _d, _i, _f, _m) in out.items():
            both = simulate(
                with_perfect_icache(with_perfect_branches(trace)), config
            )
            only_branches = simulate(with_perfect_branches(trace), config)
            only_icache = simulate(with_perfect_icache(trace), config)
            assert both.cycles <= only_branches.cycles
            assert both.cycles <= only_icache.cycles

    def test_perfect_branches_removes_bpred_component(self, bundles):
        config, out = bundles
        for name, (trace, _d, _i, _f, _m) in out.items():
            ideal = simulate(with_perfect_branches(trace), config)
            assert measure_penalties(ideal).count == 0


class TestPenaltyAgreement:
    def test_fast_penalty_tracks_measured(self, bundles):
        _, out = bundles
        for name, (_t, detailed, _i, fast, _m) in out.items():
            measured = measure_penalties(detailed).mean_penalty
            assert fast.mean_penalty == pytest.approx(measured, rel=0.35), name

    def test_inorder_penalty_below_ooo(self, bundles):
        _, out = bundles
        for name, (_t, detailed, in_order, _f, _m) in out.items():
            ooo = measure_penalties(detailed).mean_penalty
            ino = measure_penalties(in_order).mean_penalty
            assert ino < ooo, name
