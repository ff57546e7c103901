"""Unit tests for the five-contributor decomposition."""

import pytest

from repro.interval.contributors import decompose_contributors
from repro.interval.penalty import measure_penalties
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import TraceRecord, trace_of


@pytest.fixture(scope="module")
def decomposition(small_trace, base_config, small_result):
    return decompose_contributors(
        small_trace, small_result, base_config, max_events=100
    )


class TestBreakdownStructure:
    def test_refill_is_frontend_depth(self, decomposition, base_config):
        assert decomposition.refill == base_config.frontend_depth

    def test_components_non_negative(self, decomposition):
        assert decomposition.ilp_chain >= 0
        assert decomposition.fu_latency_extra >= 0
        assert decomposition.short_miss_extra >= 0

    def test_components_sum_to_penalty(self, decomposition):
        total = (
            decomposition.refill
            + decomposition.ilp_chain
            + decomposition.fu_latency_extra
            + decomposition.short_miss_extra
            + decomposition.residual
        )
        assert total == pytest.approx(decomposition.mean_penalty, abs=1e-6)

    def test_explained_definition(self, decomposition):
        assert decomposition.explained == pytest.approx(
            decomposition.ilp_chain
            + decomposition.fu_latency_extra
            + decomposition.short_miss_extra
        )

    def test_residual_is_small(self, decomposition):
        """The dispatch-anchored slice should explain nearly all of the
        measured resolution time."""
        assert abs(decomposition.residual) < 0.35 * decomposition.mean_resolution

    def test_rows_render(self, decomposition):
        rows = decomposition.rows()
        names = [name for name, _ in rows]
        assert any("C1" in n for n in names)
        assert any("C5" in n for n in names)

    def test_empty_events(self, base_config):
        trace = trace_of([TraceRecord(OpClass.IALU) for _ in range(20)])
        result = simulate(trace, base_config)
        breakdown = decompose_contributors(trace, result, base_config)
        assert breakdown.count == 0
        assert breakdown.mean_penalty == base_config.frontend_depth


class TestContributorSensitivity:
    def _decompose(self, profile, config=None, n=15_000, seed=5):
        config = config or CoreConfig()
        trace = generate_trace(profile, n, seed=seed)
        result = simulate(trace, config)
        return decompose_contributors(trace, result, config, max_events=80)

    def test_short_misses_raise_c5(self):
        base = WorkloadProfile(dl2_miss_rate=0.0, il1_mpki=0.0)
        low = self._decompose(base.with_overrides(dl1_miss_rate=0.0))
        high = self._decompose(base.with_overrides(dl1_miss_rate=0.25))
        assert high.short_miss_extra > low.short_miss_extra
        assert low.short_miss_extra == pytest.approx(0.0, abs=1e-9)

    def test_fu_latency_scaling_raises_c4(self):
        profile = WorkloadProfile(dl1_miss_rate=0.0, dl2_miss_rate=0.0)
        base = self._decompose(profile)
        scaled = self._decompose(
            profile, config=CoreConfig().with_scaled_fu_latencies(3.0)
        )
        assert scaled.fu_latency_extra > base.fu_latency_extra

    def test_low_ilp_raises_c3(self):
        high_ilp = self._decompose(
            WorkloadProfile(mean_dependence_distance=10.0)
        )
        low_ilp = self._decompose(
            WorkloadProfile(mean_dependence_distance=2.0)
        )
        assert low_ilp.ilp_chain > high_ilp.ilp_chain

    def test_max_events_caps_work(self, small_trace, base_config, small_result):
        report = measure_penalties(small_result)
        capped = decompose_contributors(
            small_trace, small_result, base_config, report=report, max_events=10
        )
        assert capped.count == 10
