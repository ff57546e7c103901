"""Unit tests for the ILP / window-drain model."""

import pytest

from repro.interval.ilp import (
    backward_slice_latency,
    fit_ilp_profile,
    fu_latency,
    full_latency,
    unit_latency,
)
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import TraceRecord, trace_of


def serial_trace(n):
    return trace_of(
        [TraceRecord(OpClass.IALU, deps=(1,) if i else ()) for i in range(n)]
    )


def parallel_trace(n):
    return trace_of([TraceRecord(OpClass.IALU) for _ in range(n)])


def criticality(trace, window, latency_of=None):
    """``K(window)``, as the ILP fit measures it."""
    return fit_ilp_profile(trace, (window, window), latency_of).criticality[0]


class TestWindowCriticality:
    def test_serial_window_is_window_deep(self):
        assert criticality(serial_trace(256), 32) == pytest.approx(32.0)

    def test_parallel_window_is_depth_one(self):
        assert criticality(parallel_trace(256), 32) == pytest.approx(1.0)

    def test_deps_crossing_window_boundary_ignored(self):
        # distance-32 deps never land inside a 16-wide window
        records = [
            TraceRecord(OpClass.IALU, deps=(32,) if i >= 32 else ())
            for i in range(256)
        ]
        assert criticality(trace_of(records), 16) == pytest.approx(1.0)

    def test_latency_function_scales(self):
        trace = serial_trace(128)
        unit = criticality(trace, 16)
        tripled = criticality(trace, 16, latency_of=lambda s: 3)
        assert tripled == pytest.approx(3 * unit)

    def test_monotone_in_window_size(self, small_trace):
        ks = fit_ilp_profile(small_trace, (8, 32, 128)).criticality
        assert list(ks) == sorted(ks)

    def test_empty_trace(self):
        assert criticality(trace_of(), 16) == 0.0


class TestPowerLawFit:
    def test_serial_trace_beta_near_one(self):
        fit = fit_ilp_profile(serial_trace(2048))
        assert fit.beta == pytest.approx(1.0, abs=0.05)
        assert fit.alpha == pytest.approx(1.0, rel=0.1)

    def test_parallel_trace_beta_near_zero(self):
        fit = fit_ilp_profile(parallel_trace(2048))
        assert fit.beta == pytest.approx(0.0, abs=0.05)

    def test_synthetic_trace_good_fit(self):
        trace = generate_trace(WorkloadProfile(), 20_000, seed=9)
        fit = fit_ilp_profile(trace)
        assert fit.r_squared > 0.95
        assert 0.0 < fit.beta <= 1.1

    def test_predict_drain_monotone(self):
        trace = generate_trace(WorkloadProfile(), 10_000, seed=9)
        fit = fit_ilp_profile(trace)
        drains = [fit.predict_drain(n) for n in (8, 32, 128)]
        assert drains == sorted(drains)

    def test_predict_drain_zero_occupancy(self):
        fit = fit_ilp_profile(serial_trace(256))
        assert fit.predict_drain(0) == 0.0

    def test_needs_two_windows(self):
        with pytest.raises(ValueError):
            fit_ilp_profile(serial_trace(64), windows=(16,))


class TestLatencyFunctions:
    def test_unit_latency(self):
        trace = serial_trace(4)
        assert unit_latency(trace)(0) == 1

    def test_fu_latency_uses_specs(self):
        config = CoreConfig()
        trace = trace_of([TraceRecord(OpClass.IMUL)])
        latency = fu_latency(trace, config.fu_specs)
        assert latency(0) == config.fu_specs[OpClass.IMUL].latency

    def test_full_latency_adds_cache(self):
        config = CoreConfig()
        records = [
            TraceRecord(OpClass.LOAD, mem_addr=0),
            TraceRecord(OpClass.LOAD, mem_addr=0, dl1_miss=True),
            TraceRecord(OpClass.LOAD, mem_addr=0, dl2_miss=True),
        ]
        trace = trace_of(records)
        latency = full_latency(trace, config.fu_specs, config)
        base = config.fu_specs[OpClass.LOAD].latency
        assert latency(0) == base + config.l1_latency
        assert latency(1) == base + config.l2_latency
        assert latency(2) == base + config.memory_latency


class TestBackwardSlice:
    def test_chain_depth(self):
        trace = serial_trace(64)
        depth = backward_slice_latency(trace, 63, 32, unit_latency(trace))
        assert depth == 32  # window-bounded

    def test_full_window_chain(self):
        trace = serial_trace(64)
        depth = backward_slice_latency(trace, 63, 0, unit_latency(trace))
        assert depth == 64

    def test_independent_branch_depth_one(self):
        trace = parallel_trace(32)
        assert backward_slice_latency(trace, 31, 0, unit_latency(trace)) == 1

    def test_satisfied_predicate_trims_slice(self):
        trace = serial_trace(64)
        depth = backward_slice_latency(
            trace, 63, 0, unit_latency(trace), satisfied=lambda s: s < 60
        )
        assert depth == 4

    def test_bad_bounds_raise(self):
        trace = serial_trace(16)
        with pytest.raises(ValueError):
            backward_slice_latency(trace, 20, 0, unit_latency(trace))
        with pytest.raises(ValueError):
            backward_slice_latency(trace, 5, 10, unit_latency(trace))

    def test_slice_respects_latencies(self):
        config = CoreConfig()
        records = [
            TraceRecord(OpClass.IDIV),
            TraceRecord(OpClass.BRANCH, deps=(1,)),
        ]
        trace = trace_of(records)
        fu = fu_latency(trace, config.fu_specs)
        depth = backward_slice_latency(trace, 1, 0, fu)
        assert depth == config.fu_specs[OpClass.IDIV].latency + 1
