"""The lockstep ILP window fit against the scalar oracle, exactly.

``fit_ilp_profile`` advances all windows of one size together;
``scalar_ilp`` walks them one record at a time. The returned floats must
be equal (``==``), not merely close.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import workload_trace
from repro.interval.ilp import fit_ilp_profile, full_latency
from repro.interval.model import IntervalModel
from repro.isa.opcodes import OpClass
from repro.pipeline.config import CoreConfig

from tests.interval.scalar_ilp import scalar_fit_ilp_profile
from tests.trace.records import TraceRecord, trace_of


@st.composite
def traces(draw, max_size=120):
    """Traces whose distances may reach before record 0 and before the
    window, with up to three dependences per record."""
    deps = draw(
        st.lists(
            st.lists(st.integers(1, 40), max_size=3).map(tuple),
            max_size=max_size,
        )
    )
    return trace_of([TraceRecord(OpClass.IALU, deps=d) for d in deps])


def assert_fits_equal(trace, windows, latency_of=None):
    got = fit_ilp_profile(trace, windows, latency_of)
    want = scalar_fit_ilp_profile(trace, windows, latency_of)
    assert got.criticality == want.criticality
    assert got == want
    return got


class TestWindowCriticality:
    @settings(max_examples=300, deadline=None)
    @given(
        trace=traces(),
        windows=st.lists(st.integers(1, 150), min_size=2, max_size=3),
        latencies=st.lists(st.integers(-3, 20), min_size=120, max_size=120),
    )
    def test_matches_scalar(self, trace, windows, latencies):
        assert_fits_equal(trace, windows, latencies.__getitem__)
        assert_fits_equal(trace, windows)

    def test_window_larger_than_trace(self):
        trace = trace_of(
            [TraceRecord(OpClass.IALU, deps=(1,) if i else ()) for i in range(10)]
        )
        fit = assert_fits_equal(trace, (64, 128))
        assert fit.criticality == (10.0, 10.0)

    def test_empty_trace(self):
        assert fit_ilp_profile(trace_of(), (8, 3)).criticality == (0.0, 0.0)

    def test_fractional_latencies_sum_in_window_order(self, small_trace):
        latency_of = lambda seq: 0.1 * (seq % 7) + 0.3  # noqa: E731
        assert_fits_equal(small_trace, (8, 256), latency_of)

    def test_custom_latency_on_real_trace(self, small_trace):
        config = CoreConfig()
        latency_of = full_latency(small_trace, config.fu_specs, config)
        assert_fits_equal(small_trace, (8, 32, 256), latency_of)


class TestFit:
    @pytest.mark.parametrize("name", ["gcc", "mcf"])
    def test_suite_fit_is_exact(self, name):
        trace = workload_trace(name)
        latency_of = IntervalModel(CoreConfig())._steady_latency(trace)
        for latency in (None, latency_of):
            got = fit_ilp_profile(trace, latency_of=latency)
            want = scalar_fit_ilp_profile(trace, latency_of=latency)
            assert got.criticality == want.criticality
            assert got == want

    def test_empty_trace_fit(self):
        assert fit_ilp_profile(trace_of()) == scalar_fit_ilp_profile(trace_of())

    def test_bad_window_raises(self, small_trace):
        with pytest.raises(ValueError):
            fit_ilp_profile(small_trace, windows=(8, 0))
