"""The columnar generator against the scalar oracle, field for field.

``SyntheticTraceGenerator`` draws its SplitMix child streams in NumPy
blocks and writes columns; ``scalar_generator`` draws one value at a
time and builds records. The columns must equal a pack of the oracle's
records, and the record view built from them must agree on every field,
including the Python type of the value (a ``numpy.bool_`` would compare
equal but serialize differently).
"""

from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.runner import DEFAULT_LENGTH, DEFAULT_SEED
from repro.isa.opcodes import OpClass
from repro.trace import synthetic
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import SyntheticTraceGenerator, generate_trace
from repro.util.rng import SplitMix, derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.trace.scalar_generator import scalar_generate_trace
from tests.trace.records import TraceRecord, records_of, same_columns, trace_of


def assert_same_records(got, want):
    assert len(got) == len(want)
    for slot in TraceRecord.__slots__:
        read = attrgetter(slot)
        got_values = list(map(read, records_of(got)))
        want_values = list(map(read, records_of(want)))
        if got_values != want_values or list(map(type, got_values)) != list(
            map(type, want_values)
        ):
            index = next(
                i
                for i, (a, b) in enumerate(zip(got_values, want_values))
                if a != b or type(a) is not type(b)
            )
            raise AssertionError(
                f"record {index} differs in {slot}: "
                f"{got_values[index]!r} != {want_values[index]!r}"
            )


def assert_same_trace(got, want):
    """``got``'s columns are a pack of ``want``'s records, and they
    unpack to equal records."""
    assert same_columns(got, want)
    assert_same_records(got, want)


def probability():
    """Unit-interval values with the no-draw endpoints well represented."""
    return st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
    )


@st.composite
def profiles(draw):
    classes = [c for c in OpClass if c is not OpClass.NOP]
    weights = [draw(st.integers(0, 8)) for _ in classes]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    mix = {c: w / total for c, w in zip(classes, weights) if w}
    dl1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    dl2 = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    return WorkloadProfile(
        name="diff",
        mix=mix,
        mean_dependence_distance=draw(
            st.one_of(st.just(1.0), st.floats(1.0, 12.0, allow_nan=False))
        ),
        chain_dep_fraction=draw(probability()),
        second_dep_fraction=draw(probability()),
        branch_taken_fraction=draw(probability()),
        mispredict_rate=draw(probability()),
        # Large factors push the in-burst rate past 1, where it clamps.
        burst_factor=draw(st.floats(0.25, 40.0)),
        burst_fraction=draw(probability()),
        burst_persistence=draw(probability()),
        il1_mpki=draw(
            st.one_of(st.sampled_from([0.0, 1000.0]), st.floats(0.0, 1000.0))
        ),
        dl1_miss_rate=dl1,
        dl2_miss_rate=dl2,
        code_footprint_bytes=draw(st.sampled_from([1, 4, 6, 64, 1 << 16])),
        data_footprint_bytes=draw(st.sampled_from([1, 8, 12, 4096, 1 << 22])),
        stride_fraction=draw(probability()),
        stride_bytes=draw(st.sampled_from([1, 8, 64])),
    )


class TestColumnarMatchesScalar:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        profile=profiles(),
        seed=st.integers(0, (1 << 64) - 1),
        length=st.sampled_from([0, 1, 2, 3, 17, 250]),
        block=st.sampled_from([1, 2, 5, 64, synthetic._BLOCK]),
    )
    def test_any_profile_seed_and_length(self, profile, seed, length, block):
        # Small blocks force window refills at every possible draw.
        with mock.patch.object(synthetic, "_BLOCK", block):
            got = generate_trace(profile, length, seed=seed)
        assert_same_trace(got, scalar_generate_trace(profile, length, seed))

    @settings(max_examples=8, deadline=None)
    @given(profile=profiles(), seed=st.integers(0, (1 << 64) - 1))
    def test_longer_than_one_block(self, profile, seed):
        length = synthetic._BLOCK + 1500
        got = generate_trace(profile, length, seed=seed)
        assert_same_trace(got, scalar_generate_trace(profile, length, seed))

    def test_degenerate_profile(self):
        # Every no-draw case at once: certain coins everywhere.
        profile = WorkloadProfile(
            mean_dependence_distance=1.0,
            chain_dep_fraction=1.0,
            second_dep_fraction=1.0,
            stride_fraction=1.0,
            burst_fraction=1.0,
            burst_persistence=1.0,
            il1_mpki=1000.0,
            mispredict_rate=1.0,
        )
        assert profile.scaled_mispredict_rate(True) >= 1.0
        got = generate_trace(profile, 3000, seed=5)
        assert_same_trace(got, scalar_generate_trace(profile, 3000, 5))

    @pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
    def test_suite_workloads_at_harness_length(self, name):
        seed = derive_seed(DEFAULT_SEED, name)
        profile = SPEC_PROFILES[name]
        got = generate_trace(profile, DEFAULT_LENGTH, seed=seed)
        assert_same_trace(
            got, scalar_generate_trace(profile, DEFAULT_LENGTH, seed)
        )


class TestStreamContinuation:
    @settings(max_examples=40, deadline=None)
    @given(
        profile=profiles(),
        seed=st.integers(0, 1 << 32),
        cuts=st.lists(st.integers(0, 40), min_size=1, max_size=5),
    )
    def test_split_generation_continues_one_stream(self, profile, seed, cuts):
        generator = SyntheticTraceGenerator(profile, seed=seed)
        with mock.patch.object(synthetic, "_BLOCK", 7):
            pieces = [records_of(generator.generate(count)) for count in cuts]
        joined = trace_of([record for piece in pieces for record in piece])
        assert_same_records(joined, scalar_generate_trace(profile, sum(cuts), seed))


class TestGeometricWindow:
    @pytest.mark.parametrize("cap", [1, 3, 10])
    @pytest.mark.parametrize("block", [1, 4, 64])
    def test_capped_runs_match_splitmix(self, cap, block):
        p = 0.15
        want = SplitMix(77)
        with mock.patch.object(synthetic, "_GEOMETRIC_CAP", cap), \
                mock.patch.object(synthetic, "_BLOCK", block):
            window = synthetic._Window(SplitMix(77), 1, p)
            window.refill(0, 1)
            got = []
            for _ in range(200):
                got.append(window.geometric(window.pos, 1))
        assert got == [want.geometric(p, cap=cap) for _ in range(200)]
