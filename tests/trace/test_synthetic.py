"""Unit tests for the synthetic trace generator.

These close the loop between profile parameters and measured trace
statistics — the property the SPEC substitution rests on.
"""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import is_annotated, mispredicted_indices, records_of

N = 30_000


@pytest.fixture(scope="module")
def default_trace():
    return generate_trace(WorkloadProfile(name="syn"), N, seed=99)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        profile = WorkloadProfile()
        a = generate_trace(profile, 1000, seed=7)
        b = generate_trace(profile, 1000, seed=7)
        assert records_of(a) == records_of(b)

    def test_different_seed_differs(self):
        profile = WorkloadProfile()
        a = generate_trace(profile, 1000, seed=7)
        b = generate_trace(profile, 1000, seed=8)
        assert records_of(a) != records_of(b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(WorkloadProfile(), -1)


class TestStatisticsMatchProfile:
    def test_instruction_mix(self, default_trace):
        profile = WorkloadProfile()
        mix = default_trace.statistics().mix
        for op_class, expected in profile.mix.items():
            measured = mix.get(op_class.value, 0.0)
            assert measured == pytest.approx(expected, abs=0.012)

    def test_mispredict_rate(self, default_trace):
        stats = default_trace.statistics()
        assert stats.mispredict_rate == pytest.approx(0.06, abs=0.015)

    def test_taken_fraction(self, default_trace):
        stats = default_trace.statistics()
        assert stats.taken_fraction == pytest.approx(0.55, abs=0.03)

    def test_il1_rate(self, default_trace):
        stats = default_trace.statistics()
        assert stats.il1_misses_per_ki == pytest.approx(2.0, abs=0.8)

    def test_dcache_rates(self, default_trace):
        stats = default_trace.statistics()
        assert stats.dl1_miss_rate == pytest.approx(0.05, abs=0.015)
        assert stats.dl2_miss_rate == pytest.approx(0.005, abs=0.004)

    def test_short_and_long_misses_exclusive(self, default_trace):
        for record in records_of(default_trace):
            if record.is_load:
                assert not (record.dl1_miss and record.dl2_miss)

    def test_trace_is_annotated(self, default_trace):
        assert is_annotated(default_trace)

    def test_trace_validates(self, default_trace):
        default_trace.validate()


class TestILPControl:
    def test_dataflow_ipc_tracks_chain_count(self):
        base = WorkloadProfile()
        measured = []
        for distance in (2.0, 4.0, 8.0):
            profile = base.with_overrides(mean_dependence_distance=distance)
            trace = generate_trace(profile, 15_000, seed=5)
            ipc = trace.dataflow_ipc()
            measured.append(ipc)
            assert ipc == pytest.approx(profile.chain_count, rel=0.35)
        assert measured == sorted(measured)  # monotone in the knob

    def test_serial_profile_is_serial(self):
        profile = WorkloadProfile(
            mean_dependence_distance=1.0, chain_dep_fraction=1.0
        )
        trace = generate_trace(profile, 5000, seed=1)
        assert trace.dataflow_ipc() < 1.8


class TestStructure:
    def test_memory_ops_have_addresses(self, default_trace):
        for record in records_of(default_trace):
            if record.is_memory:
                assert record.mem_addr is not None

    def test_addresses_within_footprint(self, default_trace):
        profile = WorkloadProfile()
        limit = 0x10000 + profile.data_footprint_bytes + profile.stride_bytes
        for record in records_of(default_trace):
            if record.is_memory:
                assert 0x10000 <= record.mem_addr < limit

    def test_pcs_within_code_footprint(self, default_trace):
        profile = WorkloadProfile()
        for record in records_of(default_trace)[:2000]:
            assert 0x1000 <= record.pc < 0x1000 + profile.code_footprint_bytes

    def test_branches_have_targets(self, default_trace):
        for record in records_of(default_trace):
            if record.is_branch:
                assert record.target is not None

    def test_dep_distances_never_exceed_index(self, default_trace):
        for i, record in enumerate(records_of(default_trace)):
            for dep in record.deps:
                assert dep <= i or i == 0


class TestBurstiness:
    def test_bursty_profile_clusters_mispredictions(self):
        smooth = WorkloadProfile(
            name="smooth", burst_fraction=0.0, mispredict_rate=0.06
        )
        bursty = WorkloadProfile(
            name="bursty",
            burst_fraction=0.3,
            burst_factor=8.0,
            burst_persistence=0.98,
            mispredict_rate=0.06,
        )

        def gap_cv(trace):
            gaps = []
            last = None
            for i in mispredicted_indices(trace):
                if last is not None:
                    gaps.append(i - last)
                last = i
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
            return var**0.5 / mean

        smooth_cv = gap_cv(generate_trace(smooth, 60_000, seed=4))
        bursty_cv = gap_cv(generate_trace(bursty, 60_000, seed=4))
        assert bursty_cv > smooth_cv

    def test_overall_rate_independent_of_burstiness(self):
        for burst_fraction in (0.0, 0.3):
            profile = WorkloadProfile(
                burst_fraction=burst_fraction,
                burst_factor=6.0,
                mispredict_rate=0.06,
            )
            trace = generate_trace(profile, 60_000, seed=11)
            assert trace.statistics().mispredict_rate == pytest.approx(
                0.06, abs=0.02
            )
