"""Property-based tests for trace generation and serialization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import OpClass
from repro.trace.io import load_trace, save_trace
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import TraceRecord, is_annotated, records_of, trace_of

PROFILES = st.builds(
    WorkloadProfile,
    mean_dependence_distance=st.floats(min_value=1.0, max_value=16.0),
    mispredict_rate=st.floats(min_value=0.0, max_value=0.5),
    branch_taken_fraction=st.floats(min_value=0.0, max_value=1.0),
    dl1_miss_rate=st.floats(min_value=0.0, max_value=0.4),
    dl2_miss_rate=st.floats(min_value=0.0, max_value=0.2),
    il1_mpki=st.floats(min_value=0.0, max_value=50.0),
    burst_fraction=st.floats(min_value=0.0, max_value=0.9),
    burst_persistence=st.floats(min_value=0.0, max_value=1.0),
    chain_dep_fraction=st.floats(min_value=0.0, max_value=1.0),
)
SEEDS = st.integers(min_value=0, max_value=2**31)


class TestGeneratorProperties:
    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_generated_traces_are_structurally_valid(self, profile, seed):
        trace = generate_trace(profile, 400, seed=seed)
        assert len(trace) == 400
        trace.validate()
        assert is_annotated(trace)
        for i, record in enumerate(records_of(trace)):
            for dep in record.deps:
                assert 1 <= dep <= max(i, 1)
            if record.is_load:
                assert not (record.dl1_miss and record.dl2_miss)
            if record.is_control:
                assert record.target is not None or not record.taken

    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_determinism(self, profile, seed):
        a = generate_trace(profile, 200, seed=seed)
        b = generate_trace(profile, 200, seed=seed)
        assert records_of(a) == records_of(b)

    @given(profile=PROFILES, seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_prefix_stability(self, profile, seed):
        """A longer generation run starts with the shorter run."""
        short = generate_trace(profile, 100, seed=seed)
        long = generate_trace(profile, 200, seed=seed)
        assert records_of(long)[:100] == records_of(short)


# Hypothesis-built records for serialization round-trips.
_OP = st.sampled_from(list(OpClass))


@st.composite
def trace_records(draw):
    op_class = draw(_OP)
    deps = tuple(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=65535),
                max_size=3,
            )
        )
    )
    tri = st.sampled_from([None, False, True])
    mem_addr = (
        draw(st.integers(min_value=0, max_value=(1 << 48) - 1))
        if op_class.is_memory
        else None
    )
    dl1 = draw(tri)
    dl2 = draw(tri)
    if dl1 and dl2:
        dl2 = False
    return TraceRecord(
        op_class=op_class,
        pc=draw(st.integers(min_value=0, max_value=(1 << 48) - 1)),
        deps=deps,
        mem_addr=mem_addr,
        taken=draw(st.booleans()),
        target=draw(
            st.one_of(
                st.none(), st.integers(min_value=0, max_value=(1 << 48) - 1)
            )
        ),
        mispredict=draw(tri),
        il1_miss=draw(tri),
        dl1_miss=dl1,
        dl2_miss=dl2,
    )


class TestSerializationProperties:
    @given(records=st.lists(trace_records(), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_exact(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "t.bin"
        trace = trace_of(records, name="prop")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert records_of(loaded) == records
        assert loaded.name == "prop"
