"""PackedTrace: lossless round-trip and the columnar invariants."""

from __future__ import annotations

from repro.isa.opcodes import OpClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from tests.trace.records import TraceRecord, records_of, trace_of


def synthetic(length=400, seed=11):
    profile = WorkloadProfile(
        name="pack-test",
        mispredict_rate=0.08,
        il1_mpki=3.0,
        dl1_miss_rate=0.06,
        dl2_miss_rate=0.02,
    )
    return generate_trace(profile, length, seed)


def hand_trace():
    """Every field shape: None vs bool annotations, mem/target presence."""
    return trace_of(
        [
            TraceRecord(OpClass.IALU, pc=0x100),
            TraceRecord(
                OpClass.LOAD, pc=0x104, mem_addr=0x8000, deps=(1,),
                dl1_miss=True, dl2_miss=False,
            ),
            TraceRecord(
                OpClass.BRANCH, pc=0x108, taken=True, target=0x200,
                mispredict=True, il1_miss=False, deps=(2, 1),
            ),
            TraceRecord(OpClass.STORE, pc=0x10C, mem_addr=0x8008, deps=(3,)),
            TraceRecord(OpClass.JUMP, pc=0x110, taken=True, target=0x300),
            TraceRecord(OpClass.FMUL, pc=0x114, deps=(4, 2)),
        ],
        name="hand",
    )


def round_trip(trace):
    """Unpack a trace's columns to records and pack them back."""
    return trace_of(records_of(trace.pack()), name=trace.name)


def test_round_trip_is_lossless_on_synthetic_trace():
    trace = synthetic()
    back = round_trip(trace)
    assert len(back) == len(trace)
    assert all(
        a == b for a, b in zip(records_of(back.pack()), records_of(trace))
    )
    assert back.pack().equals(trace.pack())


def test_round_trip_preserves_none_vs_false_annotations():
    trace = hand_trace()
    back = round_trip(trace)
    for a, b in zip(records_of(back.pack()), records_of(trace)):
        assert a == b
        # Tri-state fields must distinguish None from False exactly.
        for field in ("mispredict", "il1_miss", "dl1_miss", "dl2_miss"):
            assert getattr(a, field) is getattr(b, field)
        assert a.mem_addr == b.mem_addr
        assert a.target == b.target


def test_round_trip_preserves_name():
    assert round_trip(hand_trace()).name == "hand"


def test_csr_dependence_index_matches_records():
    trace = synthetic(length=200, seed=3)
    packed = trace.pack()
    assert packed.dep_indptr[0] == 0
    assert packed.dep_indptr[-1] == len(packed.dep_data)
    for seq, record in enumerate(records_of(trace)):
        assert tuple(packed.deps_of(seq)) == record.deps


def test_equals_discriminates():
    a = synthetic(length=100, seed=1).pack()
    b = synthetic(length=100, seed=2).pack()
    assert a.equals(a)
    assert not a.equals(b)


def test_empty_trace_packs():
    packed = trace_of([]).pack()
    assert len(packed) == 0
    assert len(records_of(packed)) == 0
