"""Trace columns: lossless record round-trip and the columnar invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.isa.opcodes import OpClass
from repro.trace.columns import RECORD_DTYPE
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from tests.trace.records import (
    TraceRecord,
    deps_of,
    records_of,
    same_columns,
    trace_of,
    unpack,
)


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
    return trace_of(unpack(trace), name=trace.name)


def test_round_trip_is_lossless_on_synthetic_trace():
    trace = synthetic()
    back = round_trip(trace)
    assert len(back) == len(trace)
    assert all(
        a == b for a, b in zip(unpack(back), records_of(trace))
    )
    assert same_columns(back, trace)


def test_round_trip_preserves_none_vs_false_annotations():
    trace = hand_trace()
    back = round_trip(trace)
    for a, b in zip(unpack(back), records_of(trace)):
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
    assert trace.dep_indptr[0] == 0
    assert trace.dep_indptr[-1] == len(trace.dep_data)
    for seq, record in enumerate(records_of(trace)):
        assert deps_of(trace, seq) == record.deps


def test_equals_discriminates():
    a = synthetic(length=100, seed=1)
    b = synthetic(length=100, seed=2)
    assert same_columns(a, a)
    assert not same_columns(a, b)
    renamed = Trace(a.columns, a.dep_indptr, a.dep_data, name="other")
    assert not same_columns(a, renamed)


def test_empty_trace_packs():
    trace = trace_of([])
    assert len(trace) == 0
    assert len(unpack(trace)) == 0


def test_constructor_checks_dtype_and_indptr_length():
    indptr = np.zeros(3, dtype=np.int64)
    data = np.zeros(0, dtype=np.int32)
    with pytest.raises(ValueError, match="dtype"):
        Trace(np.zeros(2, dtype=np.int64), indptr, data)
    with pytest.raises(ValueError, match="dep_indptr length 2"):
        Trace(np.zeros(2, dtype=RECORD_DTYPE), indptr[:2], data)
    assert len(Trace(np.zeros(2, dtype=RECORD_DTYPE), indptr, data)) == 2
