"""Property tests for the columnar perf layer.

Over arbitrary annotated traces, packing records into columns and
unpacking them back (``trace_of`` then ``unpack``) is the identity
on every record field, including the tri-state (None/False/True)
annotations.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import OpClass
from tests.trace.records import TraceRecord, trace_of, unpack

_TRI = st.sampled_from([None, False, True])


@st.composite
def trace_records(draw, max_size=60):
    """A structurally valid list of TraceRecords with arbitrary fields."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    records = []
    for seq in range(size):
        op_class = draw(st.sampled_from(list(OpClass)))
        deps = ()
        if seq:
            deps = tuple(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=seq),
                        max_size=3,
                        unique=True,
                    )
                )
            )
        records.append(
            TraceRecord(
                op_class,
                pc=draw(st.integers(min_value=0, max_value=2**40)) & ~0x3,
                deps=deps,
                mem_addr=(
                    draw(st.integers(min_value=0, max_value=2**40))
                    if op_class.is_memory
                    else None
                ),
                taken=draw(st.booleans()),
                target=(
                    draw(
                        st.one_of(
                            st.none(),
                            st.integers(min_value=0, max_value=2**40),
                        )
                    )
                    if op_class.is_control
                    else None
                ),
                mispredict=draw(_TRI),
                il1_miss=draw(_TRI),
                dl1_miss=draw(_TRI),
                dl2_miss=draw(_TRI),
            )
        )
    return records


@settings(max_examples=60, deadline=None)
@given(records=trace_records())
def test_pack_unpack_is_identity(records):
    back = unpack(trace_of(records, name="prop"))
    assert len(back) == len(records)
    for a, b in zip(back, records):
        assert a == b
        for field in ("mispredict", "il1_miss", "dl1_miss", "dl2_miss"):
            assert getattr(a, field) is getattr(b, field)

