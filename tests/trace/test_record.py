"""Unit tests for TraceRecord."""

import pytest

from repro.isa.opcodes import OpClass
from tests.trace.records import TraceRecord


class TestConstruction:
    def test_minimal(self):
        record = TraceRecord(OpClass.IALU)
        assert record.deps == ()
        assert record.mem_addr is None
        assert not record.is_branch

    def test_load_requires_address(self):
        with pytest.raises(ValueError, match="mem_addr"):
            TraceRecord(OpClass.LOAD)

    def test_store_requires_address(self):
        with pytest.raises(ValueError):
            TraceRecord(OpClass.STORE)

    def test_load_with_address(self):
        record = TraceRecord(OpClass.LOAD, mem_addr=0x1000)
        assert record.is_load and record.is_memory

    def test_nonpositive_dep_rejected(self):
        with pytest.raises(ValueError, match="distances"):
            TraceRecord(OpClass.IALU, deps=(0,))
        with pytest.raises(ValueError):
            TraceRecord(OpClass.IALU, deps=(2, -1))

    def test_deps_normalized_to_tuple(self):
        record = TraceRecord(OpClass.IALU, deps=[3, 1])
        assert record.deps == (3, 1)


class TestClassification:
    def test_branch_flags(self):
        record = TraceRecord(OpClass.BRANCH, taken=True, target=0x2000)
        assert record.is_branch and record.is_control
        assert not record.is_memory

    def test_jump_is_control_not_branch(self):
        record = TraceRecord(OpClass.JUMP, taken=True, target=0x2000)
        assert record.is_control and not record.is_branch

    def test_store_flags(self):
        record = TraceRecord(OpClass.STORE, mem_addr=8)
        assert record.is_store and not record.is_load


class TestAnnotations:
    def test_default_unannotated(self):
        record = TraceRecord(OpClass.BRANCH)
        assert record.mispredict is None
        assert record.il1_miss is None

    def test_annotated_flags(self):
        record = TraceRecord(
            OpClass.LOAD, mem_addr=8, dl1_miss=True, dl2_miss=False
        )
        assert record.dl1_miss is True
        assert record.dl2_miss is False


class TestEquality:
    def test_equal_records(self):
        a = TraceRecord(OpClass.IALU, pc=4, deps=(1,))
        b = TraceRecord(OpClass.IALU, pc=4, deps=(1,))
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_records(self):
        a = TraceRecord(OpClass.IALU, pc=4)
        b = TraceRecord(OpClass.IALU, pc=8)
        assert a != b

    def test_annotation_changes_equality(self):
        a = TraceRecord(OpClass.BRANCH, mispredict=True)
        b = TraceRecord(OpClass.BRANCH, mispredict=False)
        assert a != b

    def test_repr_mentions_misses(self):
        record = TraceRecord(OpClass.LOAD, mem_addr=8, dl2_miss=True)
        assert "DL2$" in repr(record)
