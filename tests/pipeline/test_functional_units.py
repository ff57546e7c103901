"""Unit tests for functional-unit pools."""

import pytest

from repro.isa.opcodes import OpClass
from repro.pipeline.config import DEFAULT_FU_SPECS, FUSpec

from tests.pipeline.functional_units import FunctionalUnitPool, FunctionalUnits


class TestPool:
    def test_pipelined_unit_accepts_every_cycle(self):
        pool = FunctionalUnitPool(FUSpec(count=1, latency=3))
        assert pool.can_issue(0)
        done = pool.issue(0)
        assert done == 3
        assert pool.can_issue(1)  # pipelined: next op next cycle

    def test_unpipelined_unit_blocks(self):
        pool = FunctionalUnitPool(FUSpec(count=1, latency=4, issue_interval=4))
        pool.issue(0)
        assert not pool.can_issue(1)
        assert not pool.can_issue(3)
        assert pool.can_issue(4)

    def test_multiple_units(self):
        pool = FunctionalUnitPool(FUSpec(count=2, latency=10, issue_interval=10))
        pool.issue(0)
        assert pool.can_issue(0)  # second unit still free
        pool.issue(0)
        assert not pool.can_issue(5)

    def test_issue_without_capacity_raises(self):
        pool = FunctionalUnitPool(FUSpec(count=1, latency=2, issue_interval=2))
        pool.issue(0)
        with pytest.raises(RuntimeError):
            pool.issue(1)

    def test_completion_time(self):
        pool = FunctionalUnitPool(FUSpec(count=1, latency=7))
        assert pool.issue(5) == 12

    def test_issue_counting(self):
        pool = FunctionalUnitPool(FUSpec(count=4, latency=1))
        for i in range(5):
            pool.issue(i)
        assert pool.issued == 5


class TestFunctionalUnits:
    def test_all_classes_present(self):
        fus = FunctionalUnits(DEFAULT_FU_SPECS)
        for op_class in OpClass:
            assert fus.can_issue(op_class, 0)

    def test_latency_lookup(self):
        fus = FunctionalUnits(DEFAULT_FU_SPECS)
        assert fus.latency(OpClass.IMUL) == DEFAULT_FU_SPECS[OpClass.IMUL].latency

    def test_issue_counts_keys(self):
        fus = FunctionalUnits(DEFAULT_FU_SPECS)
        fus.issue(OpClass.IALU, 0)
        counts = fus.issue_counts()
        assert counts["ialu"] == 1
        assert counts["imul"] == 0
