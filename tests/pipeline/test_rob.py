"""Unit tests for the reorder buffer."""

import pytest

from tests.pipeline.rob import ReorderBuffer



class TestROB:
    def test_dispatch_and_occupancy(self):
        rob = ReorderBuffer(4)
        rob.dispatch(0)
        rob.dispatch(1)
        assert len(rob) == 2
        assert not rob.is_full
        assert rob.head == 0

    def test_full_rejects_dispatch(self):
        rob = ReorderBuffer(2)
        rob.dispatch(0)
        rob.dispatch(1)
        assert rob.is_full
        with pytest.raises(RuntimeError):
            rob.dispatch(2)

    def test_out_of_order_dispatch_rejected(self):
        rob = ReorderBuffer(4)
        rob.dispatch(5)
        with pytest.raises(ValueError):
            rob.dispatch(3)

    def test_commit_requires_completion(self):
        rob = ReorderBuffer(4)
        rob.dispatch(0)
        assert not rob.head_completed()
        with pytest.raises(RuntimeError):
            rob.commit_head()

    def test_commit_in_order(self):
        rob = ReorderBuffer(4)
        rob.dispatch(0)
        rob.dispatch(1)
        rob.complete(1)  # younger completes first
        assert not rob.head_completed()
        rob.complete(0)
        assert rob.commit_head() == 0
        assert rob.commit_head() == 1
        assert rob.is_empty

    def test_peak_occupancy(self):
        rob = ReorderBuffer(8)
        for i in range(5):
            rob.dispatch(i)
        rob.complete(0)
        rob.commit_head()
        assert rob.peak_occupancy == 5

    def test_squash_younger_than(self):
        rob = ReorderBuffer(8)
        for i in range(6):
            rob.dispatch(i)
        rob.complete(5)
        squashed = rob.squash_younger_than(2)
        assert sorted(squashed) == [3, 4, 5]
        assert len(rob) == 3
        # squashed completion state is discarded
        rob.dispatch(6)
        assert not rob.head_completed()

    def test_squash_nothing_when_newest(self):
        rob = ReorderBuffer(4)
        rob.dispatch(0)
        assert rob.squash_younger_than(0) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)
