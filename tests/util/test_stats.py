"""Unit tests for statistics helpers."""

import math

import pytest

from repro.util.stats import (
    Histogram,
    OnlineStats,
    bucketize,
    percentile,
)


class TestOnlineStats:
    def test_mean_and_variance(self):
        stats = OnlineStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(32.0 / 7.0)

    def test_min_max(self):
        stats = OnlineStats()
        stats.extend([3.0, -1.0, 7.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0

    def test_single_value_no_variance(self):
        stats = OnlineStats()
        stats.add(5.0)
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_empty_mean_zero(self):
        assert OnlineStats().mean == 0.0

    def test_summary_keys(self):
        stats = OnlineStats()
        stats.add(1.0)
        assert set(stats.summary()) == {"count", "mean", "stddev", "min", "max"}


class TestHistogram:
    def test_add_and_count(self):
        hist = Histogram()
        hist.add(3)
        hist.add(3)
        hist.add(5)
        assert hist.count(3) == 2
        assert hist.count(5) == 1
        assert hist.count(99) == 0
        assert hist.total == 3

    def test_add_with_count(self):
        hist = Histogram()
        hist.add(2, count=10)
        assert hist.count(2) == 10

    def test_add_nonpositive_count_raises(self):
        with pytest.raises(ValueError):
            Histogram().add(1, count=0)

    def test_mean(self):
        hist = Histogram()
        hist.add(1, 2)
        hist.add(4, 2)
        assert hist.mean == pytest.approx(2.5)

    def test_mean_empty(self):
        assert Histogram().mean == 0.0

    def test_items_sorted(self):
        hist = Histogram()
        for v in (5, 1, 3):
            hist.add(v)
        assert [v for v, _ in hist.items()] == [1, 3, 5]

    def test_percentile(self):
        hist = Histogram()
        for v in range(1, 101):
            hist.add(v)
        assert hist.percentile(0.5) == 50
        assert hist.percentile(1.0) == 100
        assert hist.percentile(0.01) == 1

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0.5)

    def test_percentile_out_of_range_raises(self):
        hist = Histogram()
        hist.add(1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_single_element(self):
        assert percentile([7.0], 0.3) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestBucketize:
    def test_bucket_assignment(self):
        edges = (4, 8, 16)
        assert bucketize(0, edges) == 0
        assert bucketize(4, edges) == 0
        assert bucketize(5, edges) == 1
        assert bucketize(16, edges) == 2
        assert bucketize(17, edges) == 3

    def test_overflow_bucket(self):
        assert bucketize(1e9, (1, 2)) == 2

    def test_math_consistency(self):
        # every value lands in exactly one bucket
        edges = (10, 20, 30)
        for v in range(0, 50):
            b = bucketize(v, edges)
            assert 0 <= b <= len(edges)
            if b < len(edges):
                assert v <= edges[b]
            if b > 0:
                assert v > edges[b - 1]

    def test_float_edges(self):
        assert bucketize(0.5, (0.4, 0.9)) == 1
        assert math.isclose(0.4, 0.4) and bucketize(0.4, (0.4,)) == 0
