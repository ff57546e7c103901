import pytest

from stats import percentile, samples_beyond, tail_percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_rule_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(1000) == 99.0
    # One sample fewer leaves nine beyond p99, so p95 is the highest.
    assert samples_beyond(999, 99.0) == 9
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10_000) == 99.9
    assert samples_beyond(600, 95.0) == 30
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
