import statistics

import pytest

from stats import describe, percentile, quartile_spread, top_percentile


def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == (90, 10)
    assert percentile(values, 99) == (99, 1)
    assert percentile(values, 50) == (50, 50)
    assert percentile([7.0], 50) == (7.0, 0)


def test_top_percentile_needs_ten_samples_beyond():
    assert top_percentile(list(range(1, 101))) == (90.0, 90)
    assert top_percentile(list(range(1, 1001))) == (99.0, 990)
    assert top_percentile(list(range(1, 21))) == (50.0, 10)
    assert top_percentile(list(range(1, 20))) is None


def test_quartile_spread_matches_statistics_quantiles():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    q1, _, q3 = statistics.quantiles([3.0, 1.0, 2.0, 5.0], n=4)
    assert quartile_spread([3.0, 1.0, 2.0, 5.0]) == pytest.approx((q3 - q1) / 2.5)
    assert quartile_spread([4.0] * 10) == 0.0


def test_describe_names_the_percentile_only_when_supported():
    assert describe([1.0, 2.0, 3.0], "s") == (
        "median 2 s, no percentile has 10 samples beyond it, n=3")
    assert describe([float(v) for v in range(1, 21)], "ms") == "median 10.5 ms, p50 10 ms, n=20"
