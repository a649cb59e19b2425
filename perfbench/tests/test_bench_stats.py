import pytest

from stats import MIN_BEYOND, digest, median, min_samples, percentile


def test_p99_needs_a_thousand_samples():
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 2 * MIN_BEYOND


def test_percentile_is_nearest_rank_with_ten_samples_beyond():
    samples = list(range(1000, 0, -1))  # order must not matter
    p99 = percentile(samples, 0.99)
    assert p99 == 990
    assert sum(s > p99 for s in samples) == MIN_BEYOND


def test_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="need at least 1000"):
        percentile(range(999), 0.99)
    assert percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)


def test_median_and_digest():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert digest([(1, 0.1)]) == digest([(1, 0.1)])
    assert digest([(1, 0.1)]) != digest([(1, 0.1 + 1e-17 + 2e-17)])
