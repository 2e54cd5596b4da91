"""Nearest-rank percentiles and their refusal of an unsupported tail."""

import pytest

from perfbench.percentiles import InsufficientSamples, nearest_rank, quartile_spread


def test_nearest_rank_picks_the_smallest_sample_covering_q():
    samples = list(range(100, 0, -1))  # 1..100, in reverse order
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90
    assert nearest_rank(samples, 50.5) == 51


def test_percentile_needs_ten_samples_beyond_it():
    assert nearest_rank(range(200), 95) == 189  # rank 190: 10 beyond
    with pytest.raises(InsufficientSamples):
        nearest_rank(range(199), 95)  # rank 190: 9 beyond
    assert nearest_rank(range(20), 50) == 9
    with pytest.raises(InsufficientSamples):
        nearest_rank(range(19), 50)
    with pytest.raises(InsufficientSamples):
        nearest_rank([], 50)


def test_q_must_be_inside_the_open_interval():
    with pytest.raises(ValueError):
        nearest_rank(range(1000), 100)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10, 10, 10, 10]) == 0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)
