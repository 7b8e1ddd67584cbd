"""Nearest-rank percentiles and the class-gap check."""

import math

import pytest

import stats
from stats import PercentileError, checked_percentile, nearest_rank


def test_nearest_rank_is_a_sample_never_an_interpolation():
    values = [10.0, 20.0, 30.0, 40.0]
    assert nearest_rank(values, 50) == 20.0
    assert nearest_rank(values, 51) == 30.0
    assert nearest_rank(values, 100) == 40.0
    assert nearest_rank(list(range(1, 101)), 90) == 90
    assert nearest_rank([5.0], 90) == 5.0


def test_nearest_rank_ignores_input_order():
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_p90_needs_ten_samples_beyond_it():
    dense = [1.0 + i / 1000 for i in range(100)]
    found = checked_percentile(dense, 90)
    assert found["samples"] == 100 and found["beyond"] == 10
    with pytest.raises(PercentileError, match="only 9 beyond"):
        checked_percentile(dense[:99], 90)


def test_percentile_on_a_class_gap_fails():
    # 85% of requests near 5 ms, 15% near 50 ms: p90 falls between.
    bimodal = [5.0 + i / 100 for i in range(85)] + [50.0 + i / 10 for i in range(15)]
    with pytest.raises(PercentileError, match="class gap"):
        checked_percentile(bimodal, 90)
    # The median sits inside the dense class and passes.
    assert checked_percentile(bimodal, 50)["value"] == pytest.approx(5.49)


def test_gap_window_is_five_percent_of_ranks_each_side():
    # Ranks 45 and 55 of 100 straddle a 1.6x step; 46..54 alone do not.
    values = [10.0] * 45 + [11.0] * 9 + [16.0] * 46
    found_low = nearest_rank(values, 45)
    found_high = nearest_rank(values, 55)
    assert (found_low, found_high) == (10.0, 16.0)
    with pytest.raises(PercentileError):
        checked_percentile(values, 50)


def test_geomean_of_medians_weighs_instances_alike():
    samples = {"small": [1.0, 1.0, 100.0], "large": [100.0, 100.0, 1.0]}
    assert stats.geomean_of_medians(samples) == pytest.approx(10.0)
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([0.0, 1.0])
    assert math.isclose(stats.median([3.0, 1.0, 2.0]), 2.0)
