"""The percentile helpers read raw samples by the nearest-rank rule."""

import pytest

from samples import TAIL_BEYOND, median, percentile, tail


def test_nearest_rank_percentiles():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.2) == 1.0
    assert percentile(samples, 0.21) == 2.0
    assert percentile(samples, 1.0) == 5.0
    assert median(samples) == 3.0


def test_median_is_a_sample_not_an_interpolation():
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.0


def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]  # 1..200
    value, q = tail(samples)
    assert q == pytest.approx(0.95)
    assert value == 190.0
    assert sum(1 for s in samples if s > value) == TAIL_BEYOND


def test_tail_never_below_p90():
    samples = [float(i) for i in range(1, 21)]  # 1..20
    value, q = tail(samples)
    assert q == 0.9
    assert value == 18.0


def test_tail_reads_beyond_histogram_edges():
    # A bucketed p50 could read above the maximum; raw samples never do.
    samples = [80e-6, 85e-6, 90.6e-6]
    assert median(samples) <= max(samples)
    assert tail(samples)[0] == 90.6e-6


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_percentile_rejects_bad_q(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        tail([])
