import pytest

from stats import nearest_rank, tail


@pytest.mark.parametrize("n, pct, beyond", [
    (20, 50, 10), (99, 50, 49), (100, 90, 10), (150, 90, 15), (199, 90, 19),
    (200, 95, 10), (999, 95, 49), (1000, 99, 10), (5000, 99, 50),
])
def test_tail_takes_the_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    value, got_pct, got_beyond = tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == float(n - beyond)
    assert sum(v > value for v in values) == beyond


def test_nearest_rank_of_a_small_sample():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == (2.0, 2)
    assert nearest_rank([5.0], 99) == (5.0, 0)
