"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import math

import pytest

from sndbench import common


def test_nearest_rank_matches_the_definition():
    samples = list(range(1, 101))  # 1..100
    assert common.nearest_rank(samples, 50) == 50
    assert common.nearest_rank(samples, 99) == 99
    assert common.nearest_rank(samples, 100) == 100
    assert common.nearest_rank([7.0], 99) == 7.0
    # Order of the input does not matter; rank is ceil(q/100 * n).
    assert common.nearest_rank([5, 1, 4, 2, 3], 40) == 2
    assert common.nearest_rank([5, 1, 4, 2, 3], 41) == 3


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        common.nearest_rank([], 50)
    with pytest.raises(ValueError):
        common.nearest_rank([1, 2], 0)


@pytest.mark.parametrize(
    "n, beyond, valid",
    [(999, 9, False), (1000, 10, True), (1050, 10, True), (1100, 11, True), (48, 0, False)],
)
def test_p99_needs_ten_samples_beyond(n, beyond, valid):
    tail = common.tail([float(k) for k in range(n)], 99.0)
    assert tail["n"] == n
    assert tail["beyond"] == beyond
    assert tail["valid"] is valid
    assert tail["value"] == float(n - 1 - beyond)


def test_tail_of_an_empty_sample_is_invalid():
    tail = common.tail([], 99.0)
    assert tail["n"] == 0 and not tail["valid"] and math.isnan(tail["value"])


def test_jsonable_joins_tuple_keys_and_drops_non_finite():
    import numpy as np

    out = common.jsonable({("a", "b"): np.float64(1.5), "c": [float("inf"), np.int64(2)]})
    assert out == {"a.b": 1.5, "c": [None, 2]}
