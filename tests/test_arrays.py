"""The shared array idioms against the numpy calls they stand in for."""

import numpy as np
import pytest

from ifsdim import arrays
from ifsdim.arrays import segmented_sum, sorted_distinct


@pytest.mark.parametrize("seed", range(4))
def test_sorted_distinct_rows_equal_numpy_unique(seed):
    # few distinct coordinates, so rows repeat and share their x; every
    # zero comes with either sign
    rng = np.random.default_rng(seed)
    values = np.array([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
    rows = rng.choice(values, (int(rng.integers(1, 400)), 2))
    got = sorted_distinct(rows)
    assert np.array_equal(got, np.unique(rows, axis=0))
    assert np.array_equal(sorted_distinct(rows[:, 0]), np.unique(rows[:, 0]))


@pytest.mark.parametrize("segment", [128, 1000, arrays.SUM_SEGMENT])
def test_segmented_sum_equals_one_numpy_sum(monkeypatch, segment):
    # lengths around the segment and around the splits of longer runs;
    # the terms span many binades, so a sum in another order would differ
    monkeypatch.setattr(arrays, "SUM_SEGMENT", segment)
    rng = np.random.default_rng(segment)
    terms = np.exp(rng.normal(0.0, 8.0, 5 * segment + 77))
    asked = []

    def part(a, b):
        asked.append(b - a)
        return terms[a:b] ** 0.75

    for n in (0, 1, 7, 129, segment - 1, segment, segment + 1, 2 * segment + 9, 5 * segment + 77):
        asked.clear()
        assert segmented_sum(n, part).hex() == float(np.sum(terms[:n] ** 0.75)).hex(), n
        assert max(asked) <= segment and sum(asked) == n
