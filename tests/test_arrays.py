"""The shared array idioms against the numpy calls they stand in for."""

import numpy as np
import pytest

from ifsdim.arrays import sorted_distinct


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
