"""Array idioms shared by the builder, the estimator, the geometry, the
tails, the pressure engine and the plots, each written once.

The module imports nothing from the package, so every other module can
import it.  None of these functions calls ``np.unique``: its first call
imports ``numpy.ma``, about 14 ms in a fresh interpreter.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

#: numpy sums a float64 array pairwise, splitting n > 128 terms at n // 2
#: rounded down to a multiple of 8; segmented_sum splits a longer run the
#: same way, so its sum is the whole run's bit for bit while it forms at
#: most this many terms at a time (at least 128, where numpy stops splitting)
SUM_SEGMENT = 2**16


def ranges(starts, lens: np.ndarray) -> np.ndarray:
    """The runs starts[k] + [0, lens[k]) for every k, concatenated; starts
    may be one number for every run."""
    offset = np.cumsum(lens) - lens
    return np.arange(int(lens.sum())) + np.repeat(starts - offset, lens)


def run_starts(values: np.ndarray) -> np.ndarray:
    """The mask of the positions where a run of equal values starts."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def sort_groups(keys: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts entries by the key arrays, the first
    most significant, and the mask of the sorted positions where a group
    of equal keys starts."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    for key in keys:
        new |= run_starts(key[order])
    return order, new


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of 1-D floats, or np.unique(axis=0) of rows, without NaN:
    sorted, rows by their first column, then their second, with each value
    kept once.  Equal values are kept once whatever their bits, so which
    of 0.0 and -0.0 stays may differ from np.unique."""
    if values.ndim == 2:
        order, first = sort_groups((values[:, 0], values[:, 1]))
        return values[order[first]]
    values = np.sort(values)
    return values[run_starts(values)]


def chunks(sizes: np.ndarray, budget: int):
    """Ranges [a, b) of consecutive items whose sizes sum to at most
    budget, an item larger than budget alone."""
    total = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        base = int(total[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(total, base + budget, side="right")))
        yield a, b
        a = b


def segmented_sum(n: int, terms: Callable[[int, int], np.ndarray]) -> float:
    """np.sum(terms(0, n)) bit for bit, where terms(a, b) gives terms a to
    b - 1 as a float64 array, asked for at most SUM_SEGMENT at a time."""

    def total(a: int, count: int) -> float:
        if count <= SUM_SEGMENT:
            return float(np.sum(terms(a, a + count)))
        half = count // 2 - (count // 2) % 8
        return total(a, half) + total(a + half, count - half)

    return total(0, n)
