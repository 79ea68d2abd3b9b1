"""Array idioms shared by the builder, the estimator, the geometry, the
tails and the plots, each written once.

The module imports nothing from the package, so every other module can
import it.  None of these functions calls ``np.unique``: its first call
imports ``numpy.ma``, about 14 ms in a fresh interpreter.
"""

from __future__ import annotations

import numpy as np


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
