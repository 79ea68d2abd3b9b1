"""Array queries of the tail rules against scalar reference loops.

The references below are the per-generation loops the cloud builder used
before it handled whole levels as arrays; the array forms must agree
with them exactly.
"""

import math

import numpy as np
import pytest

from ifsdim.cifs import renyi_parabolic_spec
from ifsdim.errors import ConfigurationError
from ifsdim.mobius import CArray, interval_image
from ifsdim.tails import (
    ClusteredDigits,
    ComplexGaussTail,
    FullDigits,
    GaussDigitTail,
    GeometricRule,
    PowerRule,
    SimilarityTail,
    SpacedDigits,
)

DIGIT_SETS = [SpacedDigits(1.8), SpacedDigits(1.0), SpacedDigits(3.7), ClusteredDigits(0.5),
              ClusteredDigits(0.13), ClusteredDigits(0.9), FullDigits(2), FullDigits(7)]

TAILS = [
    GaussDigitTail(SpacedDigits(1.8)),
    GaussDigitTail(ClusteredDigits(0.5)),
    GaussDigitTail(FullDigits(2)),
    SimilarityTail(PowerRule(1.0, 3.0), PowerRule(1.0, 1.8), start=2),
    SimilarityTail(GeometricRule(0.3, 0.6), GeometricRule(0.5, 0.7), start=1),
    ComplexGaussTail(),
    renyi_parabolic_spec([2, 3]).tail,
    renyi_parabolic_spec([2, 3, 5]).tail,
]


def _digit_loop(digits, g):
    if isinstance(digits, SpacedDigits):
        return math.floor((2 + g) ** digits.p)
    if isinstance(digits, FullDigits):
        return digits.start + g
    k, rest = 1, g
    while True:
        lo, hi = digits._block(k)
        if rest < hi - lo + 1:
            return lo + rest
        rest -= hi - lo + 1
        k += 1


def _first_digit_above_loop(digits, x):
    if isinstance(digits, SpacedDigits):
        n = max(2, math.ceil(max(x, 1.0) ** (1.0 / digits.p)) - 1)
        while math.floor(n**digits.p) <= x:
            n += 1
        return n - 2
    if isinstance(digits, ClusteredDigits):
        g, k = 0, 1
        while True:
            lo, hi = digits._block(k)
            if hi > x:
                return g + max(0, math.floor(min(x, hi)) + 1 - lo) if lo <= x else g
            g += hi - lo + 1
            k += 1
    return max(0, math.floor(x) + 1 - digits.start)


def _envelope_reach_loop(tail, g):
    if isinstance(tail, SimilarityTail):
        i = tail.start + g
        return tail.offsets.value(i) + tail.ratios.value(i)
    if isinstance(tail, GaussDigitTail):
        return 1.0 / _digit_loop(tail.digits, g)
    if isinstance(tail, ComplexGaussTail):
        return 1.0 / max(math.sqrt(g + 1) - 1.0, 1.0)
    lo, hi = interval_image(tail._power_matrix(g), tail.domain)
    return max(abs(float(lo)), abs(float(hi)))


def _generation_reaching_loop(tail, x):
    if isinstance(tail, SimilarityTail):
        i = int(tail.offsets.first_indices_below(np.array([x * 0.5]))[0])
        while _envelope_reach_loop(tail, max(i - tail.start, 0)) >= x:
            i += 1
        return max(i - tail.start, 0)
    if isinstance(tail, GaussDigitTail):
        return _first_digit_above_loop(tail.digits, 1.0 / x)
    if isinstance(tail, ComplexGaussTail):
        return max(0, math.ceil((1.0 / x + 1.0) ** 2) - 1)
    pm = tail.parabolic.mobius()
    kappa = abs(pm.c / pm.a)
    n = max(0, math.floor((1.0 / x - 1.0) / kappa) + 1)
    while _envelope_reach_loop(tail, n) >= x:
        n += 1
    return n


@pytest.mark.parametrize("digits", DIGIT_SETS, ids=repr)
def test_digit_lookups_match_scalar_loops(digits):
    gs = np.concatenate([np.arange(400), np.array([1000, 4096, 12345, 99999])])
    if isinstance(digits, ClusteredDigits):
        gs = gs[gs < digits._blocks[2][39]]  # digits below 2^40, where the loop's floats are exact
    want = [_digit_loop(digits, int(g)) for g in gs]
    assert digits.digits_at(gs).tolist() == want
    rng = np.random.default_rng(11)
    xs = np.concatenate([10.0 ** rng.uniform(-1, 7, 400), np.array(want[:200], dtype=float),
                         np.array(want[:200], dtype=float) - 0.5])
    assert digits.indices_above(xs).tolist() == [_first_digit_above_loop(digits, float(x)) for x in xs]


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__)
def test_generation_arrays_match_generation_maps(tail):
    gs = np.array([0, 1, 2, 3, 4, 5, 6, 7, 24, 63, 64, 99, 500])
    owner, maps = tail.generation_arrays(gs)
    want = [(k, m.mobius()) for k, g in enumerate(gs) for _, m in tail.generation_maps(int(g))]
    assert owner.tolist() == [k for k, _ in want]
    for name in "abcd":
        got = getattr(maps, name)
        entries = [getattr(m, name) for _, m in want]
        if isinstance(got, CArray):
            assert got.re.tolist() == [complex(v).real for v in entries]
            assert got.im.tolist() == [complex(v).imag for v in entries]
        else:
            assert got.tolist() == [float(v) for v in entries]


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__)
def test_envelope_and_reaching_match_scalar_loops(tail):
    gs = np.concatenate([np.arange(300), np.array([1000, 5000, 77777])])
    assert tail.envelope_reach(gs).tolist() == [_envelope_reach_loop(tail, int(g)) for g in gs]
    rng = np.random.default_rng(5)
    xs = 10.0 ** rng.uniform(-7, -0.5, 300)
    assert tail.generation_reaching(xs).tolist() == [_generation_reaching_loop(tail, float(x)) for x in xs]


def test_complex_tail_has_empty_generations():
    owner, _ = ComplexGaussTail().generation_arrays(np.arange(8))
    # Gaussian norms 3, 6 and 7 are no sums of two squares
    assert sorted(set(range(8)) - set(owner.tolist())) == [2, 5, 6]


def test_clustered_lookups_stop_at_the_table_end():
    digits = ClusteredDigits(0.13)
    with pytest.raises(ConfigurationError):
        digits.digits_at(np.array([10**6]))
    with pytest.raises(ConfigurationError):
        digits.indices_above(np.array([2.0**62]))


def test_thresholds_must_be_positive():
    with pytest.raises(ConfigurationError, match="positive"):
        GaussDigitTail(FullDigits(2)).generation_reaching(np.array([0.1, 0.0]))
