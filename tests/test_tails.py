"""Array queries of the tail rules against scalar reference loops.

The references are the per-generation maps of ``scalar_oracle``, built
from the branch kinds; the per-generation loops the cloud builder used
before it handled whole levels as arrays; the per-map loops the tail
brackets used before their tables came from the batch Moebius engine;
or scans that follow a query's definition.  The array forms must agree
with them exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ifsdim.cifs import CifsSpec, renyi_parabolic_spec
from ifsdim.arrays import SUM_SEGMENT
from ifsdim.errors import ConfigurationError, DomainError
from ifsdim.jsonio import spec_from_dict
from ifsdim.maps import ComplexGaussBranch
from ifsdim.mobius import CArray, Disc, Mobius
from ifsdim.series import power_tail_bounds
from ifsdim.spectra import capped_spectrum, fp_spectrum
from ifsdim.tails import (
    ClusteredDigits,
    ComplexGaussTail,
    FullDigits,
    GaussDigitTail,
    GeometricRule,
    PowerRule,
    SimilarityTail,
    SpacedDigits,
    _induced_deriv_table,
    _power_sum,
    generation_reaching,
)
from scalar_oracle import (
    clustered_block_sums,
    clustered_capped,
    clustered_sup_sum_bounds,
    complex_capped,
    deriv_range_disc,
    deriv_range_interval,
    digit_loop,
    disc_image,
    fp_capped,
    generation_maps,
    interval_image,
    shell_loop,
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


# every digit set as a continued-fraction tail, for the reaching contract
REACHING_TAILS = TAILS + [GaussDigitTail(d) for d in DIGIT_SETS if GaussDigitTail(d) not in TAILS]


def _envelope_reach_loop(tail, g):
    if isinstance(tail, SimilarityTail):
        i = tail.start + g
        return tail.offsets.value(i) + tail.ratios.value(i)
    if isinstance(tail, GaussDigitTail):
        return 1.0 / digit_loop(tail.digits, g)
    if isinstance(tail, ComplexGaussTail):
        return 1.0 / max(math.sqrt(g + 1) - 1.0, 1.0)
    lo, hi = interval_image(tail._power_matrix(g), tail.domain)
    return max(abs(float(lo)), abs(float(hi)))


def _first_reaching_scan(tail, thresholds):
    """Per x, the first generation g with envelope_reach(g) < x.

    One scalar pass over the generations, visiting the thresholds from
    the largest down, so each generation is evaluated once.
    """
    first, g = {}, 0
    for x in sorted(set(thresholds), reverse=True):
        while _envelope_reach_loop(tail, g) >= x:
            g += 1
        first[x] = g
    return [first[x] for x in thresholds]


def _assert_reaching_contract(tail, xs):
    """generation_reaching gives the first generation whose envelope lies within x."""
    g = generation_reaching(tail, xs)
    assert g.dtype == np.int64 and np.all(g >= 0)
    assert np.all(tail.envelope_reach(g) < xs)
    assert np.all((g == 0) | (tail.envelope_reach(np.maximum(g - 1, 0)) >= xs))
    return g


class _GuessedTail:
    """A tail whose guesses are its answers moved by shift generations,
    and which counts its envelope calls."""

    def __init__(self, tail, xs, shift):
        self.tail, self.calls = tail, 0
        self.guesses = dict(zip(xs.tolist(), (generation_reaching(tail, xs) + shift).tolist()))

    def reaching_guess(self, xs):
        return np.array([self.guesses[x] for x in xs.tolist()])

    def envelope_reach(self, gs):
        self.calls += 1
        return self.tail.envelope_reach(gs)


@pytest.mark.parametrize("tail", REACHING_TAILS, ids=lambda t: type(t).__name__)
def test_reaching_from_guesses_off_by_a_few_generations(tail):
    rng = np.random.default_rng(9)
    xs = 10.0 ** rng.uniform(-6.0, 0.0, 200)
    want = generation_reaching(tail, xs)
    for shift in (0, 1, 3, -1, -3):
        guessed = _GuessedTail(tail, xs, shift)
        assert np.array_equal(generation_reaching(guessed, xs), want), shift
        # one call up and one down from an exact guess, and one more per
        # generation off, or fewer where generation 0 stops the walk down
        assert guessed.calls <= 2 + abs(shift) and (shift != 0 or guessed.calls == 2), shift


@pytest.mark.parametrize("digits", DIGIT_SETS, ids=repr)
def test_digit_lookups_match_scalar_loops(digits):
    gs = np.concatenate([np.arange(400), np.array([1000, 4096, 12345, 99999])])
    if isinstance(digits, ClusteredDigits):
        gs = gs[gs < digits._blocks[2][39]]  # digits below 2^40, where the loop's floats are exact
    assert digits.digits_at(gs).tolist() == [digit_loop(digits, int(g)) for g in gs]


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__)
def test_generation_arrays_match_generation_maps(tail):
    gs = np.array([0, 1, 2, 3, 4, 5, 6, 7, 24, 63, 64, 99, 500])
    owner, maps = tail.generation_arrays(gs)
    want = [(k, m.mobius()) for k, g in enumerate(gs) for m in generation_maps(tail, int(g))]
    assert owner.tolist() == [k for k, _ in want]
    for name in "abcd":
        got = getattr(maps, name)
        entries = [getattr(m, name) for _, m in want]
        if isinstance(got, CArray):
            assert got.re.tolist() == [complex(v).real for v in entries]
            assert got.im.tolist() == [complex(v).imag for v in entries]
        else:
            assert got.tolist() == [float(v) for v in entries]


@pytest.mark.parametrize("tail", REACHING_TAILS, ids=lambda t: type(t).__name__)
def test_envelope_and_reaching_match_scalar_loops(tail):
    gs = np.concatenate([np.arange(300), np.array([1000, 5000, 77777])])
    if isinstance(tail, GaussDigitTail) and isinstance(tail.digits, ClusteredDigits):
        gs = gs[gs < tail.digits._blocks[2][39]]  # digits below 2^40, where the loop's floats are exact
    assert tail.envelope_reach(gs).tolist() == [_envelope_reach_loop(tail, int(g)) for g in gs]
    # the thresholds the closed forms miss: 1/k and 1/k^2, multiples k * step
    # of netting steps (delta = 0.05 has the root step 0.025), the envelopes
    # themselves, each of these with its lower float neighbour, and random
    # values down to 1e-8; geometric envelopes underflow to 0, no threshold
    horizon = 2000
    k = np.arange(1.0, 5000.0)
    steps = np.outer([0.025, 0.01, 1e-3, 5e-6], np.arange(1.0, 401.0)).ravel()
    exact = np.concatenate([1.0 / k, 1.0 / k**2, steps, tail.envelope_reach(np.arange(horizon))])
    exact = exact[exact > 0.0]
    rng = np.random.default_rng(5)
    xs = np.concatenate([exact, np.nextafter(exact, 0.0), 10.0 ** rng.uniform(-8.0, 0.0, 40000)])
    g = _assert_reaching_contract(tail, xs)
    # where a scalar pass over the first generations reaches, it agrees
    near = xs > _envelope_reach_loop(tail, horizon)
    assert g[near].tolist() == _first_reaching_scan(tail, xs[near].tolist())


@pytest.mark.parametrize("rule", [PowerRule(1.0, 1.0), PowerRule(1.0, 1.8), PowerRule(0.7, 3.6),
                                  GeometricRule(0.5, 0.7), GeometricRule(0.3, 0.6)], ids=repr)
def test_similarity_reaching_matches_scalar_scan(rule):
    # the rule as the offsets of a similarity tail, whose envelope is
    # offset + ratio; geometric values underflow after a few thousand indices
    ratios = PowerRule(0.5, 3.0) if isinstance(rule, PowerRule) else GeometricRule(0.2, 0.5)
    tail = SimilarityTail(ratios, rule, start=1)
    count = 20000 if isinstance(rule, PowerRule) else 600
    # the offsets and envelopes themselves, which a closed form misses by
    # rounding, the tops of the cells of a 1e-5 net, and values in between
    offsets = [rule.value(i) for i in range(1, count + 1)]
    envelopes = tail.envelope_reach(np.arange(count)).tolist()
    tops = [k * 5e-6 for k in range(1, 20001)]
    rng = np.random.default_rng(3)
    between = (10.0 ** rng.uniform(math.log10(offsets[-1]), math.log10(2.0 * envelopes[0]), 12000)).tolist()
    thresholds = offsets + envelopes + tops + between
    g = _assert_reaching_contract(tail, np.array(thresholds))
    assert g.tolist() == _first_reaching_scan(tail, thresholds)


def test_complex_generation_arrays_memory_follows_output():
    # 2^16 generations hold 205 347 maps; the Gaussian integers tested on
    # their shells number about 11 million, which the enumeration must not
    # hold at once
    tracemalloc.start()
    try:
        owner, maps = ComplexGaussTail().generation_arrays(np.arange(2**16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [owner] + [part for z in (maps.a, maps.b, maps.c, maps.d) for part in (z.re, z.im)]
    output = sum(a.nbytes for a in {id(a): a for a in arrays}.values())
    assert len(owner) == 205347
    assert peak <= 2 * output


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.8])
def test_clustered_sums_in_segments_equal_whole_block_sums(alpha):
    # blocks past SUM_SEGMENT digits (k >= 20 at alpha 0.8) are summed in
    # segments split as numpy's pairwise summation splits them
    digits = ClusteredDigits(alpha)
    for s, shift in ((alpha + 0.05, 0), (alpha + 0.3, 1), (2.0, 1)):
        got = digits.sup_sum_bounds(s, shift)
        want = clustered_sup_sum_bounds(digits, s, shift)
        assert [x.hex() for x in got] == [x.hex() for x in want], (s, shift)
        # each block alone, where a last-bit slip would not hide in the total
        blocks = [digits._block(k) for k in range(1, digits.k_explicit + 1)]
        got = [_power_sum(lo + shift, hi - lo + 1, s).hex() for lo, hi in blocks]
        assert got == [x.hex() for x in clustered_block_sums(digits, s, shift)], (s, shift)


def test_clustered_sums_hold_one_segment_at_a_time():
    # at alpha 0.8 the block k = 28 holds about 5.5 million digits, which
    # a whole-block sum held at 16 bytes each: 88.6 MB traced
    digits = ClusteredDigits(0.8)
    tracemalloc.start()
    try:
        digits.sup_sum_bounds(1.1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * SUM_SEGMENT


def test_complex_tail_has_empty_generations():
    owner, _ = ComplexGaussTail().generation_arrays(np.arange(8))
    # Gaussian norms 3, 6 and 7 are no sums of two squares
    assert sorted(set(range(8)) - set(owner.tolist())) == [2, 5, 6]


def test_clustered_lookups_stop_at_the_table_end():
    digits = ClusteredDigits(0.13)
    with pytest.raises(ConfigurationError):
        digits.digits_at(np.array([10**6]))
    with pytest.raises(ConfigurationError, match="2\\^60"):
        generation_reaching(GaussDigitTail(digits), np.array([0.1, 2.0**-62]))


def test_spaced_digits_stop_at_int64():
    digits = SpacedDigits(9.0)
    assert digits.digits_at(np.array([100])).tolist() == [102**9]
    with pytest.raises(ConfigurationError, match="int64"):
        digits.digits_at(np.array([100, 191]))


@pytest.mark.parametrize("rule, args", [(SpacedDigits, (math.nan,)), (SpacedDigits, (math.inf,)),
                                        (PowerRule, (math.nan, 1.0)), (PowerRule, (1.0, math.inf)),
                                        (GeometricRule, (math.nan, 0.5)), (GeometricRule, (1.0, math.nan))])
def test_rule_parameters_must_be_finite(rule, args):
    with pytest.raises(ConfigurationError, match="finite"):
        rule(*args)


def test_thresholds_must_be_positive():
    with pytest.raises(ConfigurationError, match="positive"):
        generation_reaching(GaussDigitTail(FullDigits(2)), np.array([0.1, 0.0]))


# -- fixed-point spectra -----------------------------------------------------

SPECTRUM_THETAS = np.concatenate([np.linspace(0.0, 1.0, 1001), [1.0 - 1e-16, 0.5 + 1e-17]])


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__)
def test_fixed_point_spectrum_on_arrays_equals_scalars(tail):
    vals = tail.fixed_point_spectrum(SPECTRUM_THETAS)
    assert isinstance(vals, np.ndarray) and vals.shape == SPECTRUM_THETAS.shape
    scalars = [tail.fixed_point_spectrum(float(t)) for t in SPECTRUM_THETAS]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(vals, scalars)
    assert np.array_equal(tail.fixed_point_spectrum(SPECTRUM_THETAS[:, None]), vals[:, None])
    # non-decreasing from the upper box dimension at 0 to the quasi-Assouad value at 1
    assert np.all(np.diff(vals[:1001]) >= 0.0)


def test_fixed_point_spectrum_follows_each_rule():
    th = SPECTRUM_THETAS

    def capped(box, cap):
        with np.errstate(divide="ignore"):
            return np.minimum(box / (1.0 - th), cap)

    expected = [
        (GaussDigitTail(SpacedDigits(1.8)), fp_spectrum(1.8, th)),
        (GaussDigitTail(ClusteredDigits(0.5)), capped(0.25, 1.0)),
        (GaussDigitTail(FullDigits(7)), fp_spectrum(1.0, th)),
        (SimilarityTail(PowerRule(1.0, 3.0), PowerRule(0.5, 1.8), start=2), fp_spectrum(1.8, th)),
        (SimilarityTail(PowerRule(1.0, 3.0), GeometricRule(0.5, 0.7), start=2), np.zeros_like(th)),
        (ComplexGaussTail(), capped(1.0, 2.0)),
        (renyi_parabolic_spec([2, 3, 5]).tail, fp_spectrum(1.0, th)),
    ]
    for tail, want in expected:
        assert np.allclose(tail.fixed_point_spectrum(th), want, rtol=1e-15, atol=0.0), tail


def test_capped_spectra_keep_their_bits():
    th = SPECTRUM_THETAS
    for p in (0.3, 1.0, 1.8, 1e17):
        assert np.array_equal(capped_spectrum(1.0, 1.0 + p, 1.0, th), fp_capped(p, th))
        assert np.array_equal(fp_spectrum(p, th), fp_capped(p, th))
    for alpha in (0.1, 0.5, 0.9):
        assert np.array_equal(capped_spectrum(alpha, 2.0, 1.0, th), clustered_capped(alpha, th))
        assert np.array_equal(ClusteredDigits(alpha).fixed_point_spectrum(th), clustered_capped(alpha, th))
    assert np.array_equal(capped_spectrum(1.0, 1.0, 2.0, th), complex_capped(th))
    assert np.array_equal(ComplexGaussTail().fixed_point_spectrum(th), complex_capped(th))


@pytest.mark.parametrize("tail", TAILS, ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("theta", [math.nan, -0.5, -1e-300, math.nextafter(1.0, 2.0), 1.5, math.inf])
def test_fixed_point_spectrum_rejects_theta_outside_unit_interval(tail, theta):
    for bad in (theta, np.array([0.5, theta])):
        with pytest.raises(DomainError, match=r"theta must be in \[0,1\]"):
            tail.fixed_point_spectrum(bad)


@pytest.mark.parametrize("doc", [
    {"kind": "gauss_digits", "digits": [1, 2]},
    {"kind": "renyi_parabolic", "digits": [3, 4]},
    {"kind": "complex_gauss", "digits": [[2, 0], [3, 0]]},
    {"kind": "similarity_list", "maps": [{"ratio": 0.3, "offset": 0.0}, {"ratio": 0.3, "offset": 0.7}]},
], ids=lambda d: d["kind"])
def test_finite_spec_has_zero_fixed_point_spectrum(doc):
    spec = spec_from_dict(doc)
    assert spec.tail is None
    assert spec.fixed_point_spectrum(0.0) == 0.0 and type(spec.fixed_point_spectrum(0.5)) is float
    assert np.array_equal(spec.fixed_point_spectrum(SPECTRUM_THETAS), np.zeros_like(SPECTRUM_THETAS))


def test_spec_reads_its_tail_spectrum():
    for tail in TAILS:
        spec = CifsSpec(2 if isinstance(tail, ComplexGaussTail) else 1,
                        Disc(0.5 + 0j, 0.5) if isinstance(tail, ComplexGaussTail) else (0.0, 1.0), (), tail)
        assert np.array_equal(spec.fixed_point_spectrum(SPECTRUM_THETAS), tail.fixed_point_spectrum(SPECTRUM_THETAS))


# -- tail brackets against the per-map loops they replaced -------------------


def _complex_psi1_loop(t, domain):
    """ComplexGaussTail.psi1_bounds as one scalar pass over the digits."""
    if t <= 1.0:
        return math.inf, math.inf
    head_limit = 40
    lo = hi = 0.0
    one = ComplexGaussBranch(1 + 0j).mobius()
    for norm in range(1, head_limit * head_limit + 1):
        for m, n in shell_loop(norm):
            b = complex(m, n)
            u = abs(b + domain.center)
            sup_term = (u - domain.radius) ** (-2.0 * t)
            inf_term = (u + domain.radius) ** (-2.0 * t)
            if (m, n) != (1, 0):
                hi += sup_term
                lo += inf_term
            img = disc_image(ComplexGaussBranch(b).mobius(), domain)
            d1_lo, d1_hi = deriv_range_disc(one, img)
            hi += sup_term * d1_hi**t
            lo += inf_term * d1_lo**t
    _, thi = power_tail_bounds(2.0 * t - 1.0, head_limit - 1)
    hi += 2.0 * 1.06 * 18.0 * math.pi * thi
    return lo, hi


def _induced_table_loop(tail, domain):
    """_induced_deriv_table by composing P^n o S_j one matrix product at a time."""
    n_explicit = 512
    pm = tail.parabolic.mobius()
    kappa = abs(pm.c / pm.a)
    lo, hi, rem = [], [], []
    power = Mobius(1, 0, 0, 1)
    for _ in range(n_explicit):
        for _, branch in tail.branches:
            dl, dh = deriv_range_interval(power.compose(branch.mobius()), domain)
            lo.append(dl)
            hi.append(dh)
        power = pm.compose(power)
    for _, branch in tail.branches:
        x_lo = interval_image(branch.mobius(), domain)[0]
        rem.append(deriv_range_interval(branch.mobius(), domain)[1] / (kappa * x_lo) ** 2)
    return lo, hi, rem, n_explicit


def test_complex_generation_maps_follow_the_shells():
    # generation g owns the digits of norm g + 1 in sorted order: per digit
    # the plain branch (a = 0, d = b; none for digit 1), then S_1 o S_b
    # (a = 1, d = 1 + b)
    owner, maps = ComplexGaussTail().generation_arrays(np.arange(60))
    want = [(g, a, d) for g in range(60) for m, n in shell_loop(g + 1)
            for a, d in ((0.0, complex(m, n)), (1.0, complex(1 + m, n))) if (m, n, a) != (1, 0, 0.0)]
    got = zip(owner.tolist(), maps.a.re.tolist(), maps.d.to_complex().tolist())
    assert list(got) == want


@pytest.mark.parametrize("domain", [Disc(0.5 + 0j, 0.5), Disc(0.25 + 0.125j, 0.375)], ids=repr)
def test_complex_psi1_bounds_match_scalar_loop(domain):
    tail = ComplexGaussTail()
    for t in (0.7, 1.0, 1.0001, 1.05, 1.2, 1.5, 1.6821, 1.85, 1.99, 2.0, 3.7):
        assert repr(tail.psi1_bounds(t, domain)) == repr(_complex_psi1_loop(t, domain))


@pytest.mark.parametrize("digits", [[2, 3], [2, 3, 5]], ids=str)
def test_induced_table_and_psi1_bounds_match_scalar_loop(digits):
    spec = renyi_parabolic_spec(digits)
    tail = spec.tail
    lo, hi, rem, n_explicit = _induced_deriv_table(tail, spec.domain)
    want_lo, want_hi, want_rem, _ = _induced_table_loop(tail, spec.domain)
    assert (lo.tolist(), hi.tolist(), rem.tolist()) == (want_lo, want_hi, want_rem)
    for t in np.linspace(0.45, 0.6, 16).tolist() + [0.5, 0.51, 0.7131, 1.0]:
        want = (math.inf, math.inf)
        if 2.0 * t > 1.0:  # the induced sum converges above t = 1/2
            _, tail_hi = power_tail_bounds(2.0 * t, n_explicit)
            want = (float(np.sum(np.array(want_lo) ** t)),
                    float(np.sum(np.array(want_hi) ** t)) + float(np.sum(np.array(want_rem) ** t)) * tail_hi)
        assert repr(tail.psi1_bounds(t, spec.domain)) == repr(want)
