"""Array queries of the tail rules against scalar reference loops.

The references below are the per-generation loops the cloud builder used
before it handled whole levels as arrays, the per-map loops the tail
brackets used before their tables came from the batch Moebius engine, or
scans that follow a query's definition; the array forms must agree with
them exactly.
"""

import math

import numpy as np
import pytest

from ifsdim.cifs import CifsSpec, renyi_parabolic_spec
from ifsdim.errors import ConfigurationError
from ifsdim.maps import ComplexGaussBranch
from ifsdim.mobius import CArray, Disc, Mobius, deriv_range_disc, deriv_range_interval, disc_image, interval_image
from ifsdim.jsonio import spec_from_dict
from ifsdim.series import power_tail_bounds
from ifsdim.spectra import fp_spectrum
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


def _first_reaching_scan(tail, xs):
    """Per x, the first generation g with envelope_reach(g) < x, by scanning g up from 0."""
    envs = [_envelope_reach_loop(tail, 0)]
    while envs[-1] >= min(xs):
        envs.append(_envelope_reach_loop(tail, len(envs)))
    return [next(g for g, e in enumerate(envs) if e < x) for x in xs]


def _generation_reaching_loop(tail, x):
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
    if isinstance(tail, SimilarityTail):
        want = _first_reaching_scan(tail, xs.tolist())
    else:
        want = [_generation_reaching_loop(tail, float(x)) for x in xs]
    g = tail.generation_reaching(xs)
    assert g.tolist() == want
    # the first generation whose envelope is within x
    assert np.all(tail.envelope_reach(g) < xs)
    assert np.all((g == 0) | (tail.envelope_reach(np.maximum(g - 1, 0)) >= xs))


def _first_below_scan(rule, thresholds, lowest):
    """Per threshold, the smallest index i >= lowest with rule.value(i) < t.

    One scalar pass over the indices, visiting the thresholds from the
    largest down, so each index is evaluated once.
    """
    first = {}
    i = lowest
    for t in sorted(set(thresholds), reverse=True):
        while rule.value(i) >= t:
            i += 1
        first[t] = i
    return [first[t] for t in thresholds]


@pytest.mark.parametrize("rule", [PowerRule(1.0, 1.0), PowerRule(1.0, 1.8), PowerRule(0.7, 3.6),
                                  GeometricRule(0.5, 0.7), GeometricRule(0.3, 0.6)], ids=repr)
def test_first_indices_below_match_scalar_scan(rule):
    # geometric values underflow after a few thousand indices
    lowest, count = (1, 20000) if isinstance(rule, PowerRule) else (0, 600)
    # the rule's own values, which the closed form misses by rounding,
    # the tops of the cells of a 1e-5 net, and values in between
    exact = [rule.value(i) for i in range(lowest, lowest + count)]
    tops = [k * 5e-6 for k in range(1, 20001)]
    rng = np.random.default_rng(3)
    between = (10.0 ** rng.uniform(math.log10(exact[-1]), math.log10(2.0 * exact[0]), 12000)).tolist()
    thresholds = exact + tops + between
    got = rule.first_indices_below(np.array(thresholds))
    assert got.tolist() == _first_below_scan(rule, thresholds, lowest)


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


def _shell_loop(norm):
    """Gaussian integers m + ni with m >= 1 and m^2 + n^2 = norm, sorted."""
    out = []
    m = 1
    while m * m <= norm:
        rest = norm - m * m
        n = math.isqrt(rest)
        if n * n == rest:
            out.append((m, n))
            if n > 0:
                out.append((m, -n))
        m += 1
    out.sort()
    return out


def _complex_psi1_loop(t, domain):
    """ComplexGaussTail.psi1_bounds as one scalar pass over the digits."""
    if t <= 1.0:
        return math.inf, math.inf
    head_limit = 40
    lo = hi = 0.0
    one = ComplexGaussBranch(1 + 0j).mobius()
    for norm in range(1, head_limit * head_limit + 1):
        for m, n in _shell_loop(norm):
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
    tail = ComplexGaussTail()
    for g in range(60):
        want = []
        for m, n in _shell_loop(g + 1):
            if (m, n) != (1, 0):
                want.append((m, n))
            want.append(("1b", m, n))
        assert [label for label, _ in tail.generation_maps(g)] == want


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
