import gc
import math
import weakref

import numpy as np
import pytest

from ifsdim import pressure, transfer
from ifsdim import (
    CifsSpec,
    ConfigurationError,
    DomainError,
    GaussBranch,
    Similarity,
    build_sharp_family,
    finiteness_parameter,
    hausdorff_dimension,
    psi,
    renyi_parabolic_spec,
    validate_cifs,
)
from ifsdim.tails import (
    ClusteredDigits,
    FullDigits,
    GaussDigitTail,
    GeometricRule,
    PowerRule,
    SimilarityTail,
    SpacedDigits,
)


def similarity_spec(ratios, offsets):
    return CifsSpec(1, (0.0, 1.0), tuple(
        (k, Similarity(r, o)) for k, (r, o) in enumerate(zip(ratios, offsets), start=1)
    ))


def gauss_spec(digits):
    return CifsSpec(1, (0.0, 1.0), tuple((b, GaussBranch(b)) for b in digits))


class TestPsi:
    def test_two_term_similarity_sum_is_exact(self):
        spec = similarity_spec([0.25, 0.25], [0.0, 0.75])
        prof = psi(spec, 0.5, 1)
        # sum of ratio^t = 2 * 0.25^0.5 = 1, so the log is zero
        assert prof.lower == pytest.approx(0.0, abs=1e-12)
        assert prof.upper == pytest.approx(0.0, abs=1e-12)

    def test_divergent_tail_reports_infinity(self):
        spec = CifsSpec(1, (0.0, 1.0), (),
                        SimilarityTail(PowerRule(1.8, 3.6), PowerRule(1.0, 1.8), start=2))
        prof = psi(spec, 0.2, 1)  # 3.6 * 0.2 < 1 diverges
        assert prof.divergent
        assert prof.upper == math.inf

    def test_gauss_bracket_contains_sup_sum(self):
        prof = psi(gauss_spec([2, 3]), 1.0, 1)
        # sup |S_b'| = b^-2, so the upper endpoint is log(1/4 + 1/9)
        assert prof.upper == pytest.approx(math.log(0.25 + 1.0 / 9.0), abs=1e-12)
        assert prof.lower <= math.log(0.25 + 1.0 / 9.0) <= prof.upper + 1e-12

    def test_tables_are_freed_with_their_spec(self):
        spec = gauss_spec([2, 3, 5])
        psi(spec, 0.5, 4)
        tables = weakref.ref(pressure._TABLES[spec])
        del spec
        gc.collect()
        assert tables() is None

    def test_bracket_nesting_with_depth(self):
        spec = gauss_spec([2, 3])
        t = 0.35
        shallow = psi(spec, t, 2)
        deep = psi(spec, t, 8)
        assert shallow.lower - 1e-12 <= deep.lower
        assert deep.upper <= shallow.upper + 1e-12

    def test_pressure_decreasing_in_t(self):
        spec = gauss_spec([2, 3, 5])
        profiles = [psi(spec, t, 4) for t in (0.2, 0.4, 0.6, 0.8)]
        uppers = [p.upper for p in profiles]
        lowers = [p.lower for p in profiles]
        assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_depth_two_evaluates_psi1_once(self, monkeypatch):
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(SpacedDigits(1.8)))
        calls = []
        psi1_bounds = GaussDigitTail.psi1_bounds

        def counted(self, t, domain):
            calls.append(t)
            return psi1_bounds(self, t, domain)

        monkeypatch.setattr(GaussDigitTail, "psi1_bounds", counted)
        prof = psi(spec, 0.8, 2)
        assert prof.depth == 2
        assert calls == [0.8]

    def test_rejects_bad_arguments(self):
        spec = gauss_spec([2, 3])
        with pytest.raises(DomainError):
            psi(spec, -1.0, 1)
        with pytest.raises(DomainError):
            psi(spec, 0.5, 0)


class TestHausdorffDimension:
    def test_quarter_ratios(self):
        result = hausdorff_dimension(similarity_spec([0.25, 0.25], [0.0, 0.75]), tol=1e-10)
        assert result.value == pytest.approx(0.5, abs=1e-10)
        assert result.method == "exact_similarity"

    def test_residual_within_machine_epsilon(self):
        ratios = np.array([0.3, 0.2, 0.15])
        spec = similarity_spec(ratios, [0.0, 0.4, 0.7])
        h = hausdorff_dimension(spec).value
        residual = abs(float(np.sum(ratios**h)) - 1.0)
        assert residual <= 10.0 * np.finfo(float).eps

    @pytest.mark.parametrize("ratios, h", [([0.5], 0.0), ([0.7, 0.7], 1.0)])
    def test_similarity_root_at_an_end_is_exact(self, ratios, h):
        result = hausdorff_dimension(similarity_spec(ratios, [0.0] * len(ratios)))
        assert (result.value, result.enclosure, result.converged) == (h, (h, h), True)

    def test_infinite_geometric_family(self):
        spec = CifsSpec(1, (0.0, 1.0), (),
                        SimilarityTail(GeometricRule(1.0, 0.25), GeometricRule(1.0, 0.25), start=1))
        result = hausdorff_dimension(spec, tol=1e-9)
        # closed form: 4^-t / (1 - 4^-t) = 1 at t = 1/2
        assert result.value == pytest.approx(0.5, abs=1e-9)

    def test_sharp_family_round_trip(self):
        spec = build_sharp_family(1.8, 2.8, 0.5)
        result = hausdorff_dimension(spec)
        assert result.value == pytest.approx(0.5, abs=1e-7)
        assert result.enclosure[0] <= 0.5 <= result.enclosure[1]

    def test_gauss_digits_enclosure_contains_reference(self):
        # digits {1, 2} via the recoded system; reference value from the
        # continued-fraction literature
        from ifsdim.jsonio import spec_from_dict

        spec = spec_from_dict({"kind": "gauss_digits", "digits": [1, 2]})
        result = hausdorff_dimension(spec)
        assert result.enclosure[0] <= 0.5312805063 <= result.enclosure[1]
        assert result.method == "transfer_operator"

    def test_enclosure_contains_value_and_theta_lower_bound(self):
        for spec in (
            gauss_spec([2, 3]),
            CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(SpacedDigits(1.8))),
            renyi_parabolic_spec([2, 3]),
        ):
            result = hausdorff_dimension(spec)
            lo, hi = result.enclosure
            assert lo <= result.value <= hi
            assert finiteness_parameter(spec) <= lo + 1e-9


# repr of (enclosure, method, converged), recorded before the word-sum
# brackets were merged into one engine; the finite real alphabets e12, e23
# and e2345 were re-recorded when the transfer operator took them over
GOLDEN_ENCLOSURES = {
    "e12": ("(0.5312805022772059, 0.5312805102772059)", "transfer_operator", True),
    "e23": ("(0.3374367768060639, 0.33743678480606387)", "transfer_operator", True),
    "e2345": ("(0.5596364461647768, 0.5596364541647768)", "transfer_operator", True),
    "renyi23": ("(0.7131587415678787, 0.8323387297969398)", "bracketed_conformal", False),
    "ctd-spaced": ("(0.4729186634750078, 0.48699581179689744)", "bracketed_conformal", False),
    "ctd-clustered": ("(0.706752728934734, 0.7522087056686129)", "bracketed_conformal", False),
    "dense-cf": ("(0.801677128633539, 0.8505938372636068)", "bracketed_conformal", False),
    "complex-finite": ("(0.6927908035684098, 0.7189642201126839)", "bracketed_conformal", False),
    "similarity": ("(0.7128683768732704, 0.7128683768732775)", "exact_similarity", True),
    # recorded before the complex tail's bracket table moved onto the batch engine
    "complex-full": ("(1.6820488827573086, 2.0)", "bracketed_conformal", False),
}

# repr of the word-sum enclosure of the finite real alphabets, bisected on
# psi's certified signs at depth D: what hausdorff_dimension returned for
# them before the transfer operator, and returns when it falls back
GOLDEN_WORD_SUM = {
    "e12": "(0.5241153654598955, 0.5423510403540267)",
    "e23": "(0.33240242707871864, 0.3409504656305189)",
    "e2345": "(0.5505920880755405, 0.5647332813773556)",
}


def golden_system(name):
    from ifsdim.jsonio import spec_from_dict

    docs = {
        "e12": {"kind": "gauss_digits", "digits": [1, 2]},
        "e23": {"kind": "gauss_digits", "digits": [2, 3]},
        "e2345": {"kind": "gauss_digits", "digits": [2, 3, 4, 5]},
        "renyi23": {"kind": "renyi_parabolic", "digits": [2, 3]},
        "complex-finite": {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]},
        "complex-full": {"kind": "complex_gauss", "digits": "full"},
    }
    tails = {
        "ctd-spaced": GaussDigitTail(SpacedDigits(1.8)),
        "ctd-clustered": GaussDigitTail(ClusteredDigits(0.5)),
        "dense-cf": GaussDigitTail(FullDigits(2)),
    }
    if name in docs:
        return spec_from_dict(docs[name])
    if name in tails:
        return CifsSpec(1, (0.0, 1.0), (), tails[name])
    return similarity_spec([0.3, 0.2, 0.15], [0.0, 0.4, 0.7])


@pytest.mark.parametrize("name", sorted(GOLDEN_ENCLOSURES))
def test_golden_enclosures(name):
    result = hausdorff_dimension(golden_system(name))
    enclosure = tuple(float(x) for x in result.enclosure)
    assert (repr(enclosure), result.method, result.converged) == GOLDEN_ENCLOSURES[name]


# ---------------------------------------------------------------------------
# the transfer operator on finite real alphabets

#: dim E{1,2}, Jenkinson and Pollicott
E12_DIMENSION = 0.5312805062772051


def word_sum_enclosure(spec):
    """The word-sum enclosure, bisected on psi's certified signs at depth D."""
    depth = pressure._tables(spec).depth
    _, hi = pressure._crossing(lambda t: psi(spec, t, depth).upper <= 0.0, 1e-12, 1.0)
    lo, _ = pressure._crossing(lambda t: psi(spec, t, depth).lower <= 0.0, 1e-12, 1.0)
    return min(lo, hi), hi


def finite_alphabet(name):
    from ifsdim.jsonio import spec_from_dict

    if name == "renyi35":
        # an explicit list of Moebius branches x -> (x + b - 2) / (x + b - 1)
        return renyi_parabolic_spec([3, 5])
    if name == "mixed":
        # an affine branch beside a Gauss branch, on a wider seed interval
        return CifsSpec(1, (-0.25, 1.0), ((1, Similarity(0.3, 0.0)), (2, GaussBranch(2))))
    digits = {"e12": [1, 2], "e23": [2, 3], "e2345": [2, 3, 4, 5], "e13": [1, 3], "e123": [1, 2, 3]}[name]
    return spec_from_dict({"kind": "gauss_digits", "digits": digits})


@pytest.mark.parametrize("name", sorted(GOLDEN_WORD_SUM))
def test_word_sum_enclosures_are_pinned(name):
    assert repr(word_sum_enclosure(finite_alphabet(name))) == GOLDEN_WORD_SUM[name]


@pytest.mark.parametrize("name", ["e12", "e23", "e2345", "e13", "e123", "renyi35", "mixed"])
def test_transfer_enclosure_is_tight_and_inside_the_word_sum(name):
    spec = finite_alphabet(name)
    result = hausdorff_dimension(spec)
    lo, hi = result.enclosure
    w_lo, w_hi = word_sum_enclosure(spec)
    assert result.method == "transfer_operator" and result.converged
    assert 0.0 < hi - lo <= 1e-8
    assert w_lo <= lo <= result.value <= hi <= w_hi


def test_e12_enclosure_contains_the_published_constant():
    lo, hi = hausdorff_dimension(finite_alphabet("e12")).enclosure
    assert lo <= E12_DIMENSION <= hi


def test_tolerance_below_the_width_clears_converged():
    result = hausdorff_dimension(finite_alphabet("e23"), tol=1e-9)
    assert result.method == "transfer_operator" and not result.converged


def test_failed_certificate_falls_back_on_the_word_sum(monkeypatch):
    # the coarse cells show p > 0, but no sign of L_t p - p fits in 100 cells
    monkeypatch.setattr(transfer, "CELL_CAP", 100)
    result = hausdorff_dimension(finite_alphabet("e12"))
    assert result.method == "bracketed_conformal" and not result.converged
    assert repr(tuple(float(x) for x in result.enclosure)) == GOLDEN_WORD_SUM["e12"]


def test_smaller_cell_budget_widens_the_enclosure(monkeypatch):
    monkeypatch.setattr(transfer, "CELL_CAP", 3000)
    result = hausdorff_dimension(finite_alphabet("e12"))
    lo, hi = result.enclosure
    assert result.method == "transfer_operator"
    assert 1e-8 < hi - lo <= 8 * 8e-9
    assert lo <= E12_DIMENSION <= hi


def test_branch_leaving_the_seed_interval_falls_back():
    # x -> 1 / (2 + x) maps [0, 0.4] onto [0.417, 0.5], outside it
    spec = CifsSpec(1, (0.0, 0.4), ((2, GaussBranch(2)), (3, GaussBranch(3))))
    assert hausdorff_dimension(spec).method == "bracketed_conformal"


@pytest.mark.parametrize("t", [0.3, 0.9])
def test_curvature_bounds_the_second_derivative(t):
    # a p that is no eigenvector, so that L_t p - p has no cancellation;
    # the second derivative by mpmath's numerical differentiation at 40 digits
    from mpmath import mp

    spec = finite_alphabet("mixed")
    lo, hi = spec.domain
    maps = spec.first_maps()
    coef = np.random.default_rng(3).normal(size=12) * 0.6 ** np.arange(12)
    coef[0] = 4.0
    cert = transfer._Certifier(maps, lo, hi, coef)
    edges = np.linspace(lo, hi, 9)
    bound = cert.curvature(edges[:-1], edges[1:], t)
    rows = list(zip(*(np.asarray(v, dtype=float) for v in (maps.a, maps.b, maps.c, maps.d))))

    def p(x):
        u = (2 * x - lo - hi) / (mp.mpf(hi) - lo)
        return sum(c * mp.chebyt(k, u) for k, c in enumerate(coef))

    def lp(x):
        total = mp.mpf(0)
        for a, b, c, d in rows:
            den = c * x + d
            total += (abs(a * d - b * c) / den**2) ** t * p((a * x + b) / den)
        return total

    own = cert.p_curvature(edges[:-1], edges[1:])
    with mp.workdps(40):
        for i, (left, right) in enumerate(zip(edges[:-1], edges[1:])):
            for x in map(mp.mpf, np.linspace(left, right, 4)):
                # the bound of the branch terms alone holds as well
                assert abs(mp.diff(p, x, 2)) <= own[i]
                assert abs(mp.diff(lp, x, 2)) <= bound[i] - own[i]
                assert abs(mp.diff(lambda y: lp(y) - p(y), x, 2)) <= bound[i]


class TestCertificateAgainstIntervalArithmetic:
    """The certified cells, sampled and checked again in mpmath.iv at 113 bits.

    On each sampled cell X of centre c, q = sign (L_t p - p) is enclosed by
    the mean-value form q(c) + q'(X) (X - c) on eight equal sub-cells, with
    p and p' on an interval from the Taylor expansion of p at its
    midpoint."""

    SAMPLES = 4
    PIECES = 8

    @pytest.fixture(autouse=True)
    def precision(self):
        from mpmath import iv

        old = iv.prec
        iv.prec = 113
        yield
        iv.prec = old

    @staticmethod
    def taylor_series(coef):
        """Derivative series d_j of sum_k coef_k T_k, j = 0..n-1, in iv."""
        from mpmath import iv

        series = [[iv.mpf(float(c)) for c in coef]]
        while len(series[-1]) > 1:
            a = series[-1]
            n = len(a) - 1
            out = [iv.mpf(0)] * (n + 2)
            for k in range(n, 0, -1):
                out[k - 1] = out[k + 1] + 2 * k * a[k]
            out[0] = out[0] / 2
            series.append(out[:n])
        return series

    @staticmethod
    def clenshaw(a, u):
        from mpmath import iv

        b1 = b2 = iv.mpf(0)
        for coef in a[:0:-1]:
            b1, b2 = 2 * u * b1 - b2 + coef, b1
        return u * b1 - b2 + a[0]

    def p_and_slope(self, series, u):
        """p and dp/du on the interval u, from the Taylor expansion at its midpoint."""
        from mpmath import iv

        centre = iv.mpf(u.mid)
        h = u - centre
        value, slope, factorial = iv.mpf(0), iv.mpf(0), 1
        for j, d in enumerate(series):
            tj = self.clenshaw(d, centre) / factorial
            value += tj * h**j
            if j:
                slope += j * tj * h ** (j - 1)
            factorial *= j + 1
        return value, slope

    def residual(self, spec, series, t, x):
        """(L_t p - p) and its derivative on the interval x, in iv."""
        from mpmath import iv

        lo, hi = spec.domain
        mid, scale = (iv.mpf(lo) + hi) / 2, 2 / (iv.mpf(hi) - lo)
        maps = spec.first_maps()
        value, slope = self.p_and_slope(series, (x - mid) * scale)
        value, slope = -value, -slope * scale
        for a, b, c, d in zip(*(np.asarray(v, dtype=float) for v in (maps.a, maps.b, maps.c, maps.d))):
            den = c * x + d
            det = iv.mpf(a) * d - iv.mpf(b) * c
            p0, p1 = self.p_and_slope(series, ((a * x + b) / den - mid) * scale)
            weight = (abs(det) / den**2) ** iv.mpf(t)
            value += weight * p0
            slope += weight * (t * (-2 * c / den) * p0 + det / den**2 * p1 * scale)
        return value, slope

    @pytest.mark.parametrize("name", ["e12", "e2345"])
    def test_sampled_cells_hold(self, name):
        from mpmath import iv

        spec = finite_alphabet(name)
        lo, hi = spec.domain
        maps = spec.first_maps()
        t_star, coef = transfer._collocated_root(maps, lo, hi)
        cert = transfer._Certifier(maps, lo, hi, coef)
        series = self.taylor_series(coef)
        rng = np.random.default_rng(7)
        for t, sign in ((t_star - transfer.ETA, 1.0), (t_star + transfer.ETA, -1.0)):
            left, right = transfer._certify(cert, t, sign)
            order = np.argsort(left)
            left, right = left[order], right[order]
            # the cells tile the seed interval
            assert left[0] == lo and right[-1] == hi
            assert np.all(right[:-1] == left[1:]) and np.all(left < right)
            for i in rng.choice(len(left), self.SAMPLES, replace=False):
                centre = 0.5 * (left[i] + right[i])
                # the float value and its error bound enclose the exact value
                q, dq = cert.residual(np.array([centre]), t)
                exact, exact_slope = self.residual(spec, series, t, iv.mpf(centre))
                assert q.v[0] - 2 * q.e[0] <= exact.a and exact.b <= q.v[0] + 2 * q.e[0]
                assert dq.v[0] - 2 * dq.e[0] <= exact_slope.a and exact_slope.b <= dq.v[0] + 2 * dq.e[0]
                cuts = np.linspace(left[i], right[i], self.PIECES + 1)
                for a, b in zip(cuts[:-1], cuts[1:]):
                    mid = iv.mpf(0.5 * (a + b))
                    cell = iv.mpf([a, b])
                    value = self.residual(spec, series, t, mid)[0]
                    slope = self.residual(spec, series, t, cell)[1]
                    enclosure = sign * (value + slope * (cell - mid))
                    assert enclosure.a > 0


def test_pole_inside_the_seed_interval_is_rejected():
    # 1/(1 + x) has its pole at -1, inside [-2, 1]; both endpoint
    # derivatives are finite, so only the sign change shows it
    spec = CifsSpec(1, (-2.0, 1.0), ((1, GaussBranch(1)), (2, GaussBranch(3))))
    assert not validate_cifs(spec).ok
    with pytest.raises(ConfigurationError, match="pole"):
        hausdorff_dimension(spec)


def test_pole_is_found_before_the_collocation(monkeypatch):
    # the collocation would divide by the denominator at its nodes
    def unreachable(*args):
        raise AssertionError("collocated a branch with a pole on the seed interval")

    monkeypatch.setattr(transfer, "_Collocation", unreachable)
    spec = CifsSpec(1, (-2.0, 1.0), ((1, GaussBranch(1)), (2, GaussBranch(3))))
    with pytest.raises(ConfigurationError, match="pole"):
        hausdorff_dimension(spec)


class TestFinitenessParameter:
    def test_polynomial_tail(self):
        spec = CifsSpec(1, (0.0, 1.0), (),
                        SimilarityTail(PowerRule(1.8, 3.6), PowerRule(1.0, 1.8), start=2))
        assert finiteness_parameter(spec) == pytest.approx(1.0 / 3.6)

    def test_clustered(self):
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(ClusteredDigits(0.5)))
        assert finiteness_parameter(spec) == pytest.approx(0.25)

    def test_finite_alphabet_is_zero(self):
        assert finiteness_parameter(gauss_spec([2, 3])) == 0.0

    def test_full_digit_set_is_half(self):
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(FullDigits(2)))
        assert finiteness_parameter(spec) == pytest.approx(0.5)


class TestBuildSharpFamily:
    def test_figure_parameters(self):
        spec = build_sharp_family(1.8, 2.8, 0.5)
        assert validate_cifs(spec).ok
        n = spec.meta["cutoff"]
        # cutoff is minimal: both inequalities hold at n, not at n - 1
        from ifsdim.series import power_sum_bounds

        def tail_hi(m):
            return 1.8**0.5 * power_sum_bounds(2.8 * 0.5, m + 1)[1]

        def head(m):
            j = np.arange(2, m + 1, dtype=float)
            return float(np.sum(((j - 1.0) ** -1.8 - j**-1.8) ** 0.5))

        assert tail_hi(n) < 1.0 and head(n) >= 1.0
        assert not (tail_hi(n - 1) < 1.0 and head(n - 1) >= 1.0)

    def test_boundary_tail_exponent_is_valid(self):
        spec = build_sharp_family(1.8, 3.8, 0.5)
        assert validate_cifs(spec).ok
        assert hausdorff_dimension(spec).value == pytest.approx(0.5, abs=1e-7)

    def test_dimension_equation_residual(self):
        spec = build_sharp_family(2.2, 3.4, 0.62)
        ratios = np.array([m.ratio for _, m in spec.explicit])
        from ifsdim.series import power_sum_bounds

        tail_lo, tail_hi = power_sum_bounds(3.4 * 0.62, spec.meta["cutoff"] + 1)
        total = float(np.sum(ratios**0.62)) + 2.2**0.62 * 0.5 * (tail_lo + tail_hi)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors_cite_condition(self):
        with pytest.raises(DomainError, match="t >= p \\+ 1"):
            build_sharp_family(1.8, 2.0, 0.5)
        with pytest.raises(DomainError, match="1/t"):
            build_sharp_family(1.8, 2.8, 0.3)
        with pytest.raises(DomainError):
            build_sharp_family(-1.0, 2.8, 0.5)

    def test_round_trip_small_grid(self):
        for p, dt, frac in ((1.2, 0.0, 0.5), (1.8, 0.8, 0.3), (2.6, 2.0, 0.8)):
            t = p + 1.0 + dt
            h = 1.0 / t + frac * (1.0 - 1.0 / t)
            spec = build_sharp_family(p, t, h)
            assert hausdorff_dimension(spec).value == pytest.approx(h, abs=1e-6)
