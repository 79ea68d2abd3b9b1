import gc
import math
import weakref

import numpy as np
import pytest

from ifsdim import pressure
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
    ComplexGaussTail,
    FullDigits,
    GaussDigitTail,
    GeometricRule,
    InducedParabolicTail,
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
        assert result.method == "bracketed_conformal"

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
# brackets were merged into one engine
GOLDEN_ENCLOSURES = {
    "e12": ("(0.5241153654598955, 0.5423510403540267)", "bracketed_conformal", False),
    "e23": ("(0.33240242707871864, 0.3409504656305189)", "bracketed_conformal", False),
    "e2345": ("(0.5505920880755405, 0.5647332813773556)", "bracketed_conformal", False),
    "renyi23": ("(0.7131587415678787, 0.8323387297969398)", "bracketed_conformal", False),
    "ctd-spaced": ("(0.4729186634750078, 0.48699581179689744)", "bracketed_conformal", False),
    "ctd-clustered": ("(0.706752728934734, 0.7522087056686129)", "bracketed_conformal", False),
    "dense-cf": ("(0.801677128633539, 0.8505938372636068)", "bracketed_conformal", False),
    "complex-finite": ("(0.6927908035684098, 0.7189642201126839)", "bracketed_conformal", False),
    "similarity": ("(0.7128683768732704, 0.7128683768732775)", "exact_similarity", True),
    # recorded before the complex tail's bracket table moved onto the batch engine
    "complex-full": ("(1.6820488827573086, 2.0)", "bracketed_conformal", False),
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


@pytest.mark.parametrize("name", ["renyi23", "dense-cf", "complex-full"])
def test_enclosures_read_the_tails_as_batches(name, monkeypatch):
    def refuse(self, g):
        raise AssertionError("the pressure head must come from generation_arrays")

    for cls in (SimilarityTail, GaussDigitTail, ComplexGaussTail, InducedParabolicTail):
        monkeypatch.setattr(cls, "generation_maps", refuse)
    result = hausdorff_dimension(golden_system(name))
    enclosure = tuple(float(x) for x in result.enclosure)
    assert (repr(enclosure), result.method, result.converged) == GOLDEN_ENCLOSURES[name]


def test_pole_inside_the_seed_interval_is_rejected():
    # 1/(1 + x) has its pole at -1, inside [-2, 1]; both endpoint
    # derivatives are finite, so only the sign change shows it
    spec = CifsSpec(1, (-2.0, 1.0), ((1, GaussBranch(1)), (2, GaussBranch(3))))
    assert not validate_cifs(spec).ok
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
