from fractions import Fraction

import numpy as np
import pytest

from ifsdim import (
    CifsSpec,
    ConfigurationError,
    GaussBranch,
    RenyiBranch,
    Similarity,
    Word,
    apply_word,
    build_sharp_family,
    cylinder_of,
    induce_parabolic,
    renyi_parabolic_spec,
    validate_cifs,
)
from ifsdim.families import make_family
from ifsdim.jsonio import spec_from_dict
from ifsdim.maps import ComplexGaussBranch, Composite
from ifsdim.mobius import CArray, Disc
from ifsdim.tails import GeometricRule, SimilarityTail


def two_map_spec(ratio=0.25, offsets=(0.0, 0.75)):
    return CifsSpec(1, (0.0, 1.0), tuple(
        (k, Similarity(ratio, o)) for k, o in enumerate(offsets, start=1)
    ))


def gauss_spec(digits):
    return CifsSpec(1, (0.0, 1.0), tuple((b, GaussBranch(b)) for b in digits))


class TestValidate:
    def test_sharp_family_passes_with_separation(self):
        spec = build_sharp_family(1.8, 3.6, 0.5)
        report = validate_cifs(spec)
        assert report.ok
        assert report.separation
        assert report.contraction_bound < 1.0

    def test_duplicate_maps_fail_osc(self):
        spec = CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.25, 0.0)), (2, Similarity(0.25, 0.0))))
        report = validate_cifs(spec)
        checks = {c.name: c.passed for c in report.checks}
        assert not checks["open_set_condition"]
        assert not report.ok

    def test_gauss_digits_2_3_pass(self):
        report = validate_cifs(gauss_spec([2, 3]))
        assert report.ok

    def test_non_contracting_map_is_axiom_failure_not_exception(self):
        # raw parabolic branch: derivative reaches 1 at the fixed point
        spec = CifsSpec(1, (0.0, 1.0), ((2, RenyiBranch(2)), (3, RenyiBranch(3))))
        report = validate_cifs(spec)
        checks = {c.name: c.passed for c in report.checks}
        assert not checks["uniform_contraction"]


class TestApplyWord:
    def test_similarity_word(self):
        spec = two_map_spec(ratio=0.5, offsets=(0.0, 0.5))
        assert apply_word(spec, Word((1, 1)), 1.0) == pytest.approx(0.25)

    def test_gauss_word_finite_continued_fraction(self):
        spec = gauss_spec([2, 3])
        # 1/(2 + 1/(3 + 0)) = 3/7
        assert apply_word(spec, Word((2, 3)), 0.0) == pytest.approx(float(Fraction(3, 7)), abs=1e-15)

    def test_empty_word_is_identity(self):
        spec = two_map_spec()
        assert apply_word(spec, Word(), 0.7) == 0.7

    def test_unresolvable_label(self):
        spec = two_map_spec()
        with pytest.raises(ConfigurationError):
            apply_word(spec, Word((99,)), 0.0)


class TestCylinders:
    def test_affine_image(self):
        spec = CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.25, 0.5)),))
        cyl = cylinder_of(spec, Word((1,)))
        assert cyl.region == pytest.approx((0.5, 0.75))
        assert cyl.diameter == pytest.approx(0.25)

    def test_gauss_digit_two(self):
        cyl = cylinder_of(gauss_spec([2, 3]), Word((2,)))
        assert cyl.region[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cyl.region[1] == pytest.approx(0.5, abs=1e-15)
        assert cyl.diameter == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_gauss_word_22(self):
        cyl = cylinder_of(gauss_spec([2, 3]), Word((2, 2)))
        assert cyl.region[0] == pytest.approx(float(Fraction(2, 5)), abs=1e-15)
        assert cyl.region[1] == pytest.approx(float(Fraction(3, 7)), abs=1e-15)

    def test_nesting_and_decay_on_sampled_words(self):
        spec = gauss_spec([2, 3, 5])
        rng = np.random.default_rng(7)
        report = validate_cifs(spec)
        for _ in range(50):
            labels = tuple(rng.choice([2, 3, 5]) for _ in range(int(rng.integers(1, 7))))
            w = Word(labels)
            cyl = cylinder_of(spec, w)
            parent = cylinder_of(spec, Word(labels[:-1]))
            assert parent.region[0] - 1e-12 <= cyl.region[0]
            assert cyl.region[1] <= parent.region[1] + 1e-12
            assert cyl.diameter <= report.contraction_bound ** len(w) * 1.0 + 1e-12


class TestInduceParabolic:
    def test_renyi_digit_two_gives_induced_family(self):
        spec = renyi_parabolic_spec([2, 3])
        assert spec.tail is not None
        report = validate_cifs(spec)
        assert report.ok

    def test_moebius_parabolic_iteration_closed_form(self):
        # x/(1+x) iterated n times is x/(1+n x)
        spec = induce_parabolic(1.0, RenyiBranch(2), [(3, RenyiBranch(3))])
        m = spec.tail._power_matrix(7)
        for x in (0.2, 0.5, 0.9):
            assert m(x) == pytest.approx(x / (1 + 7 * x), rel=1e-14)

    def test_missing_parabolic_branch_is_error(self):
        with pytest.raises(ConfigurationError):
            induce_parabolic(1.0, Similarity(0.5, 0.0), [(3, RenyiBranch(3))])

    def test_unsupported_exponent_is_error(self):
        with pytest.raises(ConfigurationError):
            induce_parabolic(2.0, RenyiBranch(2), [(3, RenyiBranch(3))])

    def test_induced_maps_compose_right_to_left(self):
        spec = renyi_parabolic_spec([2, 3])
        m = spec.resolve((2, 3))
        assert isinstance(m, Composite)
        x = 0.4
        s1 = RenyiBranch(2).mobius()
        s3 = RenyiBranch(3).mobius()
        assert m.mobius()(x) == pytest.approx(s1(s1(s3(x))), rel=1e-13)


def test_digest_is_stable_and_sensitive():
    a = two_map_spec()
    b = two_map_spec()
    c = two_map_spec(offsets=(0.0, 0.5))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_planar_cylinder_is_disc():
    from ifsdim import ComplexGaussBranch, Disc
    from ifsdim.mobius import Disc as MDisc

    spec = CifsSpec(2, MDisc(0.5 + 0j, 0.5),
                    (((2, 0), ComplexGaussBranch(2 + 0j)), ((2, 1), ComplexGaussBranch(2 + 1j))))
    cyl = cylinder_of(spec, Word(((2, 0), (2, 1))))
    assert isinstance(cyl.region, Disc)
    assert 0.0 < cyl.diameter < 0.2
    # child disc sits inside the parent disc
    parent = cylinder_of(spec, Word(((2, 0),)))
    assert parent.region.contains(cyl.region, slack=0.01)


# ---------------------------------------------------------------------------
# the first level as one batch


def _family_spec(name, **params):
    return lambda: make_family(name, params).spec


def _doc_spec(doc):
    return lambda: spec_from_dict(doc)


COMPLEX_FULL = {"kind": "complex_gauss", "digits": "full"}
COMPLEX_FINITE = {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}

# every tail kind, explicit branches before a tail, and explicit branches alone
FIRST_LEVEL_SPECS = {
    "similarity-power": _family_spec("sharp", p=1.8, t=3.6, h=0.5),
    "similarity-geometric": lambda: CifsSpec(1, (0.0, 1.0), ((0, Similarity(0.2, 0.75)),),
                                             SimilarityTail(GeometricRule(0.1, 0.5), GeometricRule(0.5, 0.5), 1)),
    "gauss-spaced": _family_spec("ctd-spaced"),
    "gauss-clustered": _family_spec("ctd-clustered"),
    "gauss-full": _family_spec("dense-cf"),
    "complex-full": _doc_spec(COMPLEX_FULL),
    "induced-parabolic": _family_spec("parabolic"),
    "explicit-line": lambda: gauss_spec([2, 3, 5]),
    "explicit-plane": _doc_spec(COMPLEX_FINITE),
}


def _bits(values, planar):
    if planar:
        values = CArray.of(values)
        return np.concatenate([values.re, values.im]).view(np.uint64).tolist()
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("sample", [0, 1, 7, 256])
@pytest.mark.parametrize("name", sorted(FIRST_LEVEL_SPECS))
def test_first_maps_match_first_level(name, sample):
    spec = FIRST_LEVEL_SPECS[name]()
    planar = spec.ambient_dim == 2
    want = [m.mobius() for _, m in spec.first_level(sample)]
    got = spec.first_maps(sample)
    for entry in "abcd":
        assert _bits(getattr(got, entry), planar) == _bits([getattr(m, entry) for m in want], planar)


# str(report), repr(contraction_bound) and separation, recorded while
# validate_cifs checked one branch at a time with scalar region functions
GOLDEN_REPORTS = {
    'sharp36': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.0706963\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1\n'
        '      contraction bound xi = 0.0706963\n'
        '      strong separation: yes',
        '0.07069633631361866', True),
    'sharp28': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.000313682\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1\n'
        '      contraction bound xi = 0.000313682\n'
        '      strong separation: no',
        '0.000313681566985777', False),
    'fp': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.288462\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1\n'
        '      contraction bound xi = 0.288462\n'
        '      strong separation: yes',
        '0.2884620335397674', True),
    'ctd-spaced': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.111111\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1.778\n'
        '      contraction bound xi = 0.111111\n'
        '      strong separation: yes',
        '0.1111111111111111', True),
    'dense-cf': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 2.25\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
    'ctd-clustered': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 2.25\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
    'parabolic': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 3.984\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: yes',
        '0.25', True),
    'complex-full': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.589197\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 3.124\n'
        '      contraction bound xi = 0.589197\n'
        '      strong separation: no',
        '0.5891972930813328', False),
    'complex-finite': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 2.25\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
    'e12': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 2.25\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
    'dup': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'FAIL  open_set_condition: overlapping pairs: [(1, 2)]\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
    'raw-parabolic': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        "FAIL  uniform_contraction: supremum of |S'| reaches 1\n"
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 4\n'
        '      contraction bound xi = 1\n'
        '      strong separation: no',
        '1.0', False),
    'outside': (
        'FAIL  containment: violating labels: [2]\n'
        'PASS  uniform_contraction: xi = 0.5\n'
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 1\n'
        '      contraction bound xi = 0.5\n'
        '      strong separation: yes',
        '0.5', True),
    'pole': (
        'FAIL  containment: violating labels: [1]\n'
        "FAIL  uniform_contraction: supremum of |S'| reaches 1\n"
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 16\n'
        '      contraction bound xi = 1\n'
        '      strong separation: no',
        '1.0', False),
    'complex-pole': (
        'FAIL  containment: violating labels: [(2, 0), (1, 0)]\n'
        "FAIL  uniform_contraction: supremum of |S'| reaches 4\n"
        'PASS  open_set_condition: sampled open images pairwise disjoint\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 49\n'
        '      contraction bound xi = 4\n'
        '      strong separation: no',
        '4.0', False),
    'complex-overlap': (
        'PASS  containment: all sampled branch images inside the seed domain\n'
        'PASS  uniform_contraction: xi = 0.25\n'
        'FAIL  open_set_condition: overlapping pairs: [((2, 0), (2, 0))]\n'
        'PASS  cone_condition: seed domain is convex\n'
        'PASS  bounded_distortion: level-1 spread <= 2.25\n'
        '      contraction bound xi = 0.25\n'
        '      strong separation: no',
        '0.25', False),
}


REPORT_SPECS = {
    "sharp36": _family_spec("sharp", p=1.8, t=3.6, h=0.5),
    "sharp28": _family_spec("sharp", p=1.8, t=2.8, h=0.5),
    "fp": _family_spec("fp"),
    "ctd-spaced": _family_spec("ctd-spaced"),
    "dense-cf": _family_spec("dense-cf"),
    "ctd-clustered": _family_spec("ctd-clustered"),
    "parabolic": _family_spec("parabolic"),
    "complex-full": _doc_spec(COMPLEX_FULL),
    "complex-finite": _doc_spec(COMPLEX_FINITE),
    "e12": _doc_spec({"kind": "gauss_digits", "digits": [1, 2]}),
    "dup": lambda: CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.25, 0.0)), (2, Similarity(0.25, 0.0)))),
    "raw-parabolic": lambda: CifsSpec(1, (0.0, 1.0), ((2, RenyiBranch(2)), (3, RenyiBranch(3)))),
    "outside": lambda: CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.5, 0.0)), (2, Similarity(0.5, 0.75)))),
    "pole": lambda: CifsSpec(1, (-2.0, 1.0), ((1, GaussBranch(1)), (2, GaussBranch(3)))),
    "complex-pole": lambda: CifsSpec(2, Disc(0j, 1.5), (((2, 0), ComplexGaussBranch(2 + 0j)),
                                                      ((1, 0), ComplexGaussBranch(1 + 0j)))),
    "complex-overlap": lambda: CifsSpec(2, Disc(0.5 + 0j, 0.5), (((2, 0), ComplexGaussBranch(2 + 0j)),
                                                                ((2, 1), ComplexGaussBranch(2 + 1j)),
                                                                ((2, 0), ComplexGaussBranch(2 + 0j)))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_validation_reports(name):
    report = validate_cifs(REPORT_SPECS[name]())
    assert (str(report), repr(report.contraction_bound), report.separation) == GOLDEN_REPORTS[name]


@pytest.mark.parametrize("name", ["complex-full", "complex-overlap", "complex-pole"])
def test_planar_reports_do_not_depend_on_the_pair_block(name, monkeypatch):
    from ifsdim import cifs

    monkeypatch.setattr(cifs, "_PAIR_BLOCK", 1)
    report = validate_cifs(REPORT_SPECS[name]())
    assert (str(report), repr(report.contraction_bound), report.separation) == GOLDEN_REPORTS[name]
