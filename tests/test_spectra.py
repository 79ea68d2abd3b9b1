import itertools
import math

import numpy as np
import pytest

import scalar_oracle
from ifsdim import DomainError, spectra
from ifsdim.families import make_family
from ifsdim.spectra import (
    SpectrumCurve,
    backwards_cf_spectrum,
    complex_cf_spectrum,
    ctd_clustered_spectrum,
    ctd_spaced_spectrum,
    curve_from_formula,
    default_theta_grid,
    dense_cf_spectrum,
    f_value,
    fit_three_param,
    fp_spectrum,
    lower_bound_curve,
    parabolic_spectrum,
    phase_transition,
    sharp_family_spectrum,
    slope_discontinuities,
    upper_envelope,
)
from ifsdim.tails import ClusteredDigits

GRID = default_theta_grid()
COMPARE_GRID = np.linspace(0.05, 0.9, 64)  # compare's default theta grid


class TestWeightedAverage:
    def test_endpoint_phi_equals_theta(self):
        p_spec = lambda t: fp_spectrum(1.0, t)
        assert f_value(0.3, 0.3, p_spec, 0.8) == pytest.approx(p_spec(0.3), rel=1e-14)

    def test_endpoint_phi_one_gives_box_dimension(self):
        assert f_value(0.3, 1.0, lambda t: fp_spectrum(1.0, t), 0.8) == pytest.approx(0.8)

    def test_three_param_maximum_in_closed_form(self):
        # P with box 0.5, quasi-Assouad 1, transition 0.5; h = 0.6 between
        h, qa_p, rho_p = 0.6, 1.0, 0.5
        p_spec = lambda t: fp_spectrum(1.0, t)
        theta = 0.25
        direct = h + (1.0 - rho_p) * theta / ((1.0 - theta) * rho_p) * (qa_p - h)
        assert f_value(theta, rho_p, p_spec, h) == pytest.approx(direct, rel=1e-13)

    def test_domain_error_when_phi_below_theta(self):
        with pytest.raises(DomainError):
            f_value(0.5, 0.3, lambda t: 0.5, 0.5)


class TestEnvelopes:
    def test_constant_spectrum_gives_constant_envelope(self):
        curve = upper_envelope(GRID[::64], lambda t: 0.7, 0.7)
        assert np.allclose(curve.values, 0.7, atol=1e-12)

    def test_fp_maximisation_example(self):
        curve = upper_envelope([0.25], lambda t: fp_spectrum(1.0, t), 0.6)
        assert curve.values[0] == pytest.approx(0.6 + (0.5 * 0.25 / (0.75 * 0.5)) * 0.4, abs=1e-10)

    def test_past_transition_envelope_is_qa(self):
        curve = upper_envelope([0.7], lambda t: fp_spectrum(1.0, t), 0.6)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-10)

    def test_envelope_monotone(self):
        curve = upper_envelope(GRID[::16], lambda t: fp_spectrum(1.8, t), 0.5)
        assert np.all(np.diff(curve.values) >= -1e-10)

    def test_lower_bound_examples(self):
        assert lower_bound_curve([0.3], lambda t: 0.3, 0.5).values[0] == pytest.approx(0.5)
        val = lower_bound_curve([0.4], lambda t: fp_spectrum(1.0, t), 0.4).values[0]
        assert val == pytest.approx(1.0 / (2.0 * 0.6), rel=1e-12)

    def test_quasi_assouad_limit(self):
        # theta -> 1 recovers max{h, qa_P}
        for h in (0.3, 0.9):
            low = lower_bound_curve([1.0 - 1e-9], lambda t: fp_spectrum(1.0, t), h)
            assert low.values[0] == pytest.approx(max(h, 1.0), abs=1e-6)


# ---------------------------------------------------------------------------
# the scalar envelope search, one theta and one phi at a time: the reference
# that upper_envelope's array pass must reproduce bit for bit


def _f_scalar(theta, phi, spectrum_p, ubox_f):
    phi = min(max(phi, theta), 1.0)
    inv_theta = 1.0 / theta
    inv_phi = 1.0 / phi
    return ((inv_phi - 1.0) * float(spectrum_p(phi)) + (inv_theta - inv_phi) * ubox_f) / (inv_theta - 1.0)


def _maximise_f(theta, spectrum_p, ubox_f, phi_grid=512, phi_tol=1e-12):
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    phis = np.linspace(theta, 1.0, phi_grid)
    vals = [_f_scalar(theta, p, spectrum_p, ubox_f) for p in phis]
    k = int(np.argmax(vals))
    best = vals[k]
    a, b = phis[max(k - 1, 0)], phis[min(k + 1, phi_grid - 1)]
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc = _f_scalar(theta, c, spectrum_p, ubox_f)
    fd = _f_scalar(theta, d, spectrum_p, ubox_f)
    while b - a > phi_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = _f_scalar(theta, c, spectrum_p, ubox_f)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = _f_scalar(theta, d, spectrum_p, ubox_f)
    return max(best, fc, fd)


def _nan_spectrum():
    # a sampled curve with two NaN nodes, read by interpolation: NaN on
    # the grid steps next to them, the last node's value past its end
    th = np.linspace(0.05, 0.9, 16)
    vals = np.array([0.50, 0.52, np.nan, 0.55, 0.60, 0.58, 0.70, np.nan,
                     0.72, 0.80, 0.81, 0.83, 0.90, 0.88, 0.95, 0.97])
    return lambda phi: np.interp(phi, th, vals)


_FAMILY_NAMES = ("sharp", "fp", "ctd-spaced", "ctd-clustered", "dense-cf", "complex-cf", "parabolic")


@pytest.fixture(scope="module")
def family_inputs():
    """Every shipped family's fixed-point spectrum with compare's max(h_hi, spectrum(0))."""
    out = {}
    for name in _FAMILY_NAMES:
        fam = make_family(name)
        out[name] = (fam.fixed_point_spectrum, max(fam.dimension_enclosure()[1], fam.fixed_point_spectrum(0.0)))
    return out


def _basic_inputs():
    return {
        "fp1": (lambda t: fp_spectrum(1.0, t), 0.6),
        "fp1.8": (lambda t: fp_spectrum(1.8, t), 0.5),
        "constant": (lambda t: 0.7, 0.7),
        "nan-curve": (_nan_spectrum(), 0.6),
    }


def _assert_envelope_matches_scalar_search(thetas, spectrum_p, ubox_f, rows=slice(None)):
    got = upper_envelope(thetas, spectrum_p, ubox_f).values
    ref = np.array([_maximise_f(t, spectrum_p, ubox_f) for t in thetas[rows]])
    assert np.array_equal(got[rows], ref, equal_nan=True)
    low = lower_bound_curve(thetas, spectrum_p, 0.55).values
    ref_low = np.array([max(0.55, float(spectrum_p(t))) for t in thetas])
    assert np.array_equal(low, ref_low, equal_nan=True)


# compare's ubox term for every shipped family, as Family stored it in a
# field before the spectrum came from the system's tail
UBOX_P = [
    ("sharp", {}, 0.35714285714285715),
    ("sharp", {"p": 1.8, "t": 3.6, "h": 0.5}, 0.35714285714285715),
    ("fp", {}, 0.5),
    ("fp", {"p": 1.8}, 0.35714285714285715),
    ("ctd-spaced", {}, 0.35714285714285715),
    ("ctd-spaced", {"p": 2.5}, 0.2857142857142857),
    ("ctd-clustered", {}, 0.25),
    ("ctd-clustered", {"alpha": 0.3}, 0.15),
    ("dense-cf", {}, 0.5),
    ("complex-cf", {}, 1.0),
    ("parabolic", {}, 0.5),
    ("backwards-cf", {"digits": (2, 3, 5)}, 0.5),
]


@pytest.mark.parametrize("name,params,ubox_p", UBOX_P, ids=lambda v: str(v) if isinstance(v, dict) else None)
def test_spectrum_at_zero_is_the_stored_ubox(name, params, ubox_p):
    fam = make_family(name, params)
    assert fam.fixed_point_spectrum(0.0) == ubox_p
    if fam.spec is not None:
        assert fam.spec.fixed_point_spectrum(0.0) == ubox_p


class TestEnvelopeBitIdentity:
    @pytest.mark.parametrize("name", list(_basic_inputs()))
    def test_basic_inputs_on_compare_grid(self, name):
        _assert_envelope_matches_scalar_search(COMPARE_GRID, *_basic_inputs()[name])

    @pytest.mark.parametrize("name", _FAMILY_NAMES)
    def test_family_spectra_on_compare_grid(self, name, family_inputs):
        _assert_envelope_matches_scalar_search(COMPARE_GRID, *family_inputs[name])

    @pytest.mark.parametrize("name", list(_basic_inputs()))
    def test_basic_inputs_on_default_grid(self, name):
        # the envelope runs over all 1024 nodes at once, so brackets close
        # in different rounds; the scalar search is checked on every
        # 16th node, where its cost stays small
        _assert_envelope_matches_scalar_search(GRID, *_basic_inputs()[name], rows=slice(3, None, 16))

    def test_family_spectra_on_default_grid(self, family_inputs):
        for spectrum_p, ubox_f in family_inputs.values():
            _assert_envelope_matches_scalar_search(GRID, spectrum_p, ubox_f, rows=slice(5, None, 64))

    def test_row_blocks_equal_one_block(self, monkeypatch, family_inputs):
        # the phi grid in blocks of 7 theta rows, a part block last, against
        # the whole grid at once
        for spectrum_p, ubox_f in [*_basic_inputs().values(), *family_inputs.values()]:
            for thetas in (COMPARE_GRID, GRID):
                monkeypatch.setattr(spectra, "ENVELOPE_ROWS", len(thetas))
                whole = upper_envelope(thetas, spectrum_p, ubox_f).values
                monkeypatch.setattr(spectra, "ENVELOPE_ROWS", 7)
                blocks = upper_envelope(thetas, spectrum_p, ubox_f).values
                assert np.array_equal(blocks.view(np.int64), whole.view(np.int64))

    def test_nan_nodes_reach_the_envelope(self):
        # a NaN at the grid maximum stays, as Python's max keeps its first argument
        upper = upper_envelope(COMPARE_GRID, _nan_spectrum(), 0.6).values
        assert np.isnan(upper).any() and not np.isnan(upper).all()
        lower = lower_bound_curve(COMPARE_GRID, _nan_spectrum(), 0.55).values
        assert not np.isnan(lower).any()

    @pytest.mark.parametrize("spectrum_p", [
        lambda t: fp_spectrum(1.0, t),
        lambda t: fp_spectrum(1.8, t),
        pytest.param(make_family("ctd-clustered").fixed_point_spectrum, id="clustered_p"),
        pytest.param(make_family("complex-cf").fixed_point_spectrum, id="complex_p"),
        lambda t: ClusteredDigits(0.5).fixed_point_spectrum(t),
    ])
    def test_fixed_point_spectra_on_arrays_equal_scalars(self, spectrum_p):
        thetas = np.concatenate([np.linspace(0.0, 1.0, 1001), GRID, [1.0 - 1e-16, 1.0]])
        vals = spectrum_p(thetas)
        assert isinstance(vals, np.ndarray) and vals.shape == thetas.shape
        scalars = [spectrum_p(float(t)) for t in thetas]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(vals, scalars)
        assert np.array_equal(spectrum_p(thetas[:, None]), vals[:, None])

    def test_fp_spectrum_rejects_any_theta_outside_unit_interval(self):
        for bad in ([0.2, 1.5], [np.nan, 0.5], -0.1):
            with pytest.raises(DomainError):
                fp_spectrum(1.0, np.array(bad))


class TestClosedForms:
    def test_three_param_examples(self):
        # the fit's form: box 0.5, quasi-Assouad 1, transition 0.5, as fit_three_param reads it
        form = lambda t: spectra._one_transition(0.5, 1.0, 1.0 - 0.5, 0.5, 0.5, t)
        assert form(0.0) == pytest.approx(0.5)
        assert form(0.5) == pytest.approx(1.0)
        assert form(0.25) == pytest.approx(0.5 + (0.5 * 0.25 / (0.75 * 0.5)) * 0.5)

    def test_three_param_equal_endpoints(self):
        assert spectra._one_transition(0.4, 0.4, 0.0, 1.0, 1.0, 0.7) == 0.4

    def test_fp_spectrum_examples(self):
        assert fp_spectrum(1.0, 0.5) == 1.0
        assert fp_spectrum(1.8, 0.0) == pytest.approx(1.0 / 2.8)
        curve = curve_from_formula(lambda t: fp_spectrum(1.8, t))
        assert phase_transition(curve).theta == pytest.approx(1.8 / 2.8, abs=2e-3)

    def test_sharp_family_case_values(self):
        assert sharp_family_spectrum(1.8, 2.8, 0.5, 0.3) == pytest.approx(0.61904761904, abs=1e-10)
        k1 = (0.5 + 0.9 - 1.0) * 1.8 / (2.8 * (0.5 * 3.6 - 1.0))
        assert k1 == pytest.approx(0.3214285714, abs=1e-9)
        left = sharp_family_spectrum(1.8, 3.6, 0.5, k1)
        right = 1.0 / (2.8 * (1.0 - k1))
        assert left == pytest.approx(right, abs=1e-12)
        assert left == pytest.approx(0.52631578947, abs=1e-9)

    def test_sharp_family_constant_branch(self):
        # far tail regime: flat at h below the first transition
        kink = (0.5 + 0.9 - 1.0) / (0.5 * 2.8)
        assert sharp_family_spectrum(1.8, 3.9, 0.5, 0.2) == 0.5
        assert 0.2 <= kink

    def test_sharp_family_domain(self):
        with pytest.raises(DomainError):
            sharp_family_spectrum(1.8, 3.6, 0.3, 0.5)  # h below 1/(1+p)
        with pytest.raises(DomainError):
            sharp_family_spectrum(1.8, 2.0, 0.5, 0.5)  # t below p+1

    def test_spaced_equals_sharp_at_doubled_exponent(self):
        for p, h in ((1.8, 0.5), (1.3, 0.55), (2.4, 0.35)):
            a = np.array([ctd_spaced_spectrum(p, h, t) for t in GRID])
            b = np.array([sharp_family_spectrum(p, 2.0 * p, h, t) for t in GRID])
            assert np.array_equal(a, b)

    def test_spaced_third_branch_and_first_branch(self):
        assert ctd_spaced_spectrum(1.8, 0.5, 0.7) == 1.0  # theta past p/(1+p)
        assert ctd_spaced_spectrum(1.8, 0.5, 0.1) == pytest.approx(0.50617283950, abs=1e-10)

    def test_spaced_domain_endpoints_rejected(self):
        with pytest.raises(DomainError):
            ctd_spaced_spectrum(1.8, 1.0 / 1.8, 0.3)
        with pytest.raises(DomainError):
            ctd_spaced_spectrum(1.8, 1.0 / 2.8, 0.3)

    def test_clustered_examples(self):
        assert ctd_clustered_spectrum(0.5, 0.5, 0.25) == pytest.approx(0.55555555556, abs=1e-10)
        assert ctd_clustered_spectrum(0.5, 0.5, 0.0) == pytest.approx(0.5)
        rho = 1.0 - 0.5 / 2.0
        just_below = rho * (1.0 - 1e-13)
        assert ctd_clustered_spectrum(0.5, 0.5, just_below) == pytest.approx(1.0, abs=1e-12)

    def test_dense_cf(self):
        assert dense_cf_spectrum(0.6, 0.0) == pytest.approx(0.6)
        assert dense_cf_spectrum(0.6, 0.5) == 1.0
        assert dense_cf_spectrum(0.6, 0.25) == pytest.approx(0.73333333333, abs=1e-10)
        with pytest.raises(DomainError):
            dense_cf_spectrum(0.4, 0.3)

    def test_complex_cf(self):
        assert complex_cf_spectrum(1.8558, 0.25) == pytest.approx(1.90386666667, abs=1e-10)
        assert complex_cf_spectrum(1.8558, 0.5) == 2.0
        assert complex_cf_spectrum(1.8558, 1e-12) == pytest.approx(1.8558, abs=1e-10)

    def test_parabolic(self):
        q = 2.0
        rho = 1.0 / (1.0 + q)
        assert parabolic_spectrum(q, 0.5, rho * (1 - 1e-13)) == pytest.approx(1.0, abs=1e-12)
        assert parabolic_spectrum(2.0, 0.5, 0.2) == pytest.approx(0.75)
        for t in GRID[::64]:
            assert parabolic_spectrum(1.0, 0.5, t) == backwards_cf_spectrum(0.5, t)
            assert parabolic_spectrum(1.0, 0.6, t) == pytest.approx(dense_cf_spectrum(0.6, t), abs=1e-12)

    def test_fp_limit_matches_sharp_qa(self):
        # each tail regime tends to 1 as theta -> 1
        for t in (2.8, 3.6, 3.9):
            assert sharp_family_spectrum(1.8, t, 0.5, 0.999999) == 1.0


def _ulps(x: float, n: int = 3) -> list[float]:
    """x and its n nearest floats on either side."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


def _outcome(fn, *args):
    """The float returned, bit for bit and with its type, or the exception raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("value", type(value), float(value).hex())


#: theta nodes every form is read at: both ends, a uniform grid, points
#: outside [0, 1] and NaN; each case adds its kinks and rho with their
#: neighbouring floats
_THETAS = [0.0, -0.0, 1.0, *np.linspace(0.0, 1.0, 41)[1:-1], GRID[0], GRID[-1],
           -1e-300, math.nextafter(1.0, 2.0), -0.5, 1.5, math.nan, math.inf]


def _sharp_cases():
    # at p = 1e17, p/(1+p) rounds to 1
    for p in (0.5, 1.0, 1.8, 3.0, 1e17, 0.0, -1.0, math.nan):
        lo = 1.0 / (1.0 + p) if p > 0 else 0.5
        for h in (*_ulps(lo, 1), 0.5, 0.6, 0.9, math.nextafter(1.0, 0.0), 1.0):
            for t in (p + 1.0, p + 1.0 - 1e-13, p + 1.0 - 1e-11, 2.0 * p, *_ulps(p + 1.0 / h, 2), 3.6, 10.0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    p_, t_ = np.float64(p), np.float64(t)
                    kinks = [p_ / (1.0 + p_), (h + h * p_ - 1.0) / (h * (1.0 + p_)),
                             (h + h * p_ - 1.0) * p_ / ((1.0 + p_) * (h * t_ - 1.0))]
                yield (p, t, h), [float(k) for k in kinks]


def _spaced_cases():
    for p in (1.3, 1.8, 2.4, 3.0, 5.0, 1.0, 0.5):
        # within a few ulps below 1/p, p + 1/h can round down to 2p
        for h in (*_ulps(1.0 / (p + 1.0)), 0.5 * (1.0 / (p + 1.0) + 1.0 / p), *_ulps(1.0 / p, 40)):
            kinks = [p / (1.0 + p)]
            if 2.0 * p * h != 1.0:
                kinks.append((h + h * p - 1.0) * p / ((1.0 + p) * (2.0 * p * h - 1.0)))
            yield (p, h), kinks


def _clustered_cases():
    for alpha in (0.25, 0.5, 0.75, 0.0, 1.0, math.nan):
        for h in (*_ulps(alpha / 2.0, 1), 0.5, 0.9, 1.0):
            yield (alpha, h), [1.0 - alpha / 2.0]


def _dense_cases():
    for h in (*_ulps(0.5, 1), 0.6, 0.99, 1.0, math.nan):
        yield (h,), [0.5]


def _complex_cases():
    for h in (*_ulps(1.0, 1), 1.5, 1.8558, *_ulps(2.0, 1), math.nan):
        yield (h,), [0.5]


def _parabolic_cases():
    for q in (0.5, 1.0, 2.0, 3.0, 0.0, -1.0):
        for h in (0.0, 1e-300, 0.3, 0.5, 0.9, math.nextafter(1.0, 0.0), 1.0, math.nan):
            yield (q, h), [1.0 / (1.0 + q)] if q != -1.0 else []


_CLOSED_FORMS = {
    "sharp_family_spectrum": (sharp_family_spectrum, _sharp_cases),
    "ctd_spaced_spectrum": (ctd_spaced_spectrum, _spaced_cases),
    "ctd_clustered_spectrum": (ctd_clustered_spectrum, _clustered_cases),
    "dense_cf_spectrum": (dense_cf_spectrum, _dense_cases),
    "complex_cf_spectrum": (complex_cf_spectrum, _complex_cases),
    "parabolic_spectrum": (parabolic_spectrum, _parabolic_cases),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_closed_forms_match_the_per_family_oracle_bit_for_bit(name):
    form, cases = _CLOSED_FORMS[name]
    reference = getattr(scalar_oracle, name)
    calls = 0
    for params, specials in cases():
        extra = itertools.chain.from_iterable(_ulps(x, 2) for x in specials if math.isfinite(x))
        for theta in (*_THETAS, *extra):
            assert _outcome(form, *params, theta) == _outcome(reference, *params, theta), (params, theta)
            calls += 1
    assert calls > 300


class TestCurveDiagnostics:
    def test_formula_curves_monotone_and_continuous(self):
        for fn in (
            lambda t: sharp_family_spectrum(1.8, 2.8, 0.5, t),
            lambda t: sharp_family_spectrum(1.8, 3.6, 0.5, t),
            lambda t: ctd_clustered_spectrum(0.5, 0.6, t),
            lambda t: dense_cf_spectrum(0.7, t),
        ):
            curve = curve_from_formula(fn)
            diffs = np.diff(curve.values)
            assert np.all(diffs >= -1e-12)
            # no jump above the Lipschitz estimate times the grid step
            step = np.diff(curve.thetas)
            slopes = diffs / step
            assert np.max(slopes) < 50.0

    def test_phase_transition_constant_curve(self):
        curve = SpectrumCurve(GRID, np.full(len(GRID), 0.4), "formula")
        assert phase_transition(curve).theta == 0.0

    def test_phase_transition_two_kink_curve_returns_second(self):
        curve = curve_from_formula(lambda t: sharp_family_spectrum(1.8, 3.6, 0.5, t))
        pt = phase_transition(curve)
        assert pt.theta == pytest.approx(1.8 / 2.8, abs=2e-3)
        assert not pt.ambiguous
        kinks = slope_discontinuities(curve)
        assert len(kinks) == 2
        assert kinks[0] == pytest.approx(0.32142857142, abs=1e-3)
        assert kinks[1] == pytest.approx(0.64285714285, abs=1e-3)

    def test_non_monotone_curve_flagged(self):
        vals = np.where(GRID < 0.5, 0.5 + 0.2 * np.sin(GRID * 40) * 0.1, 0.9)
        curve = SpectrumCurve(GRID, vals, "estimate")
        assert phase_transition(curve).ambiguous

    def test_three_param_fit_succeeds_case_one(self):
        curve = curve_from_formula(lambda t: sharp_family_spectrum(1.8, 2.8, 0.5, t))
        fit = fit_three_param(curve)
        assert fit.ok
        assert fit.max_deviation <= 1e-3

    def test_three_param_fit_fails_case_two(self):
        curve = curve_from_formula(lambda t: sharp_family_spectrum(1.8, 3.6, 0.5, t))
        fit = fit_three_param(curve)
        assert not fit.ok
        assert fit.max_deviation > 1e-3

    def test_three_param_fit_fails_case_three(self):
        curve = curve_from_formula(lambda t: sharp_family_spectrum(1.8, 3.9, 0.5, t))
        assert not fit_three_param(curve).ok

    def test_acceptance_fits_keep_their_values(self):
        # criterion 5's two fits, recorded with the fit's own copy of the form
        # that the one-transition form replaced
        pinned = {2.8: "(0.6428411029478052, 3.4791548090495894e-05, True)",
                  3.6: "(0.683533748766467, 0.08319920410472015, False)"}
        for t, want in pinned.items():
            fit = fit_three_param(curve_from_formula(lambda th: sharp_family_spectrum(1.8, t, 0.5, th)))
            assert repr((fit.rho, fit.max_deviation, fit.ok)) == want
            assert all(type(x) is float for x in (fit.ubox, fit.qa, fit.rho))

    def test_three_param_fit_needs_rho_to_scan(self):
        # a box value of 0 against qa = 1 puts every phase transition above
        # the scanned range
        curve = SpectrumCurve(np.array([0.2, 0.4, 0.6, 0.8]), np.array([0.0, 0.0, 0.5, 1.0]), "estimate")
        with pytest.raises(DomainError, match="phase transitions"):
            fit_three_param(curve)

    @pytest.mark.parametrize("node", [0, 1, 3])
    def test_three_param_fit_refuses_nan_at_the_nodes_it_reads(self, node):
        # the box value comes from nodes 0 and 1 and qa from the last: a NaN
        # there raised the scan-range message (0, 1) or fitted rho = nan (3)
        vals = np.array([0.5, 0.6, 0.8, 1.0])
        vals[node] = np.nan
        curve = SpectrumCurve(np.array([0.2, 0.4, 0.6, 0.8]), vals, "estimate")
        with pytest.raises(DomainError, match=f"node {node} \\(theta = 0.{2 * node + 2}\\), which is NaN"):
            fit_three_param(curve)

    def test_three_param_fit_passes_over_an_interior_nan(self):
        curve = SpectrumCurve(np.array([0.2, 0.4, 0.6, 0.8]), np.array([0.5, 0.6, np.nan, 1.0]), "estimate")
        fit = fit_three_param(curve)
        assert math.isfinite(fit.rho) and math.isfinite(fit.max_deviation)

    @pytest.mark.parametrize("diagnostic", [slope_discontinuities, fit_three_param])
    def test_diagnostics_need_two_nodes(self, diagnostic):
        curve = SpectrumCurve(np.array([0.5]), np.array([0.7]), "estimate")
        with pytest.raises(DomainError, match="at least two nodes"):
            diagnostic(curve)


class TestSandwich:
    @pytest.mark.parametrize(
        "formula,p_spec,h,ubox_p",
        [
            (lambda t: sharp_family_spectrum(1.8, 2.8, 0.5, t), lambda t: fp_spectrum(1.8, t), 0.5, 1 / 2.8),
            (lambda t: sharp_family_spectrum(1.8, 3.6, 0.5, t), lambda t: fp_spectrum(1.8, t), 0.5, 1 / 2.8),
            (lambda t: sharp_family_spectrum(1.8, 3.9, 0.5, t), lambda t: fp_spectrum(1.8, t), 0.5, 1 / 2.8),
            (lambda t: ctd_spaced_spectrum(1.8, 0.5, t), lambda t: fp_spectrum(1.8, t), 0.5, 1 / 2.8),
            (lambda t: ctd_clustered_spectrum(0.5, 0.6, t),
             lambda t: ClusteredDigits(0.5).fixed_point_spectrum(t), 0.6, 0.25),
            (lambda t: dense_cf_spectrum(0.7, t), lambda t: fp_spectrum(1.0, t), 0.7, 0.5),
            (lambda t: backwards_cf_spectrum(0.75, t), lambda t: fp_spectrum(1.0, t), 0.75, 0.5),
        ],
    )
    def test_formula_between_bounds(self, formula, p_spec, h, ubox_p):
        grid = GRID[::8]
        lower = lower_bound_curve(grid, p_spec, h)
        upper = upper_envelope(grid, p_spec, max(h, ubox_p))
        vals = np.array([formula(t) for t in grid])
        assert np.all(lower.values <= upper.values + 1e-9)
        assert np.all(vals >= lower.values - 1e-10)
        assert np.all(vals <= upper.values + 1e-10)

    def test_case_one_attains_upper_bound(self):
        grid = GRID[::8]
        upper = upper_envelope(grid, lambda t: fp_spectrum(1.8, t), 0.5)
        vals = np.array([sharp_family_spectrum(1.8, 2.8, 0.5, t) for t in grid])
        assert np.max(np.abs(vals - upper.values)) <= 1e-10

    def test_case_three_attains_lower_bound(self):
        grid = GRID[::8]
        lower = lower_bound_curve(grid, lambda t: fp_spectrum(1.8, t), 0.5)
        vals = np.array([sharp_family_spectrum(1.8, 3.9, 0.5, t) for t in grid])
        assert np.max(np.abs(vals - lower.values)) <= 1e-10

    def test_phase_transition_inherits_from_fixed_points(self):
        # when h is below the quasi-Assouad value of the fixed points the
        # envelope's transition matches the fixed-point transition
        grid = GRID
        upper = upper_envelope(grid, lambda t: fp_spectrum(1.8, t), 0.5)
        p_curve = curve_from_formula(lambda t: fp_spectrum(1.8, t))
        t_env = phase_transition(upper).theta
        t_p = phase_transition(p_curve).theta
        assert abs(t_env - t_p) <= 2.5e-3


class TestCurveType:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SpectrumCurve(np.array([0.5, 0.4]), np.array([0.1, 0.2]), "formula")
        with pytest.raises(DomainError):
            SpectrumCurve(np.array([0.0, 0.5]), np.array([0.1, 0.2]), "formula")

    @pytest.mark.parametrize("thetas", [[0.5, np.nan], [np.nan, 0.5], [np.nan], [0.2, np.nan, 0.4], []])
    def test_nan_or_empty_grid_is_rejected(self, thetas):
        with pytest.raises(DomainError, match="theta grid"):
            SpectrumCurve(np.array(thetas), np.full(len(thetas), 0.5), "estimate")

    def test_formula_curves_must_be_monotone(self):
        with pytest.raises(DomainError):
            SpectrumCurve(np.array([0.2, 0.4]), np.array([0.5, 0.3]), "formula")
        SpectrumCurve(np.array([0.2, 0.4]), np.array([0.5, 0.3]), "estimate")

