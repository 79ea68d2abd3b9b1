"""Acceptance suite: one check per shipped guarantee, each printing a
pass/fail line with its measured quantity and stated tolerance."""

import time

import numpy as np
import pytest

import ifsdim as F
from ifsdim.estimator import (
    assouad_dimension_estimate,
    assouad_spectrum_estimate,
    box_dimension_estimate,
    cover_count_1d,
    lower_spectrum_estimate,
)
from ifsdim.families import make_family
from ifsdim.spectra import (
    ctd_clustered_spectrum,
    ctd_spaced_spectrum,
    complex_cf_spectrum,
    curve_from_formula,
    default_theta_grid,
    fit_three_param,
    lower_bound_curve,
    parabolic_spectrum,
    sharp_family_spectrum,
    slope_discontinuities,
    upper_envelope,
)
from ifsdim.tails import GeometricRule, PowerRule, SimilarityTail

from scalar_oracle import exhaustive_cover_count_1d


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sharp_clouds():
    out = {}
    for t in (2.8, 3.6, 3.8):
        spec = F.build_sharp_family(1.8, t, 0.5)
        out[t] = F.build_limit_cloud(spec, 1e-7)
    return out


def test_criterion_1_pressure_exactness():
    start = time.time()
    finite = F.CifsSpec(1, (0.0, 1.0), ((1, F.Similarity(0.25, 0.0)), (2, F.Similarity(0.25, 0.75))))
    h1 = F.hausdorff_dimension(finite, tol=1e-10).value
    geometric = F.CifsSpec(
        1, (0.0, 1.0), (),
        SimilarityTail(GeometricRule(1.0, 0.25), GeometricRule(1.0, 0.25), start=1),
    )
    h2 = F.hausdorff_dimension(geometric, tol=1e-9).value
    elapsed = time.time() - start
    ok = abs(h1 - 0.5) <= 1e-9 and abs(h2 - 0.5) <= 1e-6 and elapsed < 1.0
    report(
        "1 pressure exactness",
        ok,
        f"|h-1/2| = {abs(h1-0.5):.2e} (tol 1e-9), geometric {abs(h2-0.5):.2e} (tol 1e-6), {elapsed:.2f}s < 1s",
    )


def test_criterion_2_constructive_round_trip():
    start = time.time()
    worst = 0.0
    for p in (1.2, 1.8, 2.6):
        for dt in (0.0, 0.8, 2.0):
            t = p + 1.0 + dt
            for frac in (0.3, 0.55, 0.8):
                h = 1.0 / t + frac * (1.0 - 1.0 / t)
                spec = F.build_sharp_family(p, t, h)
                got = F.hausdorff_dimension(spec).value
                worst = max(worst, abs(got - h))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report("2 constructive round-trip", ok,
           f"27 cases, max |h_got - h| = {worst:.2e} (tol 1e-6), {elapsed:.1f}s < 10s")


def test_criterion_3_formula_vs_estimate():
    thetas = np.arange(0.05, 0.901, 0.05)
    worst = {}
    for t in (2.8, 3.6, 3.8):
        start = time.time()
        cloud = F.build_limit_cloud(F.build_sharp_family(1.8, t, 0.5), 1e-7)
        rep = assouad_spectrum_estimate(cloud, thetas)
        formula = np.array([sharp_family_spectrum(1.8, t, 0.5, th) for th in thetas])
        dev = np.abs(rep.curve.values - formula)
        elapsed = time.time() - start
        worst[t] = (float(np.nanmax(dev)), bool(np.all(np.isfinite(rep.curve.values))), elapsed)
    ok = all(w <= 0.07 and valid and el < 120.0 for w, valid, el in worst.values())
    detail = "; ".join(f"t={t}: max dev {w:.3f} in {el:.1f}s" for t, (w, _, el) in worst.items())
    report("3 formula vs estimate (tol 0.07, < 2 min per regime)", ok, detail)


def test_criterion_4_sandwich():
    thetas = np.arange(0.1, 0.86, 0.05)
    margins = {}
    for name in ("sharp", "fp", "ctd-spaced", "ctd-clustered", "parabolic"):
        fam = make_family(name, {"p": 1.8, "t": 3.6, "h": 0.5} if name == "sharp" else {})
        h_lo, h_hi = fam.dimension_enclosure()
        if fam.cloud_kind == "fixed_points":
            cloud = F.build_fixed_point_cloud(fam.spec, fam.default_delta)
        else:
            cloud = F.build_limit_cloud(fam.spec, fam.default_delta)
        est = assouad_spectrum_estimate(cloud, thetas).curve.values
        lower = lower_bound_curve(thetas, fam.fixed_point_spectrum, h_lo).values
        upper = upper_envelope(thetas, fam.fixed_point_spectrum, max(h_hi, fam.fixed_point_spectrum(0.0))).values
        margins[name] = (float(np.min(est - lower)), float(np.min(upper - est)))
    ok = all(lo >= -0.07 and up >= -0.07 for lo, up in margins.values())
    detail = "; ".join(f"{n}: {lo:+.3f}/{up:+.3f}" for n, (lo, up) in margins.items())
    report("4 sandwich on every family (slack 0.07)", ok, detail)


def test_criterion_5_two_kinks_and_three_param():
    curve2 = curve_from_formula(lambda th: sharp_family_spectrum(1.8, 3.6, 0.5, th))
    kinks = slope_discontinuities(curve2)
    k1_true = (0.5 + 0.9 - 1.0) * 1.8 / (2.8 * (0.5 * 3.6 - 1.0))
    k2_true = 9.0 / 14.0
    two = len(kinks) == 2
    close = two and abs(kinks[0] - k1_true) <= 1e-3 and abs(kinks[1] - k2_true) <= 1e-3
    curve1 = curve_from_formula(lambda th: sharp_family_spectrum(1.8, 2.8, 0.5, th))
    fit1 = fit_three_param(curve1)
    fit2 = fit_three_param(curve2)
    ok = close and fit1.ok and not fit2.ok
    detail = (f"kinks {[round(k, 6) for k in kinks]} vs ({k1_true:.6f}, {k2_true:.6f}); "
              f"three-param fit: case1 {'ok' if fit1.ok else 'fail'} "
              f"(dev {fit1.max_deviation:.1e}), case2 {'fail' if not fit2.ok else 'ok'} "
              f"(dev {fit2.max_deviation:.1e})")
    report("5 two-kink detection within 1e-3", ok, detail)


def test_criterion_6_monotonicity_and_chain(sharp_clouds):
    thetas = np.arange(0.2, 0.901, 0.05)
    worst_mono = 0.0
    worst_chain = 0.0
    for cloud in sharp_clouds.values():
        vals = assouad_spectrum_estimate(cloud, thetas).curve.values
        finite = vals[np.isfinite(vals)]
        worst_mono = max(worst_mono, float(np.max(np.maximum(0.0, finite[:-1] - finite[1:]))))
        box = box_dimension_estimate(cloud).value
        assouad = assouad_dimension_estimate(cloud).value
        worst_chain = max(worst_chain, box - float(np.min(finite)), float(np.max(finite)) - assouad)
    ok = worst_mono <= 0.05 and worst_chain <= 0.05
    report("6 monotone spectra and box <= spectrum <= assouad (slack 0.05)", ok,
           f"worst monotonicity violation {worst_mono:.3f}; worst chain violation {worst_chain:.3f}")


def test_criterion_7_lower_spectrum_collapse():
    start = time.time()
    spec = F.CifsSpec(
        1, (0.0, 1.0), (),
        SimilarityTail(GeometricRule(1.0, 0.5), PowerRule(1.0, 1.0), start=2),
    )
    cloud = F.build_limit_cloud(spec, 2.0**-20)
    low = lower_spectrum_estimate(cloud, [0.5]).curve.values[0]
    box = box_dimension_estimate(cloud).value
    elapsed = time.time() - start
    ok = low < 0.1 and box > 0.0 and elapsed < 60.0
    report("7 lower spectrum collapse", ok,
           f"lower(1/2) = {low:.3f} < 0.1 while box = {box:.3f} > 0, {elapsed:.1f}s < 60s")


def test_criterion_8_cover_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        pts = np.sort(rng.random(n))
        r = float(rng.uniform(0.003, 0.4))
        cloud = F.PointCloud.from_points(pts, 1e-9, 1)
        if cover_count_1d(cloud, 0.5, 1.0, r) != exhaustive_cover_count_1d(pts, r):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 30.0
    report("8 greedy cover equals exhaustive minimum", ok,
           f"1000 random clouds, {mismatches} mismatches, {elapsed:.1f}s < 30s")


def test_criterion_9_continued_fraction_formulas():
    grid = default_theta_grid(1024)
    identical = True
    for p, h in ((1.8, 0.5), (1.4, 0.55)):
        a = np.array([ctd_spaced_spectrum(p, h, th) for th in grid])
        b = np.array([sharp_family_spectrum(p, 2.0 * p, h, th) for th in grid])
        identical = identical and np.array_equal(a, b)
    alpha, h = 0.5, 0.6
    rho_c = 1.0 - alpha / 2.0
    cont_c = abs(ctd_clustered_spectrum(alpha, h, rho_c * (1.0 - 1e-13)) - 1.0)
    q, hp = 2.0, 0.5
    rho_p = 1.0 / (1.0 + q)
    cont_p = abs(parabolic_spectrum(q, hp, rho_p * (1.0 - 1e-13)) - 1.0)
    cx = complex_cf_spectrum(1.8558, 0.25)
    cx_dev = abs(cx - 1.90387)
    ok = identical and cont_c <= 1e-12 and cont_p <= 1e-12 and cx_dev <= 1e-5
    report("9 continued-fraction formulas", ok,
           f"spaced == sharp(2p) exactly: {identical}; continuity gaps {cont_c:.1e}, {cont_p:.1e} "
           f"(tol 1e-12); complex value {cx:.6f} within {cx_dev:.1e} of 1.90387 (tol 1e-5)")


def test_criterion_10_reproducibility(tmp_path):
    from ifsdim.cli import RunConfig, run_pipeline

    blobs = []
    for sub in ("first", "second"):
        config = RunConfig(family="fp", params={"p": 1.0}, delta=1e-5, grid=10, out_dir=str(tmp_path / sub))
        run_pipeline(config)
        blobs.append({
            name: (tmp_path / sub / name).read_bytes()
            for name in ("curves.csv", "overlay.svg", "cloud.bin", "summary.json")
        })
    ok = blobs[0] == blobs[1]
    report("10 byte-identical comparison runs", ok,
           "curves.csv, overlay.svg, cloud.bin and summary.json all match" if ok else "outputs differ")
