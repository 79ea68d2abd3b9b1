import math
from fractions import Fraction

import numpy as np
import pytest

from ifsdim.mobius import (
    CArray,
    Disc,
    Mobius,
    deriv_range_disc,
    deriv_range_interval,
    deriv_ranges_disc,
    deriv_ranges_interval,
    disc_image,
    disc_images,
    disc_poles,
    interval_image,
    interval_images,
    interval_poles,
    stack_mobius,
)


def test_identity_and_composition():
    m = Mobius(2, 1, 0, 1)
    n = Mobius(0, 1, 1, 2)  # x -> 1/(2+x)
    comp = m.compose(n)
    x = 0.3
    assert comp(x) == pytest.approx(m(n(x)), rel=1e-15)


def test_interval_image_matches_fraction_arithmetic():
    # 1/(2+x) on [0,1]: endpoints via exact rationals
    m = Mobius(0, 1, 1, 2)
    lo, hi = interval_image(m, (0.0, 1.0))
    assert lo == pytest.approx(float(Fraction(1, 3)), abs=1e-15)
    assert hi == pytest.approx(float(Fraction(1, 2)), abs=1e-15)


def test_interval_image_rejects_pole():
    m = Mobius(0, 1, 1, -0.5)  # pole at x = 0.5
    with pytest.raises(ZeroDivisionError):
        interval_image(m, (0.0, 1.0))


def test_interval_derivative_ranges_reject_a_pole():
    # |m'| is unbounded on [0, 1], though both endpoint denominators are 0.5
    m = Mobius(0, 1, 1, -0.5)
    with pytest.raises(ZeroDivisionError):
        deriv_range_interval(m, (0.0, 1.0))
    with pytest.raises(ZeroDivisionError):
        deriv_ranges_interval(stack_mobius([Mobius(0, 1, 1, 2), m], planar=False), (0.0, 1.0))


def _rejects(region_function, m, region):
    try:
        region_function(m, region)
    except ZeroDivisionError:
        return True
    return False


def test_pole_tests_match_the_scalar_region_functions():
    line = [Mobius(0, 1, 1, d) for d in (-2.0, -1.0, -0.5, 0.0, 0.5, 2.0)]
    line += [Mobius(1.0, 0.0, -1.0, 1.0), Mobius(0.5, 0.25, 0.0, 1.0), Mobius(2.0, 1.0, 3.0, -1.5)]
    for iv in ((0.0, 1.0), (-1.0, 0.5), (0.5, 0.5)):
        want = [_rejects(interval_image, m, iv) for m in line]
        assert interval_poles(stack_mobius(line, planar=False), iv).tolist() == want
        assert [_rejects(deriv_range_interval, m, iv) for m in line] == want
    plane = [Mobius(0, 1, 1, complex(m, n)) for m in range(-2, 3) for n in (-1, 0, 1)]
    plane += [Mobius(2.0 + 1j, 0.5j, 0, 1.5 - 0.25j), Mobius(0, 1, 1j, 0.5)]
    for disc in (Disc(0.5 + 0j, 0.5), Disc(0j, 1.5), Disc(1 + 1j, 0.25)):
        want = [_rejects(disc_image, m, disc) for m in plane]
        assert disc_poles(stack_mobius(plane, planar=True), disc).tolist() == want
        assert any(want) and not all(want)


def test_deriv_range_interval():
    m = Mobius(0, 1, 1, 2)
    lo, hi = deriv_range_interval(m, (0.0, 1.0))
    assert lo == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert hi == pytest.approx(1.0 / 4.0, rel=1e-14)


def test_disc_image_is_exact():
    # z -> 1/(3+z) maps a disc to a disc; verify by boundary sampling
    m = Mobius(0, 1, 1, 3)
    disc = Disc(0.5 + 0j, 0.5)
    img = disc_image(m, disc)
    for k in range(24):
        z = disc.center + disc.radius * complex(math.cos(k / 24 * 2 * math.pi),
                                                math.sin(k / 24 * 2 * math.pi))
        w = m(z)
        assert abs(abs(w - img.center) - img.radius) < 1e-12


def test_deriv_range_disc_brackets_samples():
    m = Mobius(0, 1, 1, complex(2, 1))
    disc = Disc(0.5 + 0j, 0.5)
    lo, hi = deriv_range_disc(m, disc)
    for k in range(16):
        z = disc.center + disc.radius * complex(math.cos(k), math.sin(k)) / 1.0001
        d = m.deriv_abs(z)
        assert lo - 1e-12 <= d <= hi + 1e-12


# -- batches: the array forms must equal the scalar forms bit for bit --------


def _random_complex(rng, n):
    scale = 10.0 ** rng.uniform(-3, 3, n)
    return [complex(x, y) for x, y in zip(rng.normal(size=n) * scale, rng.normal(size=n) * scale)]


def test_carray_repeats_cpython_complex_arithmetic():
    rng = np.random.default_rng(7)
    a, b = _random_complex(rng, 20_000), _random_complex(rng, 20_000)
    ca, cb = CArray.of(a), CArray.of(b)
    for got, want in ((ca * cb, [x * y for x, y in zip(a, b)]),
                      (ca / cb, [x / y for x, y in zip(a, b)]),
                      (ca - 2, [x - 2 for x in a]),
                      (0.5 / ca, [0.5 / x for x in a]),
                      (ca.conjugate() / 3.0, [x.conjugate() / 3.0 for x in a])):
        assert got.re.tolist() == [z.real for z in want]
        assert got.im.tolist() == [z.imag for z in want]
    assert abs(ca).tolist() == [abs(x) for x in a]


def _same(array_value, scalar_values):
    return np.asarray(array_value).tolist() == [float(v) for v in scalar_values]


def test_interval_batches_match_scalar_forms():
    rng = np.random.default_rng(3)
    maps = [Mobius(*(float(v) for v in rng.uniform(0.1, 3.0, 4))) for _ in range(500)]
    maps += [Mobius(0, 1, 1, b) for b in range(2, 60)]
    batch = stack_mobius(maps, planar=False)
    lo, hi = interval_images(batch, (0.0, 1.0))
    assert _same(lo, [interval_image(m, (0.0, 1.0))[0] for m in maps])
    assert _same(hi, [interval_image(m, (0.0, 1.0))[1] for m in maps])
    want = [deriv_range_interval(m, (0.0, 1.0)) for m in maps]
    d_lo, d_hi = deriv_ranges_interval(batch, (0.0, 1.0))
    assert _same(d_lo, [w[0] for w in want])
    assert _same(d_hi, [w[1] for w in want])
    assert _same(batch.compose(batch)(0.3), [m.compose(m)(0.3) for m in maps])


def test_disc_batches_match_scalar_forms():
    disc = Disc(0.5 + 0j, 0.5)
    maps = [Mobius(1, 0, 0, 1), Mobius(2.0 + 1j, 0.5j, 0, 1.5 - 0.25j)]
    maps += [Mobius(0, 1, 1, complex(m, n)) for m in range(1, 7) for n in range(-4, 5) if (m, n) != (1, 0)]
    maps += [Mobius(0, 1, 1, complex(m, n)).compose(Mobius(0, 1, 1, 2 - 1j)) for m in range(2, 5) for n in (-1, 0, 1)]
    batch = stack_mobius(maps, planar=True)
    center, radius = disc_images(batch, disc)
    want = [disc_image(m, disc) for m in maps]
    assert _same(center.re, [w.center.real for w in want])
    assert _same(center.im, [w.center.imag for w in want])
    assert _same(radius, [w.radius for w in want])
    d_lo, d_hi = deriv_ranges_disc(batch, disc)
    assert _same(d_lo, [deriv_range_disc(m, disc)[0] for m in maps])
    assert _same(d_hi, [deriv_range_disc(m, disc)[1] for m in maps])
    # one disc per map, as disc_images returns them
    images = Disc(center, radius)
    for outer in (Mobius(0, 1, 1, 1 + 0j), Mobius(2.0 + 1j, 0.5j, 0, 1.5 - 0.25j)):
        d_lo, d_hi = deriv_ranges_disc(stack_mobius([outer] * len(maps), planar=True), images)
        assert _same(d_lo, [deriv_range_disc(outer, w)[0] for w in want])
        assert _same(d_hi, [deriv_range_disc(outer, w)[1] for w in want])
    image = batch(0.5 + 0j)
    assert _same(image.re, [m(0.5 + 0j).real for m in maps])
    assert _same(image.im, [m(0.5 + 0j).imag for m in maps])
