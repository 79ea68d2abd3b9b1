"""Moebius-transform engine shared by all contraction branches.

Every branch kind in this package acts as a Moebius map
``x -> (a x + b) / (c x + d)``, with real coefficients in one dimension
and complex coefficients in two.  Compositions are 2x2 matrix products,
so cylinder images and derivative ranges stay in closed form at every
word depth.  Integer coefficients (continued-fraction branches) remain
exact integers under composition.

The cloud builder and the tail brackets handle whole batches of maps at
once: a ``Mobius`` whose entries are float64 arrays (one dimension) or
:class:`CArray` values (two dimensions) composes and evaluates
elementwise, and ``interval_images``, ``disc_images``,
``deriv_ranges_interval`` and ``deriv_ranges_disc`` are the array forms
of the scalar region functions; ``deriv_ranges_disc`` also takes one
disc per map.  Every array form repeats the scalar arithmetic operation
for operation, so it returns the scalar result bit for bit.
``interval_poles`` and ``disc_poles`` tell, per map, whether the image
functions would reject it.

A map has a pole on an interval when its denominator vanishes at an
end or changes sign between the ends, and on a disc when it is not
affine and the disc's image under z -> c z + d holds 0.  The region
functions and the interval derivative ranges raise
``ZeroDivisionError`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Interval = tuple[float, float]


@dataclass(frozen=True)
class Disc:
    """Closed disc in the complex plane."""

    center: complex
    radius: float

    def contains(self, other: "Disc", slack: float = 0.0) -> bool:
        return abs(other.center - self.center) + other.radius <= self.radius * (1.0 + slack) + slack * 1e-12


@dataclass(frozen=True)
class Mobius:
    """Map x -> (a x + b) / (c x + d); entries real or complex."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __call__(self, x):
        return (self.a * x + self.b) / (self.c * x + self.d)

    def compose(self, other: "Mobius") -> "Mobius":
        """Matrix product, i.e. self applied after other."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def deriv_abs(self, x) -> float:
        q = self.c * x + self.d
        return abs(self.det) / abs(q) ** 2


IDENTITY = Mobius(1, 0, 0, 1)


# ---------------------------------------------------------------------------
# batches of maps


class CArray:
    """Complex numbers held as separate real and imaginary float64 arrays.

    The operators repeat CPython's complex arithmetic (four real
    products for a multiply, Smith's scaling for a divide as in
    ``_Py_c_quot``, ``hypot`` for the modulus) and promote real operands
    to a zero imaginary part as CPython does, so results equal the
    scalar ``complex`` ones bit for bit.  numpy's complex128 kernels
    round differently in the last bit on many inputs.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = np.asarray(re, dtype=float)
        self.im = np.asarray(im, dtype=float)

    @classmethod
    def of(cls, z) -> "CArray":
        if isinstance(z, CArray):
            return z
        z = np.asarray(z, dtype=complex)
        return cls(z.real, z.imag)

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, idx) -> "CArray":
        return CArray(self.re[idx], self.im[idx])

    def __add__(self, other) -> "CArray":
        o = CArray.of(other)
        return CArray(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "CArray":
        o = CArray.of(other)
        return CArray(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "CArray":
        return CArray.of(other) - self

    def __mul__(self, other) -> "CArray":
        o = CArray.of(other)
        return CArray(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CArray":
        return _quotient(self, CArray.of(other))

    def __rtruediv__(self, other) -> "CArray":
        return _quotient(CArray.of(other), self)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.re, self.im)

    def conjugate(self) -> "CArray":
        return CArray(self.re, -self.im)

    def is_zero(self) -> np.ndarray:
        return (self.re == 0.0) & (self.im == 0.0)

    def to_complex(self) -> np.ndarray:
        """The same numbers as one complex128 array."""
        z = np.empty(self.re.shape, dtype=complex)
        z.real, z.imag = self.re, self.im
        return z


def _quotient(a: CArray, b: CArray) -> CArray:
    # divide top and bottom by whichever part of b has the larger magnitude
    by_real = np.abs(b.re) >= np.abs(b.im)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = b.im / b.re
        denom = b.re + b.im * ratio
        re1 = (a.re + a.im * ratio) / denom
        im1 = (a.im - a.re * ratio) / denom
        ratio = b.re / b.im
        denom = b.re * ratio + b.im
        re2 = (a.re * ratio + a.im) / denom
        im2 = (a.im * ratio - a.re) / denom
    return CArray(np.where(by_real, re1, re2), np.where(by_real, im1, im2))


def concat_arrays(parts):
    """np.concatenate for float64 arrays or CArray values."""
    if isinstance(parts[0], CArray):
        return CArray(np.concatenate([p.re for p in parts]), np.concatenate([p.im for p in parts]))
    return np.concatenate(parts)


def stack_mobius(maps: Sequence[Mobius], planar: bool) -> Mobius:
    """One Moebius batch from scalar maps; entries become float64 or CArray."""
    def column(name):
        values = [getattr(m, name) for m in maps]
        return CArray.of(values) if planar else np.array(values, dtype=float)

    return Mobius(column("a"), column("b"), column("c"), column("d"))


def take_mobius(m: Mobius, idx) -> Mobius:
    return Mobius(m.a[idx], m.b[idx], m.c[idx], m.d[idx])


def concat_mobius(batches: Sequence[Mobius]) -> Mobius:
    return Mobius(*(concat_arrays([getattr(m, name) for m in batches]) for name in "abcd"))


def _square(x):
    # x ** 2 on Python floats goes through libm pow, which numpy's power
    # and square kernels do not always match; float_power does
    return np.float_power(x, 2.0)


def interval_image(m: Mobius, iv: Interval) -> Interval:
    """Exact image of an interval under a real Moebius map.

    The denominator must not vanish on the interval; the map is then
    monotone there and the image is spanned by the endpoint values.
    """
    lo, hi = iv
    qlo = m.c * lo + m.d
    qhi = m.c * hi + m.d
    if qlo == 0 or qhi == 0 or (qlo > 0) != (qhi > 0):
        raise ZeroDivisionError("Moebius denominator vanishes on the interval")
    u = (m.a * lo + m.b) / qlo
    v = (m.a * hi + m.b) / qhi
    return (u, v) if u <= v else (v, u)


def deriv_range_interval(m: Mobius, iv: Interval) -> Interval:
    """Range of |m'| over an interval, exact via endpoint denominators.

    The pole rule is interval_image's: the denominator must not vanish
    at an end or change sign between them."""
    lo, hi = iv
    qlo = m.c * lo + m.d
    qhi = m.c * hi + m.d
    if qlo == 0 or qhi == 0 or (qlo > 0) != (qhi > 0):
        raise ZeroDivisionError("Moebius denominator vanishes on the interval")
    qlo, qhi = abs(qlo), abs(qhi)
    det = abs(m.det)
    qmin, qmax = (qlo, qhi) if qlo <= qhi else (qhi, qlo)
    return det / qmax**2, det / qmin**2


def disc_image(m: Mobius, disc: Disc) -> Disc:
    """Exact image disc of a disc under a complex Moebius map.

    Moebius maps send circles to circles, so no enclosure slack is
    needed.  The disc must avoid the pole -d/c.
    """
    if m.c == 0:
        scale = m.a / m.d
        return Disc(scale * disc.center + m.b / m.d, abs(scale) * disc.radius)
    # Write m = a/c + (b - a d / c) / (c z + d) and invert the inner disc.
    u_center = m.c * disc.center + m.d
    u_radius = abs(m.c) * disc.radius
    mod2 = abs(u_center) ** 2 - u_radius**2
    if mod2 <= 0.0:
        raise ZeroDivisionError("Moebius pole lies inside the disc")
    inv_center = u_center.conjugate() / mod2
    inv_radius = u_radius / mod2
    coeff = m.b - m.a * m.d / m.c
    return Disc(m.a / m.c + coeff * inv_center, abs(coeff) * inv_radius)


def deriv_range_disc(m: Mobius, disc: Disc) -> Interval:
    """Range of |m'| over a disc: |det| / |c z + d|^2 with annulus bounds."""
    if m.c == 0:
        v = abs(m.det) / abs(m.d) ** 2
        return v, v
    u = abs(m.c * disc.center + m.d)
    spread = abs(m.c) * disc.radius
    qmin = u - spread
    if qmin <= 0.0:
        raise ZeroDivisionError("Moebius pole lies inside the disc")
    qmax = u + spread
    det = abs(m.det)
    return det / qmax**2, det / qmin**2


def line_denominators(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Denominators at both ends of an interval, and where the map has a pole
    on it: a denominator vanishes at an end or changes sign between them."""
    lo, hi = iv
    qlo = m.c * lo + m.d
    qhi = m.c * hi + m.d
    return qlo, qhi, (qlo == 0) | (qhi == 0) | ((qlo > 0) != (qhi > 0))


def interval_poles(m: Mobius, iv: Interval) -> np.ndarray:
    """Per map of a batch, whether interval_image would reject it."""
    return line_denominators(m, iv)[2]


def interval_images(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """interval_image of every map of a batch, as arrays of lower and upper ends."""
    lo, hi = iv
    qlo, qhi, poles = line_denominators(m, iv)
    if np.any(poles):
        raise ZeroDivisionError("Moebius denominator vanishes on the interval")
    u = (m.a * lo + m.b) / qlo
    v = (m.a * hi + m.b) / qhi
    ordered = u <= v
    return np.where(ordered, u, v), np.where(ordered, v, u)


def deriv_ranges_interval(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """deriv_range_interval of every map of a batch, as arrays of lower and upper ends."""
    qlo, qhi, poles = line_denominators(m, iv)
    if np.any(poles):
        raise ZeroDivisionError("Moebius denominator vanishes on the interval")
    qlo, qhi = np.abs(qlo), np.abs(qhi)
    det = np.abs(m.det)
    ordered = qlo <= qhi
    return det / _square(np.where(ordered, qhi, qlo)), det / _square(np.where(ordered, qlo, qhi))


def _disc_denominators(m: Mobius, disc: Disc) -> tuple[CArray, np.ndarray, np.ndarray, np.ndarray]:
    """The image of the disc under z -> c z + d (centre and radius), the
    power |c centre + d|^2 - (|c| radius)^2 of 0 against it, and where
    the map has a pole on the disc: c is not zero and that power is not
    positive."""
    u_center = m.c * disc.center + m.d
    u_radius = abs(m.c) * disc.radius
    mod2 = _square(abs(u_center)) - _square(u_radius)
    return u_center, u_radius, mod2, ~m.c.is_zero() & (mod2 <= 0.0)


def disc_poles(m: Mobius, disc: Disc) -> np.ndarray:
    """Per map of a batch, whether disc_image would reject it."""
    return _disc_denominators(m, disc)[3]


def disc_images(m: Mobius, disc: Disc) -> tuple[CArray, np.ndarray]:
    """disc_image of every map of a batch, as centres and radii."""
    flat = m.c.is_zero()
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = m.a / m.d
        flat_center = scale * disc.center + m.b / m.d
        flat_radius = abs(scale) * disc.radius
        u_center, u_radius, mod2, poles = _disc_denominators(m, disc)
        if np.any(poles):
            raise ZeroDivisionError("Moebius pole lies inside the disc")
        inv_center = u_center.conjugate() / mod2
        inv_radius = u_radius / mod2
        coeff = m.b - m.a * m.d / m.c
        center = m.a / m.c + coeff * inv_center
        radius = abs(coeff) * inv_radius
    return (CArray(np.where(flat, flat_center.re, center.re), np.where(flat, flat_center.im, center.im)),
            np.where(flat, flat_radius, radius))


def deriv_ranges_disc(m: Mobius, disc: Disc) -> tuple[np.ndarray, np.ndarray]:
    """deriv_range_disc of every map of a batch, as arrays of lower and upper ends.

    The disc's centre and radius may be a CArray and an array, one disc
    per map, as disc_images returns them.
    """
    flat = m.c.is_zero()
    det = abs(m.det)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = abs(m.c * disc.center + m.d)
        spread = abs(m.c) * disc.radius
        qmin = u - spread
        if np.any(~flat & (qmin <= 0.0)):
            raise ZeroDivisionError("Moebius pole lies inside the disc")
        level = det / _square(abs(m.d))
        return np.where(flat, level, det / _square(u + spread)), np.where(flat, level, det / _square(qmin))
