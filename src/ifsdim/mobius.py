"""Moebius-transform engine shared by all contraction branches.

Every branch kind in this package acts as a Moebius map
``x -> (a x + b) / (c x + d)``, with real coefficients in one dimension
and complex coefficients in two.  Compositions are 2x2 matrix products,
so cylinder images and derivative ranges stay in closed form at every
word depth.  Integer coefficients (continued-fraction branches) remain
exact integers under composition.

Maps are handled a whole batch at a time: a ``Mobius`` whose entries are
float64 arrays (one dimension) or :class:`CArray` values (two
dimensions) composes and evaluates elementwise.  Per map of a batch,
``interval_images`` and ``disc_images`` give the exact image of a seed
interval or disc (Moebius maps send intervals to intervals and circles
to circles, so no enclosure slack is needed), and
``deriv_ranges_interval`` and ``deriv_ranges_disc`` the exact range of
|m'| over it; ``deriv_ranges_disc`` also takes one disc per map.
``interval_poles`` and ``disc_poles`` tell, per map, whether the image
functions would reject it.  There is no scalar form: the tests keep
one, a map at a time, as the bit-for-bit oracle of these functions.

A map has a pole on an interval when its denominator vanishes at an
end or changes sign between the ends, and on a disc when it is not
affine and the disc's image under z -> c z + d holds 0.  The image
functions and the derivative ranges raise ``ZeroDivisionError`` when
any map of the batch has one.
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


def line_denominators(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Denominators at both ends of an interval, and where the map has a pole
    on it: a denominator vanishes at an end or changes sign between them."""
    lo, hi = iv
    qlo = m.c * lo + m.d
    qhi = m.c * hi + m.d
    return qlo, qhi, (qlo == 0) | (qhi == 0) | ((qlo > 0) != (qhi > 0))


def interval_poles(m: Mobius, iv: Interval) -> np.ndarray:
    """Per map of a batch, whether it has a pole on the interval."""
    return line_denominators(m, iv)[2]


def interval_images(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Exact image of an interval under every map of a batch, as arrays of
    lower and upper ends: away from a pole a map is monotone, so its
    endpoint values span the image."""
    lo, hi = iv
    qlo, qhi, poles = line_denominators(m, iv)
    if np.any(poles):
        raise ZeroDivisionError("Moebius denominator vanishes on the interval")
    u = (m.a * lo + m.b) / qlo
    v = (m.a * hi + m.b) / qhi
    ordered = u <= v
    return np.where(ordered, u, v), np.where(ordered, v, u)


def deriv_ranges_interval(m: Mobius, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Range of |m'| over an interval for every map of a batch, as arrays of
    lower and upper ends, exact via the endpoint denominators."""
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
    """Per map of a batch, whether it has a pole on the disc."""
    return _disc_denominators(m, disc)[3]


def disc_images(m: Mobius, disc: Disc) -> tuple[CArray, np.ndarray]:
    """Exact image disc of a disc under every map of a batch, as centres and
    radii.  An affine map scales the disc; any other is written
    m = a/c + (b - a d / c) / (c z + d), and the inner disc is inverted."""
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
    """Range of |m'| = |det| / |c z + d|^2 over a disc for every map of a
    batch, from the annulus that |c z + d| spans, as arrays of lower and
    upper ends.

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
