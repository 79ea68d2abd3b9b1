"""Certified Hausdorff dimension of a finite real alphabet by its transfer operator.

For t > 0 the operator L_t f(x) = sum_b |S_b'(x)|^t f(S_b x) acts on the
continuous functions of the seed interval I once every branch maps I into
itself.  If p > 0 on I and L_t p > p on I, then L_t p >= (1 + eps) p for
some eps > 0, since I is compact; so L_t^n 1 grows like (1 + eps)^n, the
pressure P(t) is positive and t < h.  If L_t p < p on I, then P(t) < 0 and
t > h.  This is the min-max criterion of Falk and Nussbaum ("C^m
eigenfunctions of Perron-Frobenius operators and a new approach to
numerical computation of Hausdorff dimension") and of Jenkinson and
Pollicott ("Rigorous effective bounds on the Hausdorff dimension of
continued fraction Cantor sets").  Any p will do; the eigenvector makes
the test pass at t close to h.

``certified_root`` does four things.

1. **Collocate.**  L_t is collocated on n Chebyshev nodes of I, for n on
   the ``DEGREES`` ladder until the eigenvector's last Chebyshev
   coefficients fall below ``TAIL_TOL`` of the largest.  The root t* of
   log lambda(t), lambda the leading eigenvalue of the collocation
   matrix, comes from secant steps kept inside a bracket by bisection.
   The eigenvector at t*, as Chebyshev coefficients, is p.
2. **Certify.**  p > 0 on I, L_t p - p > 0 at t = t* - ``ETA`` and
   p - L_t p > 0 at t = t* + ``ETA``.  Each sign is shown on a partition
   of I into cells: on a cell of centre c and radius r a function q is
   positive if q(c) - |q'(c)| r - |q''(c)| r^2 / 2 - M r^3 / 6 > 0, M a
   bound of |q'''| on the cell (Taylor's theorem at c).  M is bounded
   once on each of ``COARSE_CELLS`` equal cells, from the ranges of the
   branch factors on the cell (monotone, so read at its ends) and bounds
   of |p| to |p'''| on the branch images of the cell (Taylor bounds
   about a midpoint, with the global bound of the next derivative).
   This bound does not see the cancellation in q = L_t p - p, so it is
   O(1) while q is O(ETA); but q'(c) and q''(c) do see it, so cells of
   width about ETA^(1/3) suffice.  The cells start as the coarse ones; a
   failing cell is split into as many equal cells as the positive root
   of its own cubic in r asks for, so only the cells that fail are
   refined.  The test gives up when a centre has q(c) <= 0 within its
   error, or when more than ``CELL_CAP`` cells have been tried.  The
   ends of every branch image are checked to lie in I, and the branch
   denominators to keep one sign on I.
3. **Fall back.**  If a certificate fails, ETA is doubled, up to
   ``ETA_DOUBLINGS`` times.  ``certified_root`` returns None when the
   system is out of reach (fewer than two branches, a pole on I, an
   image leaving I, a root at or past 1, an eigenvector not resolved on
   the ladder, or no certificate), and the caller falls back on the
   word-sum bisection.
4. **Report.**  The enclosure is [t* - ETA, t* + ETA] as floats; the
   certificate is for those two floats.

Rounding.  The point values carry a bound on their distance from the
exact value of the same formula (``_Err``).  Every +, -, *, / of IEEE
double precision rounds to nearest, within u = 2^-53 of its result
relative; ``np.power`` is taken to be within ``POW_ULPS`` ulps (numpy's
libm and SIMD kernels document at most 4).  A Chebyshev series is summed
by Clenshaw's recurrence, whose local roundings act as changes of the
coefficients; since |T_k| <= 1 on [-1, 1] its error is at most their
sum, bounded a priori from |b_k| <= sum_(j>=k) (j - k + 1) |a_j|.  The
coefficients of the derivatives carry the roundings of their recurrence.
The error bounds are themselves computed in floating point, from
nonnegative terms in short chains, and are doubled (``ERR_SLACK``)
before use; the bounds M are raised by a relative 2^-40, and cell radii
rounded up to the next float.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import ranges
from .mobius import Mobius

#: collocation sizes tried in turn until the eigenvector is resolved
DEGREES = (16, 24, 32, 48, 64)
#: the eigenvector is resolved when its last three Chebyshev coefficients
#: are within this fraction of its largest one
TAIL_TOL = 1e-12
#: half-width of the first enclosure tried, and how often it may double
ETA = 4e-9
ETA_DOUBLINGS = 3
#: equal cells on which the third-derivative bounds are taken
COARSE_CELLS = 64
#: cells one sign certificate may try before it gives up
CELL_CAP = 1 << 17
#: largest cells-by-branches block evaluated at once
_BLOCK = 1 << 16

#: unit roundoff of float64
_U = 2.0**-53
#: ulps allowed to np.power, twice the 4 its kernels document
POW_ULPS = 8
#: factor on every rounding-error bound before use
ERR_SLACK = 2.0
#: relative raise of bounds computed in a few float operations
_UP = 1.0 + 2.0**-40


# ---------------------------------------------------------------------------
# floats with rounding-error bounds


class _Err:
    """Float64 values v and bounds e of their distance from the exact value
    of the same formula on the exact inputs.  Each operation adds u times
    its rounded result for its own rounding."""

    __slots__ = ("v", "e")
    # numpy defers to the reflected operators below instead of looping
    __array_ufunc__ = None

    def __init__(self, v, e=0.0):
        self.v = v
        self.e = e

    def __add__(self, other):
        other = _lift(other)
        v = self.v + other.v
        return _Err(v, self.e + other.e + _U * np.abs(v))

    def __sub__(self, other):
        other = _lift(other)
        v = self.v - other.v
        return _Err(v, self.e + other.e + _U * np.abs(v))

    def __neg__(self):
        return _Err(-self.v, self.e)

    def __mul__(self, other):
        other = _lift(other)
        v = self.v * other.v
        return _Err(v, np.abs(self.v) * other.e + np.abs(other.v) * self.e + self.e * other.e + _U * np.abs(v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # valid where |other.v| > other.e: the exact divisor is not zero
        other = _lift(other)
        v = self.v / other.v
        return _Err(v, (self.e + np.abs(v) * other.e) / (np.abs(other.v) - other.e) + _U * np.abs(v))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __abs__(self):
        return _Err(np.abs(self.v), self.e)

    def power(self, t: float) -> "_Err":
        """v^t for v > 0 and 0 < t <= 2: |(1 + r)^t - 1| <= t r / (1 - r)
        for a relative error |r| < 1."""
        v = np.power(self.v, t)
        rel = self.e / self.v
        grow = np.where(rel < 1.0, t * rel / np.maximum(1.0 - rel, _U), np.inf)
        return _Err(v, v * (grow + POW_ULPS * 2.0 * _U))

    def clip(self, lo: float, hi: float) -> "_Err":
        """The values moved into [lo, hi]; where the exact value lies in
        [lo, hi], the move brings the float no farther from it."""
        return _Err(np.clip(self.v, lo, hi), self.e)

    def total(self) -> "_Err":
        """Sum over the first axis; n terms sum within (n - 1) u sum |terms|."""
        e = np.broadcast_to(self.e, np.shape(self.v))
        n = np.shape(self.v)[0]
        return _Err(self.v.sum(axis=0), e.sum(axis=0) + n * _U * np.abs(self.v).sum(axis=0))

    def low(self):
        return self.v - ERR_SLACK * self.e

    def high(self):
        return self.v + ERR_SLACK * self.e


def _lift(x) -> _Err:
    return x if isinstance(x, _Err) else _Err(x)


# ---------------------------------------------------------------------------
# Chebyshev series


def _clenshaw(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    b1 = np.zeros_like(u)
    b2 = np.zeros_like(u)
    u2 = 2.0 * u
    for a in coef[:0:-1]:
        b1, b2 = u2 * b1 - b2 + a, b1
    return u * b1 - b2 + coef[0]


class _Chebyshev:
    """A polynomial sum_k a_k T_k(u) on [-1, 1] with exact coefficients a_k
    (the stored floats) and its first four derivatives in u.

    Each derivative's coefficients come from the recurrence
    c_(k-1) = c_(k+1) + 2 k a_k, with a bound on their distance from the
    exact ones.  ``sup[j]`` bounds |p^(j)| on [-1, 1] by the sum of
    |coefficients|; ``rounding[j]`` bounds Clenshaw's error on p^(j)."""

    def __init__(self, coef: np.ndarray):
        series = [(np.asarray(coef, dtype=float), np.zeros(len(coef)))]
        for _ in range(4):
            series.append(_derivative(*series[-1]))
        self.coef = [c for c, _ in series]
        self.sup = []
        self.rounding = []
        for c, err in series:
            k = np.arange(len(c))
            mag = np.abs(c)
            self.sup.append(_UP * float(mag.sum() + err.sum()))
            # the roundings of step k, m = 2u b_(k+1), s = m - b_(k+2),
            # b_k = s + a_k, are within 2u (|m| + |s| + |b_k|)
            # <= 2u (4 |b_(k+1)| + |b_(k+2)| + |b_k|); with
            # |b_k| <= B_k = sum_(j>=k) (j - k + 1) |a_j| they sum to at most
            # 12 u sum_k B_k = 12 u sum_j |a_j| (j + 1) (j + 2) / 2
            clenshaw = 12.0 * _U * float(np.sum(mag * (k + 1) * (k + 2) / 2.0))
            self.rounding.append(_UP * (clenshaw + float(err.sum())))

    def value(self, j: int, u: _Err) -> _Err:
        """p^(j) at the points u, which stand for exact points in [-1, 1]."""
        x = np.clip(u.v, -1.0, 1.0)
        return _Err(_clenshaw(self.coef[j], x), self.rounding[j] + self.sup[j + 1] * u.e)

    def sup_on(self, j: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Bound of |p^(j)| on [lo, hi] within [-1, 1]: its value at the
        midpoint plus sup |p^(j+1)| times the radius."""
        mid = 0.5 * (lo + hi)
        rad = np.nextafter(np.maximum(mid - lo, hi - mid), np.inf)
        at_mid = self.value(j, _Err(mid))
        return _UP * (np.abs(at_mid.v) + ERR_SLACK * at_mid.e + self.sup[j + 1] * rad)


def _derivative(coef: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev coefficients of the derivative and their error bounds."""
    n = len(coef) - 1
    out = np.zeros(max(n, 1))
    out_err = np.zeros(max(n, 1))
    for k in range(n, 0, -1):
        term = 2.0 * k * coef[k]
        nxt = out[k + 1] if k + 1 < n else 0.0
        nxt_err = out_err[k + 1] if k + 1 < n else 0.0
        out[k - 1] = nxt + term
        out_err[k - 1] = nxt_err + 2.0 * k * err[k] + _U * (abs(term) + abs(out[k - 1]))
    out[0] *= 0.5
    out_err[0] *= 0.5
    return out, out_err


# ---------------------------------------------------------------------------
# collocation


class _Collocation:
    """L_t collocated on n Chebyshev nodes of [lo, hi]: values at the nodes
    to values at the nodes."""

    def __init__(self, maps: Mobius, lo: float, hi: float, n: int):
        theta = (2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + half * np.cos(theta)
        a, b, c, d = (np.asarray(v, dtype=float)[:, None] for v in (maps.a, maps.b, maps.c, maps.d))
        q = c * x + d
        self.weight = np.abs(a * d - b * c) / q**2
        u = np.clip(((a * x + b) / q - mid) / half, -1.0, 1.0)
        k = np.arange(n)
        self.to_coef = (2.0 / n) * np.cos(np.outer(k, theta))
        self.to_coef[0] *= 0.5
        self.basis = np.cos(k * np.arccos(u)[..., None]) @ self.to_coef

    def matrix(self, t: float) -> np.ndarray:
        return np.einsum("bi,bij->ij", self.weight**t, self.basis)

    def log_eigenvalue(self, t: float) -> float:
        lam = float(np.max(np.linalg.eigvals(self.matrix(t)).real))
        return math.log(lam) if lam > 0.0 else -math.inf

    def root(self) -> float | None:
        """Root of log lambda(t) in (0, 1) by secant steps inside a bracket."""
        a, b = 0.0, 1.0
        t0, f0 = a, self.log_eigenvalue(a)
        t1, f1 = b, self.log_eigenvalue(b)
        if not (f0 > 0.0 > f1):
            return None
        for _ in range(200):
            t = t1 - f1 * (t1 - t0) / (f1 - f0) if f1 != f0 else 0.5 * (a + b)
            if not a < t < b:
                t = 0.5 * (a + b)
            ft = self.log_eigenvalue(t)
            if ft > 0.0:
                a = t
            else:
                b = t
            t0, f0, t1, f1 = t1, f1, t, ft
            if ft == 0.0 or abs(t1 - t0) <= 4.0 * _U * t1 or not a < 0.5 * (a + b) < b:
                return t
        return None

    def eigenvector(self, t: float) -> np.ndarray:
        """Chebyshev coefficients of the leading eigenvector, largest value 1."""
        values, vectors = np.linalg.eig(self.matrix(t))
        v = vectors[:, int(np.argmax(values.real))].real
        return self.to_coef @ (v / v[int(np.argmax(np.abs(v)))])


# ---------------------------------------------------------------------------
# the certificate


class _Certifier:
    """Signs of p and of L_t p - p on the seed interval [lo, hi], for the
    branches in ``maps`` and the polynomial p of Chebyshev coefficients
    ``coef``.  Row 0 of every branch array is the identity, so that p and
    its derivative at the points come out of the same pass as the
    branch terms."""

    def __init__(self, maps: Mobius, lo: float, hi: float, coef: np.ndarray):
        self.lo, self.hi = lo, hi
        a, b, c, d = (np.concatenate([[one], np.asarray(v, dtype=float)])[:, None]
                      for one, v in zip((1.0, 0.0, 0.0, 1.0), (maps.a, maps.b, maps.c, maps.d)))
        self.a, self.b, self.c, self.d = a, b, c, d
        self.minus_2c = -2.0 * c
        self.det = _Err(a) * _Err(d) - _Err(b) * _Err(c)
        self.mid = (_Err(lo) + _Err(hi)) * 0.5
        self.scale = 2.0 / (_Err(hi) - _Err(lo))
        self.p = _Chebyshev(coef)

    # -- branch geometry -------------------------------------------------

    def _denominator(self, x) -> _Err:
        return self.c * _Err(x) + self.d

    def _image(self, x, den: _Err) -> _Err:
        return (self.a * _Err(x) + self.b) / den

    def _to_u(self, y: _Err) -> _Err:
        return (y.clip(self.lo, self.hi) - self.mid) * self.scale

    # -- point values ------------------------------------------------------

    def residual(self, x: np.ndarray, t: float) -> tuple[_Err, _Err, _Err]:
        """(L_t p - p)(x) and its first two derivatives at the points x.

        With D = c x + d, W = |det| / D^2, G = -2 c / D and S' = det / D^2:
        (W^t)' = t W^t G, G' = G^2 / 2 and S'' = S' G, so
        (L_t p)' = sum_b W^t (t G p(S) + S' p'(S)) and
        (L_t p)'' = sum_b W^t (t (t + 1/2) G^2 p(S) + (2t + 1) G S' p'(S)
        + S'^2 p''(S))."""
        den = self._denominator(x)
        u = self._to_u(self._image(x, den))
        p0 = self.p.value(0, u)
        p1 = self.p.value(1, u) * self.scale
        p2 = self.p.value(2, u) * (self.scale * self.scale)
        den2 = den * den
        wt = (abs(self.det) / den2).power(t)
        slope = self.det / den2
        g = self.minus_2c / den
        exact_t = _Err(t)
        value = wt * p0
        deriv = wt * (t * g * p0 + p1 * slope)
        curv = wt * (exact_t * (exact_t + 0.5) * (g * g) * p0 + (exact_t * 2.0 + 1.0) * g * slope * p1
                     + slope * slope * p2)
        branches = slice(1, None)
        return tuple(_rows(branch, branches).total() - _rows(own, 0)
                     for branch, own in ((value, p0), (deriv, p1), (curv, p2)))

    def p_at(self, x: np.ndarray) -> tuple[_Err, _Err, _Err]:
        """p(x), p'(x) and p''(x)."""
        u = self._to_u(_Err(x))
        return self.p.value(0, u), self.p.value(1, u) * self.scale, self.p.value(2, u) * (self.scale * self.scale)

    # -- third-derivative bounds on cells ------------------------------------

    def _sup_on_image(self, j: int, ylo, yhi) -> np.ndarray:
        """Bound of |p^(j)| (x units) on [ylo, yhi], an enclosure of a set in I."""
        ulo = self._to_u(_Err(np.clip(ylo, self.lo, self.hi))).low()
        uhi = self._to_u(_Err(np.clip(yhi, self.lo, self.hi))).high()
        s = self.scale.high()
        return _UP * self.p.sup_on(j, np.clip(ulo, -1.0, 1.0), np.clip(uhi, -1.0, 1.0)) * s**j

    def p_third(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Bound of |p'''| on each cell [left, right]."""
        return self._sup_on_image(3, left, right)

    def third(self, left: np.ndarray, right: np.ndarray, t: float) -> np.ndarray:
        """Bound of |(L_t p - p)'''| on each cell [left, right].

        Differentiating (L_t p)'' (``residual``) once more,
        (L_t p)''' = sum_b W^t ((t + 1) (t (t + 1/2) G^3 p(S)
        + 3/2 (2t + 1) G^2 S' p'(S) + 3 G S'^2 p''(S)) + S'^3 p'''(S)),
        bounded by the sum of the bounds of its terms' absolute values."""
        den_l, den_r = self._denominator(left), self._denominator(right)
        den_min = np.minimum(np.abs(den_l.v) - ERR_SLACK * den_l.e, np.abs(den_r.v) - ERR_SLACK * den_r.e)[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = _UP * np.abs(self.det.high())[1:] / den_min**2
            wt = _UP * np.power(w, t) * (1.0 + POW_ULPS * 2.0 * _U)
            g = _UP * np.abs(self.minus_2c[1:]) / den_min
        y_l, y_r = self._image(left, den_l), self._image(right, den_r)
        ylo = np.minimum(y_l.low(), y_r.low())[1:]
        yhi = np.maximum(y_l.high(), y_r.high())[1:]
        p0, p1, p2, p3 = (self._sup_on_image(j, ylo, yhi) for j in range(4))
        terms = wt * ((t + 1.0) * (t * (t + 0.5) * g**3 * p0 + 1.5 * (2.0 * t + 1.0) * g * g * w * p1
                                   + 3.0 * g * w * w * p2) + w**3 * p3)
        bound = _UP * (terms.sum(axis=0) * (1.0 + len(terms) * _U) + self.p_third(left, right))
        return np.where(np.all(den_min > 0.0, axis=0), bound, np.inf)


def _rows(x: _Err, rows) -> _Err:
    return _Err(x.v[rows], np.broadcast_to(x.e, np.shape(x.v))[rows])


def _maps_into_itself(maps: Mobius, lo: float, hi: float) -> bool:
    """No branch has a pole on [lo, hi] (its denominator, linear, keeps one
    strict sign at both ends) and each image, spanned by the images of the
    ends, lies in [lo, hi]."""
    a, b, c, d = (np.asarray(v, dtype=float)[:, None] for v in (maps.a, maps.b, maps.c, maps.d))
    ends = _Err(np.array([lo, hi]))
    den = c * ends + d
    if not (np.all(np.abs(den.v) > ERR_SLACK * den.e) and np.all((den.v[:, 0] > 0) == (den.v[:, 1] > 0))):
        return False
    y = (a * ends + b) / den
    return bool(np.all(y.low() >= lo) and np.all(y.high() <= hi))


def _positive_on_cells(lo: float, hi: float, bound_of, test):
    """The cells of a partition of [lo, hi] on each of which a function is
    shown positive, as arrays of left and right ends, or None.

    ``bound_of(left, right)`` bounds its third derivative on cells of the
    coarse partition; ``test(x)`` gives its value and first two derivatives
    (``_Err``) at the points x.  A failing cell is split into as many equal
    cells as its centre's value, derivatives and bound ask for."""
    edges = np.linspace(lo, hi, COARSE_CELLS + 1)
    edges[0], edges[-1] = lo, hi
    bounds = bound_of(edges[:-1], edges[1:])
    left, right, owner = edges[:-1], edges[1:], np.arange(COARSE_CELLS)
    passed = []
    tried = 0
    while len(left):
        tried += len(left)
        if tried > CELL_CAP:
            return None
        centre = 0.5 * (left + right)
        rad = np.nextafter(np.maximum(centre - left, right - centre), np.inf)
        value, slope, curv = test(centre)
        low = value.low()
        if np.any(low <= 0.0):
            return None
        steep = np.abs(slope.v) + ERR_SLACK * slope.e
        bend = np.abs(curv.v) + ERR_SLACK * curv.e
        m = bounds[owner]
        fail = ~(low > _UP * (rad * (steep + rad * (0.5 * bend + rad * m / 6.0))))
        passed.append((left[~fail], right[~fail]))
        reach = _reach(low[fail], steep[fail], bend[fail], m[fail])
        ratio = np.divide(1.25 * rad[fail], reach, out=np.full_like(reach, np.inf), where=reach > 0.0)
        pieces = np.clip(np.ceil(ratio), 2, 1 << 12).astype(np.int64)
        left, right, owner = _split(left[fail], right[fail], owner[fail], pieces)
    return np.concatenate([l for l, _ in passed]), np.concatenate([r for _, r in passed])


def _reach(v, s, b, m):
    """The radius at which v - s r - b r^2 / 2 - m r^3 / 6 reaches zero, for
    v > 0 and s, b, m >= 0, approached from above by Newton's method: the
    cubic falls and is concave for r > 0, so no step passes the root.  The
    start, the least of the radii at which each term alone reaches v, is
    within a factor 3 of the root."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.minimum(np.minimum(v / s, np.sqrt(2.0 * v / b)), np.cbrt(6.0 * v / m))
        for _ in range(4):
            excess = r * (s + r * (0.5 * b + r * m / 6.0)) - v
            r = r - excess / (s + r * (b + 0.5 * m * r))
    return r


def _split(left, right, owner, pieces):
    """Cell i cut into pieces[i] equal cells; the cut points, kept inside the
    cell, tile it exactly."""
    parent = np.repeat(np.arange(len(left)), pieces)
    j = ranges(0, pieces)
    n = pieces[parent]
    l, r = left[parent], right[parent]

    def cut(k):
        return np.where(k == 0, l, np.where(k == n, r, np.clip(l + (r - l) * (k / n), l, r)))

    return cut(j), cut(j + 1), owner[parent]


def _blocked(fn, rows: int):
    """fn applied to the points in blocks of at most _BLOCK // rows."""
    size = max(1, _BLOCK // rows)

    def run(x):
        parts = [fn(x[i:i + size]) for i in range(0, len(x), size)]
        return tuple(_Err(np.concatenate([p[k].v for p in parts]),
                          np.concatenate([np.broadcast_to(p[k].e, np.shape(p[k].v)) for p in parts]))
                     for k in range(len(parts[0])))
    return run


def _collocated_root(maps: Mobius, lo: float, hi: float):
    """t* and the Chebyshev coefficients of the eigenvector there, at the
    first degree of the ladder that resolves the eigenvector, or None."""
    for n in DEGREES:
        colloc = _Collocation(maps, lo, hi, n)
        t_star = colloc.root()
        if t_star is None:
            return None
        coef = colloc.eigenvector(t_star)
        if np.max(np.abs(coef[-3:])) <= TAIL_TOL * np.max(np.abs(coef)):
            return t_star, coef
    return None


def _certify(cert: _Certifier, t: float, sign: float):
    """The cells on which sign (L_t p - p) > 0 is shown, tiling the seed
    interval, or None."""
    def test(x):
        derivatives = cert.residual(x, t)
        return derivatives if sign > 0 else tuple(-f for f in derivatives)

    return _positive_on_cells(cert.lo, cert.hi, lambda l, r: cert.third(l, r, t), _blocked(test, len(cert.a)))


def certified_root(maps: Mobius, lo: float, hi: float) -> tuple[float, float] | None:
    """Certified enclosure of the root of the pressure of the real branches
    ``maps`` on [lo, hi], or None when the transfer operator cannot give one."""
    if len(maps.a) < 2 or not lo < hi or not _maps_into_itself(maps, lo, hi):
        return None
    found = _collocated_root(maps, lo, hi)
    if found is None:
        return None
    t_star, coef = found
    cert = _Certifier(maps, lo, hi, coef)
    if _positive_on_cells(lo, hi, cert.p_third, _blocked(cert.p_at, 1)) is None:
        return None
    eta = ETA
    for _ in range(ETA_DOUBLINGS + 1):
        t_lo, t_hi = t_star - eta, t_star + eta
        if (0.0 < t_lo and t_hi < 1.0 and _certify(cert, t_lo, 1.0) is not None
                and _certify(cert, t_hi, -1.0) is not None):
            return t_lo, t_hi
        eta *= 2.0
    return None
