"""Scalar forms of the batch Moebius engine, one map at a time.

The package handles maps only as batches (``ifsdim.mobius``,
``generation_arrays``).  The tests keep the scalar region functions and
the per-generation maps of every tail rule here, written from their
definitions, as the oracle the batch forms must match bit for bit.
The exhaustive minimum 1-D cover count is the oracle of the estimator's
greedy sweep, the per-step net centres that of its batched ones, and the
netting walk of one node, one generation at a time, the oracle of the
cloud builder's lockstep walk.  The word-sum engine's head words, all
formed at once, are the oracle of its streamed word tables, and the
clustered digit sums over whole blocks that of their segments.  The
closed-form spectra are kept as each family wrote its own, the oracle of
the shared one- and two-transition forms, and so are the three capped
fixed-point spectra, the oracle of ``capped_spectrum``.
"""

import math

import numpy as np

from ifsdim.errors import DomainError
from ifsdim.maps import Composite, ComplexGaussBranch, GaussBranch, Similarity
from ifsdim.mobius import Disc, Mobius
from ifsdim.tails import (
    ComplexGaussTail,
    FullDigits,
    GaussDigitTail,
    InducedParabolicTail,
    SimilarityTail,
    SpacedDigits,
    generation_reaching,
)


def interval_image(m: Mobius, iv):
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


def deriv_range_interval(m: Mobius, iv):
    """Range of |m'| over an interval, exact via endpoint denominators,
    with interval_image's pole rule."""
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
    """Exact image disc of a disc under a complex Moebius map; the disc
    must avoid the pole -d/c."""
    if m.c == 0:
        scale = m.a / m.d
        return Disc(scale * disc.center + m.b / m.d, abs(scale) * disc.radius)
    # write m = a/c + (b - a d / c) / (c z + d) and invert the inner disc
    u_center = m.c * disc.center + m.d
    u_radius = abs(m.c) * disc.radius
    mod2 = abs(u_center) ** 2 - u_radius**2
    if mod2 <= 0.0:
        raise ZeroDivisionError("Moebius pole lies inside the disc")
    inv_center = u_center.conjugate() / mod2
    inv_radius = u_radius / mod2
    coeff = m.b - m.a * m.d / m.c
    return Disc(m.a / m.c + coeff * inv_center, abs(coeff) * inv_radius)


def deriv_range_disc(m: Mobius, disc: Disc):
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


def digit_loop(digits, g):
    """The g-th digit of a digit set, counted from its definition."""
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


def shell_loop(norm):
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


def generation_maps(tail, g):
    """The branch kinds of tail generation g, in generation_arrays' order."""
    if isinstance(tail, SimilarityTail):
        i = tail.start + g
        return [Similarity(tail.ratios.value(i), tail.offsets.value(i))]
    if isinstance(tail, GaussDigitTail):
        return [GaussBranch(digit_loop(tail.digits, g))]
    if isinstance(tail, ComplexGaussTail):
        out = []
        for m, n in shell_loop(g + 1):
            if (m, n) != (1, 0):
                out.append(ComplexGaussBranch(complex(m, n)))
            out.append(Composite((ComplexGaussBranch(1 + 0j), ComplexGaussBranch(complex(m, n)))))
        return out
    assert isinstance(tail, InducedParabolicTail)
    return [branch if g == 0 else Composite((tail.parabolic,) * g + (branch,)) for _, branch in tail.branches]


def netting_walk(tail, anchor, base_step: float, g: int) -> list:
    """The netting walk of one node, one generation at a time.

    From generation g on, the walk visits each generation until the
    first whose envelope lies within base_step of the origin.  A visit
    keeps the anchor's image under every map of the generation.  The
    walk then moves on to the later of the next generation and the first
    generation whose envelope lies below the lower edge of the base-step
    cell holding the image closest to the origin.  Returns the images
    of every visit, in walk order.
    """
    visits = []
    while tail.envelope_reach(np.array([g]))[0] >= base_step:
        _, maps = tail.generation_arrays(np.array([g]))
        images = maps(anchor)
        visits.append(images)
        nxt = g + 1
        if len(images):
            edge = math.floor(float(np.min(abs(images))) / base_step) * base_step
            if edge > 0.0:
                nxt = max(nxt, int(generation_reaching(tail, [edge])[0]))
        g = nxt
    return visits


def exhaustive_cover_count_1d(points: np.ndarray, r: float) -> int:
    """Minimum over all covers by intervals [x_j, x_j + 2r] anchored at
    point positions; independent reference for the greedy sweep."""
    pts = np.unique(np.asarray(points, dtype=float))
    n = len(pts)
    memo: dict[int, int] = {n: 0}

    def best(i: int) -> int:
        if i in memo:
            return memo[i]
        lo = int(np.searchsorted(pts, pts[i] - 2.0 * r, side="left"))
        out = math.inf
        for j in range(lo, i + 1):
            nxt = int(np.searchsorted(pts, pts[j] + 2.0 * r, side="right"))
            out = min(out, 1 + best(nxt))
        memo[i] = int(out)
        return memo[i]

    return best(0) if n else 0


def net_centers_1d(points: np.ndarray, step: float) -> np.ndarray:
    """The first point of every occupied cell floor(x / step) of a sorted
    cloud, one step at a time: the reference of the estimator's batched
    net centres."""
    cells = np.floor(points / step)
    return points[np.r_[True, cells[1:] != cells[:-1]]] if len(points) else points


def head_word_bounds(spec, head: Mobius, head_det: np.ndarray, n: int):
    """Derivative extremes of every head word of length n at once: the
    word-sum engine's construction before it streamed its words.

    Every word is the left fold ((h_1 o h_2) o ...) o h_n, word-major,
    and its |det| the product of its letters' first letter first; the
    extremes are det / |c x + d|^2 with numpy's squares, the oracle of
    ``pressure._Tables.word_bounds``."""
    words, dets = head, head_det
    for _ in range(n - 1):
        wide = Mobius(*(x[:, None] for x in (words.a, words.b, words.c, words.d)))
        long = Mobius(*(x[None, :] for x in (head.a, head.b, head.c, head.d)))
        out = wide.compose(long)
        words = Mobius(out.a.ravel(), out.b.ravel(), out.c.ravel(), out.d.ravel())
        dets = np.outer(dets, head_det).ravel()
    if spec.ambient_dim == 1:
        lo, hi = spec.domain
        q0, q1 = np.abs(words.c * lo + words.d), np.abs(words.c * hi + words.d)
        qmin, qmax = np.minimum(q0, q1), np.maximum(q0, q1)
    else:
        u = np.abs(words.c * spec.domain.center + words.d)
        spread = np.abs(words.c) * spec.domain.radius
        qmin, qmax = u - spread, u + spread
    return dets / qmax**2, dets / qmin**2


def clustered_block_sums(digits, s: float, shift: int) -> list:
    """The sum of (b + shift)^-s over each explicit block of a clustered
    digit set, every block's digits summed as one array."""
    sums = []
    for k in range(1, digits.k_explicit + 1):
        lo, hi = 2**k, math.floor(2**k + 2 ** (k * digits.alpha))
        bs = np.arange(lo, hi + 1, dtype=float) + shift
        sums.append(float(np.sum(bs ** (-s))))
    return sums


def clustered_sup_sum_bounds(digits, s: float, shift: int):
    """ClusteredDigits.sup_sum_bounds over clustered_block_sums: the
    oracle of its segmented sums."""
    if s <= digits.alpha:
        return math.inf, math.inf
    head = 0.0
    for block in clustered_block_sums(digits, s, shift):
        head += block
    k0 = digits.k_explicit + 1
    qa = 2.0 ** (digits.alpha - s)
    qs = 2.0**-s
    hi_tail = (qa**k0 / (1.0 - qa)) + (qs**k0 / (1.0 - qs))
    lo_tail = (4.0**-s) * qa**k0 / (1.0 - qa)
    return head + lo_tail, head + hi_tail


def sharp_family_spectrum(p: float, t: float, h: float, theta: float) -> float:
    """Three-case spectrum of the polynomial-offset families.

    The case is selected by the tail exponent: at t = p + 1 the upper
    bound is attained, for t >= p + 1/h the lower bound is attained,
    and in between the spectrum has two phase transitions.
    """
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    if t < p + 1.0 - 1e-12:
        raise DomainError(f"tail exponent must satisfy t >= p + 1, got {t}")
    if not (1.0 / (1.0 + p) < h < 1.0):
        raise DomainError(f"h must lie in (1/(1+p), 1) = ({1.0/(1.0+p):.4g}, 1), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0:
        return 1.0
    rho = p / (1.0 + p)
    if t >= p + 1.0 / h:
        kink = (h + h * p - 1.0) / (h * (1.0 + p))
        if theta <= kink:
            return h
        if theta < rho:
            return 1.0 / ((1.0 + p) * (1.0 - theta))
        return 1.0
    if t > p + 1.0:
        kink = (h + h * p - 1.0) * p / ((1.0 + p) * (h * t - 1.0))
        if theta <= kink:
            return h + theta / (p * (1.0 - theta)) * (1.0 - h * (t - p))
        if theta < rho:
            return 1.0 / ((1.0 + p) * (1.0 - theta))
        return 1.0
    if theta < rho:
        return h + theta / (p * (1.0 - theta)) * (1.0 - h)
    return 1.0


def ctd_spaced_spectrum(p: float, h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with digits spaced like n^p."""
    if p <= 1.0:
        raise DomainError(f"spaced digit sets need p > 1, got {p}")
    if not (1.0 / (p + 1.0) < h < 1.0 / p):
        raise DomainError(f"h must lie in (1/(p+1), 1/p) = ({1.0/(p+1.0):.4g}, {1.0/p:.4g}), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0:
        return 1.0
    rho = p / (1.0 + p)
    kink = (h + h * p - 1.0) * p / ((1.0 + p) * (2.0 * p * h - 1.0))
    if theta <= kink:
        return h + theta / (p * (1.0 - theta)) * (1.0 - h * p)
    if theta < rho:
        return 1.0 / ((1.0 + p) * (1.0 - theta))
    return 1.0


def ctd_clustered_spectrum(alpha: float, h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with digit blocks [2^k, 2^k + 2^(k alpha)]."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if h < alpha / 2.0:
        raise DomainError(f"h must be at least the finiteness parameter alpha/2 = {alpha/2.0}, got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    rho = 1.0 - alpha / 2.0
    if theta >= rho:
        return 1.0
    return h + alpha * theta / ((1.0 - theta) * (2.0 - alpha)) * (1.0 - h)


def dense_cf_spectrum(h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with full-density digit sets."""
    if h < 0.5:
        raise DomainError(f"full-density digit sets force h >= 1/2, got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 0.5:
        return 1.0
    return h + theta / (1.0 - theta) * (1.0 - h)


def complex_cf_spectrum(h: float, theta: float) -> float:
    """Spectrum of the full complex continued-fraction set, h supplied by the caller."""
    if not (1.0 <= h <= 2.0):
        raise DomainError(f"h must lie in [1, 2], got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 0.5:
        return 2.0
    return h + theta / (1.0 - theta) * (2.0 - h)


def parabolic_spectrum(q: float, h: float, theta: float) -> float:
    """Spectrum of a parabolic attractor with tangency exponent q at its fixed point."""
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if not (0.0 < h < 1.0):
        raise DomainError(f"h must be in (0,1), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0 / (1.0 + q):
        return 1.0
    return h + q * theta / (1.0 - theta) * (1.0 - h)


# the capped fixed-point spectra min(num / (den (1 - theta)), top), each as
# its own caller wrote it before they shared ``capped_spectrum``


def fp_capped(p: float, th: np.ndarray) -> np.ndarray:
    """``fp_spectrum(p, .)``."""
    with np.errstate(divide="ignore"):
        return np.minimum(1.0 / ((1.0 + p) * (1.0 - th)), 1.0)


def clustered_capped(alpha: float, th: np.ndarray) -> np.ndarray:
    """``ClusteredDigits(alpha).fixed_point_spectrum``."""
    with np.errstate(divide="ignore"):
        return np.where(th < 1.0, np.minimum(alpha / (2.0 * (1.0 - th)), 1.0), 1.0)


def complex_capped(th: np.ndarray) -> np.ndarray:
    """``ComplexGaussTail().fixed_point_spectrum``."""
    with np.errstate(divide="ignore"):
        return np.where(th < 1.0, np.minimum(1.0 / (1.0 - th), 2.0), 2.0)
