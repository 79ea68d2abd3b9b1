"""Topological pressure with certified brackets and the dimensions it yields.

Two engines serve ``hausdorff_dimension``.  A finite alphabet of real
maps that are not all similarities goes to the transfer operator
(``transfer.certified_root``): a collocated eigenvector certified by
the min-max criterion at t* -/+ 4e-9, reported as method
``transfer_operator``.  Every other system, and a finite real alphabet
the transfer operator cannot certify, gets the word-sum brackets below
(``bracketed_conformal``), or the root of its ratio sum for a finite
similarity family (``exact_similarity``).

For a word w let ``sup_w`` and ``inf_w`` be the extremes of |S_w'| over
the seed domain.  The sums of ``sup_w^t`` over words of length n are
submultiplicative and the sums of ``inf_w^t`` supermultiplicative, so

    (1/n) log sum inf_w^t  <=  pressure(t)  <=  (1/n) log sum sup_w^t

at every depth.  One rule serves every family.  The head H is the
explicit branches followed by a prefix of the tail, ``HEAD_SIZE`` maps
in all for an infinite alphabet.  The depth D is the largest
n <= ``MAX_DEPTH_FINITE`` with |H|^n <= ``WORD_BUDGET``, and D = 1 for
similarity families, whose sums are multiplicative.  At depth n <= D
the sums run over the head words H^n, and the mass the head leaves out
of the depth-one sum, rho = psi_1 - S with S = sum over H of sup^t,
enters the upper sum as (S + rho)^n - S^n; for a finite alphabet rho
is zero.  The bracket returned is the intersection of the depth-one
and depth-n brackets.

Each crossing of ``hausdorff_dimension`` reads one end of the bracket:
h_hi where the upper end turns non-positive, h_lo where the lower end
does.  So it asks ``psi`` for that end alone (``end="upper"`` or
``end="lower"``), and ``psi`` passes the request on to the tail's
``psi1_bounds``: a bisection step raises one word table to the power t,
not two, and a continued-fraction tail sums its digit set once, not
twice.  The end not computed is the trivial bound, -inf or +inf; the
end computed equals that of the two-sided bracket bit for bit.

The word-sum extremes bound the pressure only when every branch maps
the seed domain into itself, so a branch of the explicit list or of the
head whose image leaves the domain (``validate_cifs``'s containment
test) is a configuration error, as is a pole.

The explicit branches and the head are read from one batch,
``CifsSpec.first_maps``, whose tail part comes from the tail's
``generation_arrays``.  Word tables hold float64 entries on the line
and complex128 ones in the plane; numpy's complex kernels round real
inputs as float64 does, and run faster than ``CArray``.  The derivative
extremes use numpy's square, not the ``float_power`` of
``mobius.deriv_ranges_*``; the two differ in the last bit on a small
share of inputs, which would move the enclosures.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .cifs import CifsSpec, geometry
from .errors import ConfigurationError, DomainError
from .maps import Similarity
from .mobius import CArray, Disc, Mobius, line_denominators, take_mobius
from .series import power_sum_bounds
from .tails import PowerRule, SimilarityTail
from .transfer import certified_root

MAX_DEPTH_FINITE = 12
WORD_BUDGET = 300_000
HEAD_SIZE = 192

SIMILARITY_TOL = 1e-9
CONFORMAL_TOL = 1e-4


@dataclass(frozen=True)
class PressureProfile:
    """Certified bracket for (1/n) log psi_n(t), tail mass included."""

    t: float
    depth: int
    lower: float
    upper: float

    @property
    def divergent(self) -> bool:
        """Read from the upper end, so true of any lower-end-only profile."""
        return math.isinf(self.upper) and self.upper > 0


@dataclass(frozen=True)
class DimensionResult:
    value: float
    enclosure: tuple[float, float]
    method: str
    converged: bool = True

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# word tables


def _deriv_bounds_arrays(spec: CifsSpec, m: Mobius) -> tuple[np.ndarray, np.ndarray]:
    """Extremes of |m'| over the seed domain per map; a pole on it is an error.

    The squares are numpy's, not the float_power of mobius.deriv_ranges_*:
    the two differ in the last bit on some inputs, which would move
    every enclosure."""
    det = np.abs(m.a * m.d - m.b * m.c)
    if spec.ambient_dim == 1:
        q0, q1, poles = line_denominators(m, spec.domain)
        if np.any(poles):
            raise ConfigurationError("a branch has a pole on the seed domain")
        q0, q1 = np.abs(q0), np.abs(q1)
        qmin = np.minimum(q0, q1)
        qmax = np.maximum(q0, q1)
    else:
        assert isinstance(spec.domain, Disc)
        u = np.abs(m.c * spec.domain.center + m.d)
        spread = np.abs(m.c) * spec.domain.radius
        qmin = u - spread
        qmax = u + spread
        if np.any(qmin <= 0):
            raise ConfigurationError("a branch has a pole on the seed domain")
    return det / qmax**2, det / qmin**2


def _extend(words: Mobius, head: Mobius) -> Mobius:
    """Every word followed by every head map: w o h, word-major."""
    wide = Mobius(*(x[:, None] for x in (words.a, words.b, words.c, words.d)))
    long = Mobius(*(x[None, :] for x in (head.a, head.b, head.c, head.d)))
    out = wide.compose(long)
    return Mobius(out.a.ravel(), out.b.ravel(), out.c.ravel(), out.d.ravel())


def _numeric(m: Mobius) -> Mobius:
    """float64 entries on the line; complex128 in the plane, where
    numpy's complex kernels run faster than CArray's."""
    if isinstance(m.a, CArray):
        return Mobius(*(x.to_complex() for x in (m.a, m.b, m.c, m.d)))
    return m


class _Tables:
    """Per-system cache: the head, the depth D and the word tables.

    The explicit branches and the head come from one batch,
    CifsSpec.first_maps.  The extremes of |S_w'| over the seed domain
    do not depend on the pressure exponent, so bisection re-evaluates
    only power sums.  The tables hold no reference to their spec, so
    that the spec can key them weakly."""

    def __init__(self, spec: CifsSpec):
        n = len(spec.explicit)
        sample = max(HEAD_SIZE - n, 8) if spec.tail is not None else 0
        first = spec.first_maps(sample)
        maps = _numeric(first)
        self.explicit = _deriv_bounds_arrays(spec, take_mobius(maps, slice(0, n)))
        self.head = take_mobius(maps, slice(0, HEAD_SIZE)) if spec.tail is not None else maps
        # similarity sums are multiplicative, so depth one is exact
        self.depth = 1
        while (not spec.is_similarity() and self.depth < MAX_DEPTH_FINITE
               and len(self.head.a) ** (self.depth + 1) <= WORD_BUDGET):
            self.depth += 1
        self.words: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the extremes of |S_w'| over the seed domain bound the pressure
        # only if every branch maps the domain into itself
        geo = geometry(spec.domain)
        if np.any(geo.poles(first)):
            raise ConfigurationError("a branch has a pole on the seed domain")
        if not np.all(geo.inside(geo.regions(first))):
            raise ConfigurationError("a branch maps the seed domain outside itself; no certified bracket")

    def word_bounds(self, spec: CifsSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Derivative extremes over the head words of length n."""
        if n not in self.words:
            words = self.head
            for _ in range(n - 1):
                words = _extend(words, self.head)
            self.words[n] = _deriv_bounds_arrays(spec, words)
        return self.words[n]


# specs compare by identity; a spec's tables go when the spec does
_TABLES: weakref.WeakKeyDictionary[CifsSpec, _Tables] = weakref.WeakKeyDictionary()


def _tables(spec: CifsSpec) -> _Tables:
    tab = _TABLES.get(spec)
    if tab is None:
        tab = _TABLES[spec] = _Tables(spec)
    return tab


# ---------------------------------------------------------------------------
# pressure


def _psi1_bounds(spec: CifsSpec, tab: _Tables, t: float, end: str | None) -> tuple[float, float]:
    dlo, dhi = tab.explicit
    tlo, thi = spec.tail.psi1_bounds(t, spec.domain, end=end) if spec.tail is not None else (0.0, 0.0)
    lo = float(np.sum(dlo**t)) + tlo if end != "upper" else 0.0
    hi = float(np.sum(dhi**t)) + thi if end != "lower" else math.inf
    return lo, hi


def _cross_terms(s: float, rho: float, n: int) -> float:
    """(s + rho)^n - s^n by Horner in rho; rho * (2 s + rho) at n = 2."""
    acc = 1.0
    for k in range(n - 1, 0, -1):
        acc = math.comb(n, k) * s ** (n - k) + rho * acc
    return rho * acc


def psi(spec: CifsSpec, t: float, n: int = 1, end: str | None = None) -> PressureProfile:
    """Certified bracket for (1/n) log psi_n(t) at depth min(n, D).

    ``end="lower"`` or ``end="upper"`` computes that end only and leaves
    the other at its trivial bound, -inf or +inf, bit for bit the end
    of the two-sided bracket.  A divergent sum (infinite tail below its
    finiteness parameter) yields an infinite upper endpoint rather than
    an error.
    """
    if t <= 0:
        raise DomainError(f"pressure exponent t must be positive, got {t}")
    if n < 1:
        raise DomainError(f"depth must be at least 1, got {n}")
    if end not in (None, "lower", "upper"):
        raise DomainError(f"end must be 'lower', 'upper' or None, got {end!r}")
    tab = _tables(spec)
    lo1, hi1 = _psi1_bounds(spec, tab, t, end)
    lower, upper = _safe_log(lo1), _safe_log(hi1)
    depth = min(n, tab.depth)
    if depth > 1 and end != "lower":
        head_sup = float(np.sum(tab.word_bounds(spec, 1)[1] ** t))
        rest = max(hi1 - head_sup, 0.0)
        whi = tab.word_bounds(spec, depth)[1]
        hi_n = float(np.sum(whi**t)) + _cross_terms(head_sup, rest, depth)
        upper = min(upper, _safe_log(hi_n) / depth)
    if depth > 1 and end != "upper":
        wlo = tab.word_bounds(spec, depth)[0]
        lower = max(lower, _safe_log(float(np.sum(wlo**t))) / depth)
    return PressureProfile(t, depth, lower, upper)


def _safe_log(x: float) -> float:
    if x <= 0.0:
        return -math.inf
    if math.isinf(x):
        return math.inf
    return math.log(x)


# ---------------------------------------------------------------------------
# Hausdorff dimension


def _bisect_monotone(pred, lo: float, hi: float, iters: int = 200) -> tuple[float, float]:
    """Shrink [lo, hi] so pred is false at lo and true at hi (pred monotone)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _crossing(pred, lo: float, hi: float) -> tuple[float, float]:
    """Where a monotone pred turns true on [lo, hi]; (0, lo) or (hi, hi) off the ends."""
    if pred(lo):
        return 0.0, lo
    if not pred(hi):
        return hi, hi
    return _bisect_monotone(pred, lo, hi)


def hausdorff_dimension(spec: CifsSpec, tol: float | None = None) -> DimensionResult:
    """Root of the pressure equation: the transfer operator's certified
    enclosure for a finite real alphabet that is not a similarity family,
    else bisection on certified signs at depth D."""
    similarity = spec.is_similarity()
    if tol is None:
        tol = SIMILARITY_TOL if similarity else CONFORMAL_TOL
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if not spec.explicit and spec.tail is None:
        raise ConfigurationError("the family has no branches")
    if spec.ambient_dim == 1 and spec.tail is None and not similarity:
        found = certified_root(spec.first_maps(0), *spec.domain)
        if found is not None:
            h_lo, h_hi = found
            return DimensionResult(0.5 * (h_lo + h_hi), found, "transfer_operator", (h_hi - h_lo) <= tol)
    d = float(spec.ambient_dim)
    t_min = 1e-12
    depth = _tables(spec).depth
    _, h_hi = _crossing(lambda t: psi(spec, t, depth, end="upper").upper <= 0.0, t_min, d)
    if similarity and spec.tail is None:
        # a finite sum of ratio powers errs by rounding only: pad its root
        root = h_hi if h_hi > t_min else 0.0
        eps = 16.0 * np.finfo(float).eps * max(1.0, root) if 0.0 < root < d else 0.0
        return DimensionResult(root, (max(root - eps, 0.0), root + eps), "exact_similarity", True)
    h_lo, _ = _crossing(lambda t: psi(spec, t, depth, end="lower").lower <= 0.0, t_min, d)
    h_lo = min(h_lo, h_hi)
    method = "exact_similarity" if similarity else "bracketed_conformal"
    return DimensionResult(0.5 * (h_lo + h_hi), (h_lo, h_hi), method, (h_hi - h_lo) <= tol)


def finiteness_parameter(spec: CifsSpec) -> float:
    """Infimum of t with finite pressure; analytic for every tail kind."""
    if spec.tail is None:
        return 0.0
    return spec.tail.finiteness_parameter()


# ---------------------------------------------------------------------------
# constructive family with prescribed Hausdorff dimension


def build_sharp_family(p: float, t: float, h: float) -> CifsSpec:
    """Polynomial-offset similarity family whose limit set has dimension h.

    Branches sit on the sequence i^(-p); beyond a cutoff N the ratios
    follow p * i^(-t), and the first ratios are scaled by a common
    factor so the dimension equation holds exactly at h.
    """
    if p <= 0:
        raise DomainError(f"offset exponent p must be positive, got {p}")
    if t < p + 1:
        raise DomainError(f"tail exponent must satisfy t >= p + 1, got t={t}, p={p}")
    if not (1.0 / t < h < 1.0):
        raise DomainError(f"target dimension must lie in (1/t, 1) = ({1.0/t:.4g}, 1), got {h}")

    def tail_mass_hi(n: int) -> float:
        return p**h * power_sum_bounds(t * h, n + 1)[1]

    def head_gaps(n: int) -> np.ndarray:
        j = np.arange(2, n + 1, dtype=float)
        return (j - 1.0) ** (-p) - j ** (-p)

    def admissible(n: int) -> bool:
        return tail_mass_hi(n) < 1.0 and float(np.sum(head_gaps(n) ** h)) >= 1.0

    # both inequalities are monotone in the cutoff; grow geometrically,
    # then binary-search the minimal admissible value
    n = 2
    while not admissible(n):
        n *= 2
        if n > 50_000_000:
            raise ConfigurationError("no cutoff satisfies both dimension-equation inequalities")
    lo_n, hi_n = max(2, n // 2), n
    while lo_n < hi_n:
        mid = (lo_n + hi_n) // 2
        if admissible(mid):
            hi_n = mid
        else:
            lo_n = mid + 1
    n = hi_n
    gaps = head_gaps(n)

    tail_lo, tail_hi = power_sum_bounds(t * h, n + 1)
    tail_mid = p**h * 0.5 * (tail_lo + tail_hi)
    gap_pow = float(np.sum(gaps**h))

    # the scale at which the dimension equation holds
    _, lam = _bisect_monotone(lambda lam: lam**h * gap_pow + tail_mid - 1.0 >= 0.0, 0.0, 1.0)

    js = np.arange(2, n + 1)
    explicit = tuple(
        (int(j), Similarity(float(lam * g), float(j) ** (-p))) for j, g in zip(js, gaps)
    )
    tail = SimilarityTail(PowerRule(p, t), PowerRule(1.0, p), start=n + 1)
    return CifsSpec(
        1,
        (0.0, 1.0),
        explicit,
        tail,
        meta={"family": "sharp", "p": p, "t": t, "h": h, "cutoff": n, "scale": lam},
    )
