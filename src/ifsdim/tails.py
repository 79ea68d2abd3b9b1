"""Tail rules describing the infinite part of a contraction family.

A tail rule enumerates countably many branches in a canonical order of
decreasing size, organised into *generations*: finite batches (possibly
empty) whose images from any generation onwards are confined to a
shrinking envelope around a single accumulation point.  That envelope
is what lets the cloud builder truncate an infinite alphabet at a
chosen resolution without losing any cylinder above it.

Every rule answers three array queries, each in closed form with no
table that grows with the resolution:

* ``generation_arrays(gs)`` -- the Moebius maps of the generations
  ``gs`` as one batch, with the position in ``gs`` that owns each map;
* ``envelope_reach(gs)`` -- the largest distance from the accumulation
  point to the envelope of each generation;
* ``generation_reaching(xs)`` -- per threshold x > 0, the first
  generation g with ``envelope_reach(g) < x``; envelopes shrink, so
  every later envelope lies within distance x as well.

``generation_arrays`` is the only way a tail branch is enumerated: the
cloud builder, the first-level batch of ``CifsSpec.first_maps`` and the
bracket tables all read it, and a tail map is named by the generation
that owns it.  The tests build the same maps from the branch kinds of
``maps``, one generation at a time, and check it bit for bit.

Next to ``finiteness_parameter``, every rule answers
``fixed_point_spectrum(theta)`` from its own parameters: the Assouad
spectrum of the fixed points of its branches, at a float or an array of
theta, a float for a float and an array for an array.  Its value at
theta = 0 is their upper box dimension.  A similarity tail reads its
offsets rule (a power rule i^(-p) gives ``fp_spectrum(p, .)``, a
geometric one 0); a continued-fraction tail reads its digit set (spaced
n^p gives ``fp_spectrum(p, .)``, full ``fp_spectrum(1, .)``, clustered
min(alpha / (2 (1 - theta)), 1)); the complex alphabet gives
min(1 / (1 - theta), 2); the induced parabolic family with tangency
exponent q gives ``fp_spectrum(1/q, .)``, since P^n(x) ~ n^(-1/q).

The rules with a non-trivial ``psi1_bounds`` bracket (the complex
continued-fraction alphabet and the induced parabolic family) read it
from a table that does not depend on the pressure exponent.  A tail's
bracket table is built once per seed region from ``generation_arrays``
(or, for the complex alphabet, from the same shell enumeration
``_shells``) with the array region functions of ``mobius``, never by a
scalar loop over maps; each call only raises the table to the exponent
and sums it.

``psi1_bounds(t, domain, end=None)`` brackets the sum of |S_b'|^t over
the tail's branches.  With ``end="lower"`` or ``end="upper"`` a rule
computes that end only and returns 0.0 or +inf for the other, so the
pressure crossings, which each read one end, pay for one.  A similarity
tail computes both ends for either, since they share one head sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .maps import ComplexGaussBranch, MapKind
from .mobius import (
    CArray,
    Disc,
    Interval,
    Mobius,
    deriv_ranges_disc,
    deriv_ranges_interval,
    disc_images,
    interval_images,
    stack_mobius,
    take_mobius,
)
from .series import geometric_tail_bounds, power_sum_bounds, power_tail_bounds
from .spectra import float_or_array, fp_spectrum, null_spectrum

Label = Union[int, tuple]


def _positive(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0):
        raise ConfigurationError("threshold must be positive")
    return xs


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0..counts[i]-1 for every i, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


# ---------------------------------------------------------------------------
# scalar rules for similarity tails


def _settle_first_below(rule, guess: np.ndarray, t: np.ndarray, lowest: int) -> np.ndarray:
    """Move closed-form guesses to the smallest index >= lowest whose
    exact value is below t; the guesses are off by rounding only."""
    i = np.maximum(guess, lowest)
    while True:
        high = rule.exact_values_at(i) >= t
        if not high.any():
            break
        i = i + high
    while True:
        low = (i > lowest) & (rule.exact_values_at(np.maximum(i - 1, lowest)) < t)
        if not low.any():
            return i
        i = i - low


@dataclass(frozen=True)
class PowerRule:
    """value(i) = coef * i**(-exponent)."""

    coef: float
    exponent: float

    def __post_init__(self):
        if self.coef <= 0 or self.exponent <= 0:
            raise ConfigurationError("power rule needs positive coefficient and exponent")

    def value(self, i: int) -> float:
        return self.coef * float(i) ** (-self.exponent)

    def exact_values_at(self, idx: np.ndarray) -> np.ndarray:
        """value(i) per index, bit for bit: float_power uses libm pow, as ** in value does."""
        return self.coef * np.float_power(np.asarray(idx, dtype=float), -self.exponent)

    def first_indices_below(self, thresholds: np.ndarray) -> np.ndarray:
        """Smallest index i >= 1 with value(i) < threshold, per threshold (> 0)."""
        t = np.asarray(thresholds, dtype=float)
        guess = np.floor((self.coef / t) ** (1.0 / self.exponent)).astype(np.int64) + 1
        return _settle_first_below(self, guess, t, 1)

    def sum_pow_bounds(self, t: float, start: int) -> tuple[float, float]:
        lo, hi = power_sum_bounds(self.exponent * t, start)
        scale = self.coef**t
        return scale * lo, scale * hi

    def finiteness(self) -> float:
        return 1.0 / self.exponent

    def spectrum(self, theta):
        """Assouad spectrum of the values, the sequence i^(-exponent)."""
        return fp_spectrum(self.exponent, theta)


@dataclass(frozen=True)
class GeometricRule:
    """value(i) = coef * base**i with base in (0,1)."""

    coef: float
    base: float

    def __post_init__(self):
        if self.coef <= 0 or not (0.0 < self.base < 1.0):
            raise ConfigurationError("geometric rule needs coef > 0 and base in (0,1)")

    def value(self, i: int) -> float:
        return self.coef * self.base**i

    def exact_values_at(self, idx: np.ndarray) -> np.ndarray:
        """value(i) per index, bit for bit: float_power uses libm pow, as ** in value does."""
        return self.coef * np.float_power(self.base, np.asarray(idx, dtype=float))

    def first_indices_below(self, thresholds: np.ndarray) -> np.ndarray:
        """Smallest index i >= 0 with value(i) < threshold, per threshold (> 0)."""
        t = np.asarray(thresholds, dtype=float)
        guess = np.floor(np.log(t / self.coef) / math.log(self.base)).astype(np.int64) + 1
        return _settle_first_below(self, guess, t, 0)

    def sum_pow_bounds(self, t: float, start: int) -> tuple[float, float]:
        return geometric_tail_bounds(self.coef, self.base, t, start)

    def finiteness(self) -> float:
        return 0.0

    def spectrum(self, theta):
        """Assouad spectrum of the values: a geometric sequence has 0 throughout."""
        return null_spectrum(theta)


ScalarRule = Union[PowerRule, GeometricRule]


@dataclass(frozen=True)
class SimilarityTail:
    """Branches S_i(x) = ratio(i) x + offset(i) for i >= start.

    Offsets must decrease to zero so the accumulation point is the
    origin; ratios must decrease so sizes are monotone in the index.
    """

    ratios: ScalarRule
    offsets: ScalarRule
    start: int

    def __post_init__(self):
        if self.start < 1:
            raise ConfigurationError("tail start index must be at least 1")

    def generation_arrays(self, gs: np.ndarray) -> tuple[np.ndarray, Mobius]:
        i = self.start + np.asarray(gs)
        ratio = self.ratios.exact_values_at(i)
        offset = self.offsets.exact_values_at(i)
        return np.arange(len(i)), Mobius(ratio, offset, np.zeros_like(ratio), np.ones_like(ratio))

    def envelope_reach(self, gs: np.ndarray) -> np.ndarray:
        # envelope of generation g is [0, offset(i) + ratio(i)]
        i = self.start + np.asarray(gs)
        return self.offsets.exact_values_at(i) + self.ratios.exact_values_at(i)

    def generation_reaching(self, xs: np.ndarray) -> np.ndarray:
        # the first generation whose envelope is within x; an envelope is
        # never below its offset, so the walk starts at the first offset below x
        xs = _positive(xs)
        g = np.maximum(self.offsets.first_indices_below(xs) - self.start, 0)
        while True:
            above = self.envelope_reach(g) >= xs
            if not above.any():
                return g
            g = g + above

    def accumulation_point(self) -> float:
        return 0.0

    def sup_contraction(self) -> float:
        return self.ratios.value(self.start)

    def psi1_bounds(self, t: float, _domain, end: str | None = None) -> tuple[float, float]:
        # both ends share one head sum, so both are computed for either end
        return self.ratios.sum_pow_bounds(t, self.start)

    def finiteness_parameter(self) -> float:
        return self.ratios.finiteness()

    def fixed_point_spectrum(self, theta):
        # the fixed points offset(i) / (1 - ratio(i)) follow the offsets, as ratio(i) -> 0
        return self.offsets.spectrum(theta)


# ---------------------------------------------------------------------------
# restricted continued-fraction digit sets


@dataclass(frozen=True)
class SpacedDigits:
    """Digits floor(n**p) for n >= 2, polynomially spaced."""

    p: float

    def __post_init__(self):
        if self.p < 1.0:
            raise ConfigurationError("spaced digit sets need p >= 1")

    def digits_at(self, gs: np.ndarray) -> np.ndarray:
        # float_power rounds as Python's ** does; numpy's power may not
        return np.floor(np.float_power(2.0 + np.asarray(gs), self.p)).astype(np.int64)

    def indices_above(self, xs: np.ndarray) -> np.ndarray:
        """Per x, the index of the first digit above x."""
        xs = np.asarray(xs, dtype=float)
        n = np.maximum(2, np.ceil(np.float_power(np.maximum(xs, 1.0), 1.0 / self.p)).astype(np.int64) - 1)
        while True:
            low = self.digits_at(n - 2) <= xs
            if not low.any():
                return n - 2
            n = n + low

    def sup_sum_bounds(self, s: float, shift: int) -> tuple[float, float]:
        """Bracket of sum over digits b of (b + shift)^(-s)."""
        if self.p * s <= 1.0:
            return math.inf, math.inf
        head_n = 2048
        ns = np.arange(2, head_n, dtype=float)
        bs = np.floor(ns**self.p) + shift
        head = float(np.sum(bs ** (-s)))
        # For n >= head_n:  n^p (1 - head_n^-p) < floor(n^p) + shift <= n^p + shift
        lo_fac = (1.0 + (shift + 1.0) * head_n ** (-self.p)) ** (-s)
        hi_fac = (1.0 - head_n ** (-self.p)) ** (-s)
        tlo, thi = power_tail_bounds(self.p * s, head_n)
        return head + lo_fac * tlo, head + hi_fac * thi

    def finiteness_parameter(self) -> float:
        return 1.0 / (2.0 * self.p)

    def fixed_point_spectrum(self, theta):
        # fixed points lie within a bounded factor of 1/b = n^(-p)
        return fp_spectrum(self.p, theta)

    def min_digit(self) -> int:
        return math.floor(2**self.p)


@dataclass(frozen=True)
class ClusteredDigits:
    """Digits in the union of blocks [2^k, 2^k + 2^(k*alpha)]."""

    alpha: float
    k_explicit: int = 28

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("clustered digit sets need alpha in (0,1)")

    def _block(self, k: int) -> tuple[int, int]:
        lo = 2**k
        hi = math.floor(2**k + 2 ** (k * self.alpha))
        return lo, hi

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block ends and the index of each block's first digit, k = 1..60."""
        ends = [self._block(k) for k in range(1, 61)]
        lo = np.array([b[0] for b in ends], dtype=np.int64)
        hi = np.array([b[1] for b in ends], dtype=np.int64)
        first = np.concatenate(([0], np.cumsum(hi - lo + 1)[:-1]))
        return lo, hi, first

    def digits_at(self, gs: np.ndarray) -> np.ndarray:
        lo, hi, first = self._blocks
        gs = np.asarray(gs, dtype=np.int64)
        k = np.searchsorted(first, gs, side="right") - 1
        digits = lo[k] + (gs - first[k])
        if np.any(digits > hi[k]):
            raise ConfigurationError("clustered digit index beyond the last tabulated block (2^60)")
        return digits

    def indices_above(self, xs: np.ndarray) -> np.ndarray:
        """Per x, the index of the first digit above x."""
        lo, hi, first = self._blocks
        xs = np.asarray(xs, dtype=float)
        k = np.searchsorted(hi, xs, side="right")  # first block reaching above x
        if np.any(k >= len(hi)):
            raise ConfigurationError("clustered digit threshold beyond the last tabulated block (2^60)")
        inside = np.maximum(0, np.floor(xs) + 1 - lo[k]).astype(np.int64)
        return first[k] + np.where(lo[k] <= xs, inside, 0)

    def sup_sum_bounds(self, s: float, shift: int) -> tuple[float, float]:
        if s <= self.alpha:
            return math.inf, math.inf
        head = 0.0
        for k in range(1, self.k_explicit + 1):
            lo, hi = self._block(k)
            bs = np.arange(lo, hi + 1, dtype=float) + shift
            head += float(np.sum(bs ** (-s)))
        # blocks k > k_explicit: count in [2^(k a), 2^(k a) + 1], and every
        # shifted digit lies in [2^k, 2^(k+2)]
        k0 = self.k_explicit + 1
        qa = 2.0 ** (self.alpha - s)
        qs = 2.0**-s
        hi_tail = (qa**k0 / (1.0 - qa)) + (qs**k0 / (1.0 - qs))
        lo_tail = (4.0**-s) * qa**k0 / (1.0 - qa)
        return head + lo_tail, head + hi_tail

    def finiteness_parameter(self) -> float:
        return self.alpha / 2.0

    def fixed_point_spectrum(self, theta):
        th = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore"):
            return float_or_array(np.where(th < 1.0, np.minimum(self.alpha / (2.0 * (1.0 - th)), 1.0), 1.0))

    def min_digit(self) -> int:
        return 2


@dataclass(frozen=True)
class FullDigits:
    """Every integer digit from min_digit upwards."""

    start: int = 2

    def __post_init__(self):
        if self.start < 2:
            raise ConfigurationError("full digit sets start at 2; digit 1 needs the recoded system")

    def digits_at(self, gs: np.ndarray) -> np.ndarray:
        return self.start + np.asarray(gs, dtype=np.int64)

    def indices_above(self, xs: np.ndarray) -> np.ndarray:
        """Per x, the index of the first digit above x."""
        return np.maximum(0, np.floor(xs) + 1 - self.start).astype(np.int64)

    def sup_sum_bounds(self, s: float, shift: int) -> tuple[float, float]:
        return power_sum_bounds(s, self.start + shift)

    def finiteness_parameter(self) -> float:
        return 0.5

    def fixed_point_spectrum(self, theta):
        return fp_spectrum(1.0, theta)

    def min_digit(self) -> int:
        return self.start


DigitSet = Union[SpacedDigits, ClusteredDigits, FullDigits]


@dataclass(frozen=True)
class GaussDigitTail:
    """Continued-fraction branches x -> 1/(b + x) over an infinite digit set."""

    digits: DigitSet

    def generation_arrays(self, gs: np.ndarray) -> tuple[np.ndarray, Mobius]:
        b = self.digits.digits_at(gs).astype(float)
        return np.arange(len(b)), Mobius(np.zeros_like(b), np.ones_like(b), np.ones_like(b), b)

    def envelope_reach(self, gs: np.ndarray) -> np.ndarray:
        # envelope of generation g is [0, 1/b]
        return 1.0 / self.digits.digits_at(gs)

    def generation_reaching(self, xs: np.ndarray) -> np.ndarray:
        return self.digits.indices_above(1.0 / _positive(xs))

    def accumulation_point(self) -> float:
        return 0.0

    def sup_contraction(self) -> float:
        return 1.0 / self.digits.min_digit() ** 2

    def psi1_bounds(self, t: float, _domain, end: str | None = None) -> tuple[float, float]:
        # |S_b'| on [0,1] ranges over [(b+1)^-2, b^-2]: the lower end sums
        # over the digits shifted by one, the upper over the digits
        lo = self.digits.sup_sum_bounds(2.0 * t, 1)[0] if end != "upper" else 0.0
        hi = self.digits.sup_sum_bounds(2.0 * t, 0)[1] if end != "lower" else math.inf
        return lo, hi

    def finiteness_parameter(self) -> float:
        return self.digits.finiteness_parameter()

    def fixed_point_spectrum(self, theta):
        return self.digits.fixed_point_spectrum(theta)


# ---------------------------------------------------------------------------
# full complex continued-fraction alphabet


@dataclass(frozen=True)
class ComplexGaussTail:
    """Recoded branches over the full Gaussian-integer alphabet.

    The raw digit 1 is not uniformly contracting on the standard seed
    disc, so digit strings are parsed into blocks (b) for b != 1 and
    (1, b), giving the plain branches together with the uniformly
    contracting composites S_1 o S_b, exactly as for real digit sets
    containing 1.  Generation g holds the digits of norm g + 1 in
    ``_shells``' order: per digit the plain branch (none for digit 1),
    then the composite.
    """

    def generation_arrays(self, gs: np.ndarray) -> tuple[np.ndarray, Mobius]:
        owner, m, n = _shells(np.asarray(gs, dtype=np.int64) + 1)
        # per digit: the plain branch (not for digit 1), then S_1 o S_b
        kinds = 1 + ((m != 1) | (n != 0))
        owner, m, n = np.repeat(owner, kinds), np.repeat(m, kinds), np.repeat(n, kinds)
        composite = ragged_arange(kinds) == kinds.repeat(kinds) - 1
        zero, one = np.zeros(len(m)), np.ones(len(m))
        # plain: (0, 1, 1, b); composite, as Composite.mobius composes it: (1, b, 1, 1 + b)
        a = CArray(np.where(composite, one, zero), zero)
        b = CArray(np.where(composite, m, one), np.where(composite, n, zero))
        d = CArray(np.where(composite, 1.0 + m, m), n)
        return owner, Mobius(a, b, CArray(one, zero), d)

    def envelope_reach(self, gs: np.ndarray) -> np.ndarray:
        # envelope of generation g is the disc about 0 of radius 1/max(sqrt(g+1) - 1, 1)
        return 1.0 / np.maximum(np.sqrt(np.asarray(gs, dtype=float) + 1.0) - 1.0, 1.0)

    def generation_reaching(self, xs: np.ndarray) -> np.ndarray:
        g = np.ceil(np.float_power(1.0 / _positive(xs) + 1.0, 2.0)) - 1
        return np.maximum(0, g).astype(np.int64)

    def accumulation_point(self) -> complex:
        return 0j

    def sup_contraction(self) -> float:
        # worst plain branch is b = 1 +/- i on the seed disc |z-1/2| <= 1/2
        u = abs(complex(1, 1) + 0.5)
        return 1.0 / (u - 0.5) ** 2

    def psi1_bounds(self, t: float, domain: Disc, end: str | None = None) -> tuple[float, float]:
        if t <= 1.0:
            return (math.inf if end != "upper" else 0.0), math.inf
        head_limit = 40
        sup_den, inf_den, outer_lo, outer_hi, plain = _complex_table(domain, head_limit)
        # per digit: the plain term (none for digit 1), then the composite
        # S_1 o S_b, whose outer derivative is taken over the exact image
        # disc of the inner branch; cumsum adds left to right as the
        # per-digit loop did, and adding the 0.0 of digit 1 is exact
        lo, hi = 0.0, math.inf
        if end != "upper":
            inf_term = np.float_power(inf_den, -2.0 * t)
            lo_terms = np.column_stack((np.where(plain, inf_term, 0.0), inf_term * np.float_power(outer_lo, t)))
            lo = float(np.cumsum(lo_terms.ravel())[-1])
        if end != "lower":
            sup_term = np.float_power(sup_den, -2.0 * t)
            hi_terms = np.column_stack((np.where(plain, sup_term, 0.0), sup_term * np.float_power(outer_hi, t)))
            hi = float(np.cumsum(hi_terms.ravel())[-1])
            # remainder over |b| > head_limit: at most pi*(6k+3) Gaussian
            # integers with Re >= 1 in each annulus [k, k+1); each term,
            # plain or composite, is at most 1.06^t * (k - 1)^(-2t) since the
            # outer derivative stays below (1 - 1/(head_limit-1))^-2
            _, thi = power_tail_bounds(2.0 * t - 1.0, head_limit - 1)
            hi += 2.0 * 1.06 * 18.0 * math.pi * thi
        return lo, hi

    def finiteness_parameter(self) -> float:
        return 1.0

    def fixed_point_spectrum(self, theta):
        th = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore"):
            return float_or_array(np.where(th < 1.0, np.minimum(1.0 / (1.0 - th), 2.0), 2.0))


# ---------------------------------------------------------------------------
# induced family for a single parabolic branch


@dataclass(frozen=True)
class InducedParabolicTail:
    """Family {P^n o S_j : n >= 0} for a parabolic branch P fixing 0.

    Generation n holds one composite per uniformly contracting base
    branch; envelopes are the images of the seed interval under P^n,
    which shrink to the parabolic fixed point.
    """

    parabolic: MapKind
    branches: tuple[tuple[Label, MapKind], ...]
    exponent: float = 1.0  # local behaviour x - P(x) ~ x^(1+q)
    domain: Interval = (0.0, 1.0)

    def _power_matrix(self, n) -> Mobius:
        # for a Moebius parabolic fixing 0 with unit multiplier, powers
        # stay in the family: [[a, 0], [c, a]]^n is [[a, 0], [n c, a]];
        # n may be an array of powers
        pm = self.parabolic.mobius()
        n = np.asarray(n, dtype=float)
        one = np.ones_like(n)
        return Mobius(pm.a * one, 0.0 * one, n * pm.c, pm.a * one)

    @cached_property
    def _branch_batch(self) -> Mobius:
        return stack_mobius([branch.mobius() for _, branch in self.branches], planar=False)

    def generation_arrays(self, gs: np.ndarray) -> tuple[np.ndarray, Mobius]:
        # P^g o S_j: the closed-form power composed with each base branch
        per = len(self.branches)
        owner = np.repeat(np.arange(len(gs)), per)
        branch = take_mobius(self._branch_batch, np.tile(np.arange(per), len(gs)))
        return owner, take_mobius(self._power_matrix(gs), owner).compose(branch)

    def envelope_reach(self, gs: np.ndarray) -> np.ndarray:
        # envelope of generation g is P^g of the seed interval
        lo, hi = interval_images(self._power_matrix(gs), self.domain)
        return np.maximum(np.abs(lo), np.abs(hi))

    def generation_reaching(self, xs: np.ndarray) -> np.ndarray:
        xs = _positive(xs)
        pm = self.parabolic.mobius()
        kappa = abs(pm.c / pm.a)
        top = max(abs(self.domain[0]), abs(self.domain[1]))
        n = np.maximum(0, np.floor((1.0 / xs - 1.0 / top) / kappa) + 1).astype(np.int64)
        while True:
            above = interval_images(self._power_matrix(n), self.domain)[1] >= xs
            if not above.any():
                return n
            n = n + above

    def accumulation_point(self) -> float:
        return 0.0

    def sup_contraction(self) -> float:
        return float(np.max(deriv_ranges_interval(self._branch_batch, self.domain)[1]))

    def psi1_bounds(self, t: float, domain: Interval, end: str | None = None) -> tuple[float, float]:
        q = self.exponent
        if t * (1.0 + q) / q <= 1.0:
            return (math.inf if end != "upper" else 0.0), math.inf
        dlo, dhi, rem_coefs, n_explicit = _induced_deriv_table(self, domain)
        lo, hi = 0.0, math.inf
        if end != "upper":
            lo = float(np.sum(dlo**t))
        if end != "lower":
            hi = float(np.sum(dhi**t))
            _, tail_hi = power_tail_bounds(2.0 * t, n_explicit)
            hi += float(np.sum(rem_coefs**t)) * tail_hi
        return lo, hi

    def finiteness_parameter(self) -> float:
        return self.exponent / (1.0 + self.exponent)

    def fixed_point_spectrum(self, theta):
        # the fixed points P^n(x_j) approach 0 like n^(-1/exponent)
        return fp_spectrum(1.0 / self.exponent, theta)


@lru_cache(maxsize=64)
def _induced_deriv_table(tail: InducedParabolicTail, domain: Interval):
    """Per-word derivative extremes for the first generations, plus the
    coefficients bounding the remainder.  These do not depend on the
    pressure exponent, so they are shared across all evaluations."""
    n_explicit = 512
    _, words = tail.generation_arrays(np.arange(n_explicit))
    lo, hi = deriv_ranges_interval(words, domain)
    # Moebius parabolic fixing 0 with unit multiplier: P^n(x) = x/(1 + kappa n x)
    pm = tail.parabolic.mobius()
    kappa = abs(pm.c / pm.a)
    x_lo = interval_images(tail._branch_batch, domain)[0]
    if np.any(x_lo <= 0):
        raise ConfigurationError("base branch image touches the parabolic fixed point")
    d_hi = deriv_ranges_interval(tail._branch_batch, domain)[1]
    return lo, hi, d_hi / np.float_power(kappa * x_lo, 2.0), n_explicit


@lru_cache(maxsize=64)
def _complex_table(domain: Disc, head_limit: int):
    """Per Gaussian digit b of norm up to head_limit^2, in _shells' order:
    the plain branch's derivative denominators |b + c| -/+ r on the seed
    disc, the range of S_1' over the plain image disc, and whether the
    plain branch is in the alphabet (all but b = 1).  None of it depends
    on the pressure exponent."""
    _, m, n = _shells(np.arange(1, head_limit * head_limit + 1))
    u = abs(CArray(m, n) + domain.center)
    # S_1 as a batch of one, broadcast over the digits; S_b differs from it in d only
    one = stack_mobius([ComplexGaussBranch(1).mobius()], planar=True)
    plain = Mobius(one.a, one.b, one.c, CArray(m, n))
    outer_lo, outer_hi = deriv_ranges_disc(one, Disc(*disc_images(plain, domain)))
    return u - domain.radius, u + domain.radius, outer_lo, outer_hi, (m != 1) | (n != 0)


def _shells(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every Gaussian integer m + ni with m >= 1 on the circles m^2 + n^2 = norm.

    Returns owner (the position in norms), m and n, ordered by owner, then
    m ascending, then -n before n."""
    norms = np.asarray(norms, dtype=np.int64)
    tops = _isqrt(norms)
    owner = np.repeat(np.arange(len(norms)), tops)
    m = ragged_arange(tops) + 1
    rest = norms[owner] - m * m
    n = _isqrt(rest)
    on_shell = n * n == rest
    owner, m, n = owner[on_shell], m[on_shell], n[on_shell]
    twice = 1 + (n > 0)
    owner, m, n = np.repeat(owner, twice), np.repeat(m, twice), np.repeat(n, twice)
    n = np.where(ragged_arange(twice) < twice.repeat(twice) - 1, -n, n)
    return owner, m, n


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise math.isqrt of non-negative integers below 2^52."""
    r = np.floor(np.sqrt(v.astype(float))).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


TailRule = Union[SimilarityTail, GaussDigitTail, ComplexGaussTail, InducedParabolicTail]
