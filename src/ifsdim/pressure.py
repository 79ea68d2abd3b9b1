"""Topological pressure with certified brackets and the dimensions it yields.

For a word w let ``sup_w`` and ``inf_w`` be the extremes of |S_w'| over
the seed domain.  The sums of ``sup_w^t`` over words of length n are
submultiplicative and the sums of ``inf_w^t`` supermultiplicative, so

    (1/n) log sum inf_w^t  <=  pressure(t)  <=  (1/n) log sum sup_w^t

at every depth, and the brackets are nested as n doubles.  Similarity
families are multiplicative, so their pressure is pinned at depth one;
finite conformal alphabets are enumerated to a depth budget; infinite
alphabets get a depth-two refinement with the tail mass folded into the
cross terms.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .cifs import CifsSpec
from .errors import ConfigurationError, DomainError
from .maps import MapKind, Similarity
from .mobius import Disc
from .series import power_sum_bounds
from .tails import PowerRule, SimilarityTail

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
# branch tables


def _branch_matrices(spec: CifsSpec, maps: list[MapKind]):
    a = np.array([m.mobius().a for m in maps], dtype=complex)
    b = np.array([m.mobius().b for m in maps], dtype=complex)
    c = np.array([m.mobius().c for m in maps], dtype=complex)
    d = np.array([m.mobius().d for m in maps], dtype=complex)
    return a, b, c, d


def _deriv_bounds_arrays(spec: CifsSpec, a, b, c, d):
    det = np.abs(a * d - b * c)
    if spec.ambient_dim == 1:
        x0, x1 = spec.domain
        q0 = np.abs(c * x0 + d)
        q1 = np.abs(c * x1 + d)
        qmin = np.minimum(q0, q1)
        qmax = np.maximum(q0, q1)
    else:
        assert isinstance(spec.domain, Disc)
        u = np.abs(c * spec.domain.center + d)
        spread = np.abs(c) * spec.domain.radius
        qmin = u - spread
        qmax = u + spread
    if np.any(qmin <= 0):
        raise ConfigurationError("a branch has a pole on the seed domain")
    return det / qmax**2, det / qmin**2


def _psi1_bounds(spec: CifsSpec, t: float) -> tuple[float, float]:
    lo = hi = 0.0
    if spec.explicit:
        a, b, c, d = _branch_matrices(spec, [m for _, m in spec.explicit])
        dlo, dhi = _deriv_bounds_arrays(spec, a, b, c, d)
        lo += float(np.sum(dlo**t))
        hi += float(np.sum(dhi**t))
    if spec.tail is not None:
        tlo, thi = spec.tail.psi1_bounds(t, spec.domain)
        lo += tlo
        hi += thi
    return lo, hi


def _compose_arrays(first, second):
    a, b, c, d = first
    ba, bb, bc, bd = second
    return (
        (a[:, None] * ba[None, :] + b[:, None] * bc[None, :]).ravel(),
        (a[:, None] * bb[None, :] + b[:, None] * bd[None, :]).ravel(),
        (c[:, None] * ba[None, :] + d[:, None] * bc[None, :]).ravel(),
        (c[:, None] * bb[None, :] + d[:, None] * bd[None, :]).ravel(),
    )


def _head_branches(spec: CifsSpec, size: int) -> list[MapKind]:
    return [m for _, m in spec.first_level(sample=max(size - len(spec.explicit), 8))][:size]


class _DerivTables:
    """Per-system cache of word derivative extremes.

    The extremes of |S_w'| over the seed domain do not depend on the
    pressure exponent, so bisection re-evaluates only power sums.  The
    tables hold no reference to their spec, so that the spec can key
    them weakly."""

    def __init__(self):
        self.finite: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.pair: tuple[np.ndarray, np.ndarray] | None = None
        self.head_sup: np.ndarray | None = None

    def finite_level(self, spec: CifsSpec, depth: int) -> tuple[np.ndarray, np.ndarray, int]:
        maps = [m for _, m in spec.explicit]
        k = max(len(maps), 1)
        while k**depth > WORD_BUDGET and depth > 1:
            depth -= 1
        if depth not in self.finite:
            base = _branch_matrices(spec, maps)
            mats = base
            for _ in range(depth - 1):
                mats = _compose_arrays(mats, base)
            self.finite[depth] = _deriv_bounds_arrays(spec, *mats)
        dlo, dhi = self.finite[depth]
        return dlo, dhi, depth

    def head_pair(self, spec: CifsSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.pair is None:
            head = _head_branches(spec, HEAD_SIZE)
            mats = _branch_matrices(spec, head)
            _, hhi = _deriv_bounds_arrays(spec, *mats)
            plo, phi = _deriv_bounds_arrays(spec, *_compose_arrays(mats, mats))
            self.head_sup = hhi
            self.pair = (plo, phi)
        return self.pair[0], self.pair[1], self.head_sup


# specs compare by identity; a spec's tables go when the spec does
_TABLES: weakref.WeakKeyDictionary[CifsSpec, _DerivTables] = weakref.WeakKeyDictionary()


def _tables(spec: CifsSpec) -> _DerivTables:
    tab = _TABLES.get(spec)
    if tab is None:
        tab = _TABLES[spec] = _DerivTables()
    return tab


def _psi_n_finite(spec: CifsSpec, t: float, depth: int) -> tuple[float, float, int]:
    """Exact per-word bracket sums for a finite alphabet at a capped depth."""
    dlo, dhi, depth = _tables(spec).finite_level(spec, depth)
    return float(np.sum(dlo**t)), float(np.sum(dhi**t)), depth


def _psi2_split(spec: CifsSpec, t: float) -> tuple[float, float]:
    """Depth-two bracket for infinite alphabets via a finite head."""
    plo, phi, hhi = _tables(spec).head_pair(spec)
    head_sup = float(np.sum(hhi**t))
    pair_lo = float(np.sum(plo**t))
    pair_hi = float(np.sum(phi**t))
    total_lo, total_hi = _psi1_bounds(spec, t)
    if math.isinf(total_hi):
        return math.inf, math.inf
    rest_hi = max(total_hi - head_sup, 0.0)
    psi2_hi = pair_hi + rest_hi * (2.0 * head_sup + rest_hi)
    psi2_lo = pair_lo
    return psi2_lo, psi2_hi


def psi(spec: CifsSpec, t: float, n: int = 1) -> PressureProfile:
    """Certified bracket for (1/n) log psi_n(t).

    A divergent sum (infinite tail below its finiteness parameter)
    yields an infinite upper endpoint rather than an error.
    """
    if t <= 0:
        raise DomainError(f"pressure exponent t must be positive, got {t}")
    if n < 1:
        raise DomainError(f"depth must be at least 1, got {n}")
    if spec.is_similarity():
        lo, hi = _psi1_bounds(spec, t)
        # multiplicative: (1/n) log psi_n = log psi_1 at every depth
        return PressureProfile(t, n, _safe_log(lo), _safe_log(hi))
    if spec.tail is None:
        lo, hi, used = _psi_n_finite(spec, t, n)
        return PressureProfile(t, used, _safe_log(lo) / used, _safe_log(hi) / used)
    if n == 1:
        lo, hi = _psi1_bounds(spec, t)
        return PressureProfile(t, 1, _safe_log(lo), _safe_log(hi))
    lo1, hi1 = _psi1_bounds(spec, t)
    lo2, hi2 = _psi2_split(spec, t)
    lower = max(_safe_log(lo1), _safe_log(lo2) / 2.0)
    upper = min(_safe_log(hi1), _safe_log(hi2) / 2.0)
    return PressureProfile(t, 2, lower, upper)


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


def hausdorff_dimension(spec: CifsSpec, tol: float | None = None) -> DimensionResult:
    """Root of the pressure equation via bisection on certified signs."""
    similarity = spec.is_similarity()
    if tol is None:
        tol = SIMILARITY_TOL if similarity else CONFORMAL_TOL
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    d = float(spec.ambient_dim)
    t_min = 1e-12

    if similarity and spec.tail is None:
        ratios = np.array([m.ratio for _, m in spec.explicit], dtype=float)
        if len(ratios) == 0:
            raise ConfigurationError("the family has no branches")

        def excess(t: float) -> float:
            return float(np.sum(ratios**t)) - 1.0

        if excess(d) > 0:
            return DimensionResult(d, (d, d), "exact_similarity", True)
        if excess(t_min) <= 0:
            return DimensionResult(0.0, (0.0, 0.0), "exact_similarity", True)
        _, root = _bisect_monotone(lambda t: excess(t) <= 0, t_min, d)
        eps = 16.0 * np.finfo(float).eps * max(1.0, root)
        return DimensionResult(root, (max(root - eps, 0.0), root + eps), "exact_similarity", True)

    depth_schedule = [1] if similarity else ([2] if spec.tail is not None else [1, 2, 4, 8, MAX_DEPTH_FINITE])
    method = "exact_similarity" if similarity else "bracketed_conformal"
    h_lo, h_hi = 0.0, d
    for depth in depth_schedule:
        def upper_nonpositive(t: float) -> bool:
            return psi(spec, t, depth).upper <= 0.0

        def lower_nonpositive(t: float) -> bool:
            return psi(spec, t, depth).lower <= 0.0

        if upper_nonpositive(t_min):
            h_hi = t_min
        elif not upper_nonpositive(d):
            h_hi = d
        else:
            _, h_hi = _bisect_monotone(upper_nonpositive, t_min, d)
        if lower_nonpositive(t_min):
            h_lo = 0.0
        elif not lower_nonpositive(d):
            h_lo = d
        else:
            h_lo, _ = _bisect_monotone(lower_nonpositive, t_min, d)
        if h_hi - h_lo <= tol:
            break
    h_lo = min(h_lo, h_hi)
    converged = (h_hi - h_lo) <= tol
    return DimensionResult(0.5 * (h_lo + h_hi), (h_lo, h_hi), method, converged)


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

    def equation(lam: float) -> float:
        return lam**h * gap_pow + tail_mid - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if equation(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    lam = hi

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
