"""Covering-count estimators for box, Assouad and lower dimensions.

Counts are exact in one dimension: the greedy left-to-right sweep is the
minimal cover of a finite point set by closed intervals.  In the plane,
occupied mesh squares stand in for balls; the substitution changes
counts by a bounded factor and therefore no exponent.

Batched greedy counts.  On sorted points the greedy step is the
next-pointer nxt(i) = first index with x > x_i + 2r, and the count of a
window [lo, hi) is the number of positions lo, nxt(lo), nxt(nxt(lo)), ...
below hi.  nxt is strictly increasing along a chain and the same for
every window, so many windows step together.  Long chains (small r
against R) jump instead: J = nxt^S is built by squaring the next-pointer
table of the points the windows still span, with one terminal slot past
them that maps to itself and lies at or past every hi.  A window at i
takes the jump only when J(i) < hi.  Positions increase along the chain,
so i and the S - 1 positions skipped lie below J(i) < hi: they are S
counted steps, and the window adds exactly S.  Once J(i) >= hi, at most
S counted steps remain and are taken singly.  The stride S, near the
square root of the longest possible count, only trades rounds against
table passes; the counts equal the scalar sweep of cover_count_1d
whatever it is.

Scale policy.  For the spectrum at theta the two scales are tied by
r = R^(1/theta), and a scale is admissible when r stays a fixed factor
above the cloud resolution (below that, discreteness flattens every
count) and R/r is large enough for the exponent to resolve.  Ladders
are geometric in log(R/r), anchored at the deepest admissible scale;
they prefer to stay below hull/4 but stretch towards the full set when
small theta ties the scales so hard that no local window remains (a
ball past the hull is still a legitimate scale pair under the
definition's sup over all R).  The reported exponent is the one at the
deepest scale, where the constant bias log C / log(R/r) is smallest,
sharpened by the count-growth slope across the ladder whenever the
counts follow a clean power law; the per-scale exponents and the raw
supremum over scales are kept in the diagnostics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DomainError
from .spectra import SpectrumCurve

#: number of worker threads for per-theta estimation; counts at each
#: theta are independent, so the result does not depend on it
ENV_THREADS = "IFSDIM_THREADS"


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get(ENV_THREADS, "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class ScalePolicy:
    r_min_factor: float = 4.0
    ladder_base: float = 2.0
    min_scales: int = 3
    max_scales: int = 6
    r0_divisor: float = 4.0
    min_ratio: float = 2.0
    # spectrum ladders are geometric in log(R/r); ratio_fraction fixes the
    # shallow end as a fraction of the deepest attainable log-ratio, and
    # span_min is the log-ratio span below which the count-growth slope
    # is too noisy and the deepest single-scale exponent is used instead
    ratio_fraction: float = 0.4
    span_min: float = 2.5
    # the slope only counts as reliable when every count is above the
    # gate (integer effects drag small counts) and the per-scale counts
    # follow a clean power law (lacunary sets produce count staircases
    # whose fitted slope swings with the sampling phase)
    count_gate: int = 24
    residual_max: float = 0.2


DEFAULT_POLICY = ScalePolicy()


@dataclass(frozen=True)
class CoverQuery:
    center: float | tuple[float, float]
    R: float
    r: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.r <= self.R):
            raise DomainError(f"cover query needs 0 < r <= R, got r={self.r}, R={self.R}")


@dataclass(frozen=True)
class ScaleDiagnostic:
    R: float
    r: float
    count: int
    exponent: float
    center: float | tuple[float, float]


@dataclass(frozen=True)
class ThetaDiagnostic:
    theta: float
    scales: tuple[ScaleDiagnostic, ...]
    valid: bool
    note: str = ""
    sup_exponent: float = math.nan
    slope_exponent: float = math.nan


@dataclass(frozen=True)
class EstimateReport:
    curve: SpectrumCurve
    diagnostics: tuple[ThetaDiagnostic, ...]
    guard_ratio: float

    def value_at(self, theta: float) -> float:
        return self.curve.value_at(theta)


# ---------------------------------------------------------------------------
# exact covering counts


def cover_count_1d(cloud: PointCloud, center: float, R: float, r: float) -> int:
    """Minimal number of closed intervals of length 2r covering the cloud
    inside [center - R, center + R]; greedy is optimal on the line."""
    if cloud.ambient_dim != 1:
        raise DomainError("cover_count_1d needs a 1-D cloud")
    if r <= 0 or R <= 0:
        raise DomainError("scales must be positive")
    pts = cloud.points
    i = int(np.searchsorted(pts, center - R, side="left"))
    stop = int(np.searchsorted(pts, center + R, side="right"))
    count = 0
    while i < stop:
        count += 1
        i = int(np.searchsorted(pts, pts[i] + 2.0 * r, side="right"))
    return count


def cover_count_2d(cloud: PointCloud, center: complex, R: float, r: float) -> int:
    """Occupied axis-aligned r-mesh squares meeting the ball around center."""
    if cloud.ambient_dim != 2:
        raise DomainError("cover_count_2d needs a 2-D cloud")
    if r <= 0 or R <= 0:
        raise DomainError("scales must be positive")
    cx, cy = (center.real, center.imag) if isinstance(center, complex) else center
    pts = cloud.points
    d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    inside = pts[d <= R]
    if len(inside) == 0:
        return 0
    cells = np.floor(inside / r).astype(np.int64)
    return len(np.unique(cells, axis=0))


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


#: a lockstep round (a few numpy calls on the live windows, 7-18 us)
#: costs about as much as a searchsorted pass over this many points of
#: the segment (about 70 ns a point), measured with numpy 2.4 on x86-64
_ROUND_POINTS = 256


def _counts_lockstep_1d(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: float) -> np.ndarray:
    """Greedy counts of the windows pts[lo[k]:hi[k]] by closed intervals
    of length 2r, equal to cover_count_1d window by window.

    All windows take single greedy steps in lockstep, finished ones
    dropped, until the rounds spent cost as much as one pass over the
    points still spanned.  If the steps left may cost more than that, the
    rest jump S steps at a time through a squared next-pointer table and
    finish with at most S single steps; see the module notes.
    """
    two_r = 2.0 * r
    counts = np.zeros(len(lo), dtype=np.int64)
    live = np.flatnonzero(lo < hi)
    # sorted by start, the positions stay sorted: every live window has
    # taken the same number of steps and the greedy step is monotone
    live = live[np.argsort(lo[live], kind="stable")]
    cur, end = lo[live], hi[live]
    stop = int(end.max()) if len(live) else 0
    steps, may_jump = 0, True
    while len(live):
        if may_jump and steps * _ROUND_POINTS >= stop - cur[0]:
            # most steps one window can still take: it holds end - cur
            # points, and each step advances past 2r
            longest = int(np.minimum(end - cur, (pts[end - 1] - pts[cur]) // two_r + 1).max())
            if longest * _ROUND_POINTS > stop - cur[0]:
                break
            may_jump = False
        steps += 1
        cur = np.searchsorted(pts, pts[cur] + two_r, side="right")
        keep = cur < end
        if not keep.all():
            counts[live[~keep]] = steps
            live, cur, end = live[keep], cur[keep], end[keep]
            stop = int(end.max()) if len(live) else 0
    if not len(live):
        return counts

    start = int(cur[0])
    seg = pts[start:stop]
    cur, end = cur - start, end - start
    squarings = max(1, round(math.log2(longest) / 2))
    # next-pointer table with a terminal slot, squared to stride 2^squarings;
    # no more than two such arrays are alive at once
    jump = np.append(np.searchsorted(seg, seg + two_r, side="right"), len(seg))
    for _ in range(squarings):
        jump = jump[jump]
    stride = 1 << squarings
    parked = []
    while len(live):
        land = jump[cur]
        keep = land < end
        if not keep.all():
            out = ~keep
            counts[live[out]] = steps
            parked.append((live[out], cur[out], end[out]))
            live, land, end = live[keep], land[keep], end[keep]
        cur = land
        steps += stride

    live, cur, end = (np.concatenate(part) for part in zip(*parked))
    steps = 0
    while len(live):
        steps += 1
        cur = np.searchsorted(seg, seg[cur] + two_r, side="right")
        keep = cur < end
        if not keep.all():
            counts[live[~keep]] += steps
            live, cur, end = live[keep], cur[keep], end[keep]
    return counts


def _net_centers_1d(pts: np.ndarray, step: float) -> np.ndarray:
    """First point of every occupied step-cell; pts is sorted, so the
    cell ids are non-decreasing and a new cell starts where they change."""
    cells = np.floor(pts / step).astype(np.int64)
    first = np.empty(len(cells), dtype=bool)
    first[:1] = True
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    return pts[first]


def _net_centers_2d(pts: np.ndarray, step: float) -> np.ndarray:
    cells = np.floor(pts / step).astype(np.int64)
    _, first = np.unique(cells, axis=0, return_index=True)
    return pts[np.sort(first)]


def _counts_2d(pts: np.ndarray, centers: np.ndarray, R: float, r: float) -> np.ndarray:
    counts = np.zeros(len(centers), dtype=np.int64)
    for k, (cx, cy) in enumerate(centers):
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        inside = pts[d <= R]
        if len(inside):
            cells = np.floor(inside / r).astype(np.int64)
            counts[k] = len(np.unique(cells, axis=0))
    return counts


# ---------------------------------------------------------------------------
# scale ladders


def _spectrum_scales(theta: float, delta: float, hull: float, policy: ScalePolicy) -> list[float]:
    """Geometric ladder of R values for the tied scales r = R^(1/theta).

    Built in log(R/r) space so the informative range is sampled evenly
    at every theta.  The deepest scale sits at r = r_min_factor * delta;
    the shallow end prefers to stay below hull/r0_divisor but may climb
    towards the full set (a ball of radius past the hull is still a
    legitimate scale pair by the definition's sup) when the tied scales
    leave no local window, which happens for small theta at coarse
    resolution.
    """
    r_min = policy.r_min_factor * delta
    if theta <= 0.0 or theta >= 1.0 or hull <= 0.0 or r_min >= 1.0:
        return []
    cap = 0.98 * max(1.0, hull)
    r_deep = r_min**theta
    if r_deep > cap:
        return []
    slope = (1.0 - theta) / theta  # d log(ratio) / d log(1/R)

    def log_ratio(R: float) -> float:
        return slope * math.log(1.0 / R)

    def radius_for(lr: float) -> float:
        return math.exp(-lr * theta / (1.0 - theta))

    lr_deep = log_ratio(r_deep)
    if lr_deep < math.log(policy.min_ratio):
        return []
    lr_shallow = min(max(math.log(policy.min_ratio), policy.ratio_fraction * lr_deep), lr_deep)
    r_shallow = radius_for(lr_shallow)
    # stay local (below hull/r0_divisor) unless that starves the ladder
    # of ratio span; balls past the hull remain legitimate scale pairs
    span_need = max(policy.span_min * 1.1, lr_deep - log_ratio(min(hull / policy.r0_divisor, cap)))
    local_top = max(hull / policy.r0_divisor, radius_for(max(lr_deep - span_need, lr_shallow)))
    r_shallow = max(min(r_shallow, local_top, cap), r_deep)
    if r_shallow <= r_deep * (1.0 + 1e-12):
        scales = [r_deep]
    else:
        scales = list(np.geomspace(r_shallow, r_deep, policy.max_scales))
    out = []
    for R in scales:
        r = R ** (1.0 / theta)
        if r >= r_min * (1.0 - 1e-12) and R / r >= policy.min_ratio:
            out.append(float(R))
    return out


def _count_at_scale(cloud: PointCloud, R: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Covering counts over an (R/2)-net of centers; returns (centers, counts)."""
    pts = cloud.points
    if cloud.ambient_dim == 1:
        centers = _net_centers_1d(pts, R / 2.0)
        lo = np.searchsorted(pts, centers - R, side="left")
        hi = np.searchsorted(pts, centers + R, side="right")
        return centers, _counts_lockstep_1d(pts, lo, hi, r)
    centers = _net_centers_2d(pts, R / 2.0)
    return centers, _counts_2d(pts, centers, R, r)


# ---------------------------------------------------------------------------
# spectrum estimators


def _estimate_node(cloud: PointCloud, theta: float, policy: ScalePolicy, lower: bool,
                   hull: float) -> tuple[float, ThetaDiagnostic]:
    d = float(cloud.ambient_dim)
    if hull <= 0.0:
        return 0.0, ThetaDiagnostic(theta, (), True, "single point")
    scales = _spectrum_scales(theta, cloud.delta, hull, policy)
    if len(scales) < policy.min_scales:
        note = f"only {len(scales)} admissible scales (need {policy.min_scales})"
        return math.nan, ThetaDiagnostic(theta, (), False, note)
    per_scale = []
    exponents = []
    log_ratios = []
    log_counts = []
    for R in scales:
        r = R ** (1.0 / theta)
        centers, counts = _count_at_scale(cloud, R, r)
        k = int(np.argmin(counts)) if lower else int(np.argmax(counts))
        count = int(counts[k])
        center = centers[k] if cloud.ambient_dim == 1 else tuple(centers[k])
        e = math.log(max(count, 1)) / math.log(R / r)
        per_scale.append(ScaleDiagnostic(R, r, count, e, center))
        exponents.append(e)
        log_ratios.append(math.log(R / r))
        log_counts.append(math.log(max(count, 1)))
    # extreme single-scale exponent per the definition's sup/inf
    sup_value = min(exponents) if lower else max(exponents)
    deepest = exponents[int(np.argmax(log_ratios))]
    # The deepest scale carries the smallest constant bias log C / log(R/r).
    # The count-growth slope across the ladder cancels C entirely, but it
    # is only trustworthy for clean power-law counts: integer effects drag
    # it when counts are small, and lacunary count staircases make it
    # swing with the sampling phase.  When reliable, combine slope and
    # deepest exponent from the biased side (pre-asymptotic count build-up
    # makes the slope overshoot, constants bias the per-scale value).
    span = max(log_ratios) - min(log_ratios)
    slope_value = math.nan
    value = deepest
    if span >= policy.span_min and len(scales) >= 2:
        coeffs = np.polyfit(log_ratios, log_counts, 1)
        slope_value = float(coeffs[0])
        residual = float(np.max(np.abs(np.polyval(coeffs, log_ratios) - log_counts)))
        counts_ok = lower or min(s.count for s in per_scale) >= policy.count_gate
        if counts_ok and residual <= policy.residual_max:
            value = max(deepest, slope_value) if lower else min(deepest, slope_value)
    value = min(max(value, 0.0), d)
    note = ""
    if max(scales) > hull / policy.r0_divisor * (1.0 + 1e-9):
        note = "stretched beyond the local window; tied scales leave no room at this resolution"
    return value, ThetaDiagnostic(theta, tuple(per_scale), True, note, sup_value, slope_value)


def _estimate_curve(cloud: PointCloud, thetas, policy: ScalePolicy, lower: bool):
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise DomainError("the theta grid is empty")
    hull = cloud.hull_diameter()
    workers = _thread_count()
    if workers > 1 and len(thetas) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: _estimate_node(cloud, t, policy, lower, hull), thetas))
    else:
        results = [_estimate_node(cloud, t, policy, lower, hull) for t in thetas]
    values = np.array([v for v, _ in results])
    diags = tuple(d for _, d in results)
    curve = SpectrumCurve(thetas, values, "estimate", {"lower": lower, "delta": cloud.delta})
    return EstimateReport(curve, diags, policy.r_min_factor)


def assouad_spectrum_estimate(cloud: PointCloud, thetas, policy: ScalePolicy = DEFAULT_POLICY) -> EstimateReport:
    """Spectrum estimate: sup over centers and admissible scales of the
    localized covering exponent at scales tied by r = R^(1/theta)."""
    return _estimate_curve(cloud, thetas, policy, lower=False)


def lower_spectrum_estimate(cloud: PointCloud, thetas, policy: ScalePolicy = DEFAULT_POLICY) -> EstimateReport:
    """Lower-spectrum estimate: inf over centers, min over admissible scales."""
    return _estimate_curve(cloud, thetas, policy, lower=True)


# ---------------------------------------------------------------------------
# box and Assouad dimension


@dataclass(frozen=True)
class BoxDimensionEstimate:
    value: float
    radii: tuple[float, ...]
    counts: tuple[int, ...]

    def __float__(self) -> float:
        return self.value


def _global_count(cloud: PointCloud, r: float) -> int:
    pts = cloud.points
    if cloud.ambient_dim == 1:
        return int(_counts_lockstep_1d(pts, np.array([0]), np.array([len(pts)]), r)[0])
    cells = np.floor(pts / r).astype(np.int64)
    return len(np.unique(cells, axis=0))


def box_dimension_estimate(cloud: PointCloud, radii=None, policy: ScalePolicy = DEFAULT_POLICY) -> BoxDimensionEstimate:
    """Least-squares slope of log N_r against -log r over the ladder."""
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    hull = cloud.hull_diameter()
    if hull <= 0.0:
        return BoxDimensionEstimate(0.0, (), ())
    if radii is None:
        r_min = policy.r_min_factor * cloud.delta
        radii = []
        r = hull / policy.r0_divisor
        while r >= r_min and len(radii) < 60:
            radii.append(r)
            r /= policy.ladder_base
        if len(radii) < policy.min_scales:
            radii = list(np.geomspace(hull / policy.r0_divisor, r_min, policy.min_scales))
    counts = [_global_count(cloud, r) for r in radii]
    slope = np.polyfit(-np.log(radii), np.log(np.maximum(counts, 1)), 1)[0]
    return BoxDimensionEstimate(float(max(slope, 0.0)), tuple(radii), tuple(counts))


@dataclass(frozen=True)
class AssouadDimensionEstimate:
    value: float
    best: CoverQuery

    def __float__(self) -> float:
        return self.value


def assouad_dimension_estimate(cloud: PointCloud, policy: ScalePolicy = DEFAULT_POLICY,
                               min_pair_ratio: float = 16.0) -> AssouadDimensionEstimate:
    """Sup of localized covering exponents over admissible scale pairs.

    Pairs run over the ladder with R/r at least min_pair_ratio; the
    estimate is upward biased by design and reports the pair and center
    achieving the supremum."""
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    hull = cloud.hull_diameter()
    if hull <= 0.0:
        return AssouadDimensionEstimate(0.0, CoverQuery(float(np.ravel(cloud.points)[0]), 1.0, 1.0, 1))
    r_min = policy.r_min_factor * cloud.delta
    ladder = []
    R = hull / policy.r0_divisor
    while R >= r_min and len(ladder) < 60:
        ladder.append(R)
        R /= policy.ladder_base
    best_val = 0.0
    best_query = None
    d = float(cloud.ambient_dim)
    for i, R in enumerate(ladder):
        for r in ladder[i + 1 :]:
            if R / r < min_pair_ratio or r < r_min:
                continue
            centers, counts = _count_at_scale(cloud, R, r)
            k = int(np.argmax(counts))
            e = math.log(max(int(counts[k]), 1)) / math.log(R / r)
            if e > best_val or best_query is None:
                center = centers[k] if cloud.ambient_dim == 1 else tuple(centers[k])
                best_val = e
                best_query = CoverQuery(center, R, r, int(counts[k]))
    if best_query is None:
        raise DomainError("no admissible scale pair; the cloud is too coarse for R/r >= 16")
    return AssouadDimensionEstimate(min(max(best_val, 0.0), d), best_query)
