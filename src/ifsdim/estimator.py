"""Covering-count estimators for box, Assouad and lower dimensions.

Counts are exact in one dimension: the greedy left-to-right sweep is the
minimal cover of a finite point set by closed intervals.  In the plane,
occupied mesh squares stand in for balls; the substitution changes
counts by a bounded factor and therefore no exponent.

Batched greedy counts.  On sorted points the greedy step is the
next-pointer nxt(i) = first index with x > x_i + 2r, and the count of a
window [lo, hi) is the number of positions lo, nxt(lo), nxt(nxt(lo)), ...
below hi.  A barrier of the width 2r is an index b with x_b > x_(b-1) + 2r
in the float arithmetic of the step.  From any i < b the reach x_i + 2r
stays below x_b, so nxt(i) <= b; positions increase, so every chain that
starts below b lands exactly on b.  The chain from index 0, the canonical
chain, passes through every barrier, and the barriers cut the cloud into
blocks whose chains are walked independently, all blocks of all widths in
lockstep.  A window's chain that lands on a canonical position m follows
the canonical chain from there on, so its count is the s steps taken
before m plus rank(hi) - rank(m), with rank(x) the number of canonical
positions below x.  The canonical positions of every width are held as
sorted keys width * (n + 1) + index, so membership and rank are two
searchsorted calls.  A window meets the canonical chain at the next
barrier at the latest, so on clouds with gaps it finishes in few rounds.

Where barriers are rare (a uniform grid has none), chains never need to
meet, and long walks jump instead.  A block whose chain is still long
once the lockstep rounds have cost a table pass is listed only up to its
current position, a break; a window that follows the listed chain to a
break, or whose own walk stays long, jumps on from there.  J = nxt^S is
built by squaring the next-pointer table of the points the windows span,
with one terminal slot past them that maps to itself and lies at or past
every hi.  A window at i takes the jump only when J(i) < hi.  Positions
increase along the chain, so i and the S - 1 positions skipped lie below
J(i) < hi: they are S counted steps, and the window adds exactly S.  Once
J(i) >= hi, at most S counted steps remain and are taken singly.  The
stride S, near the square root of the longest possible count, only
trades rounds against table passes; the counts equal the scalar sweep of
cover_count_1d whatever it is.  The (R, r) pairs of a call are counted in
batches bounded by their windows plus, per width, a bound on the
canonical chain's length from the sorted gaps, which keeps the transient
arrays within a fixed multiple of the cloud.

Planar counts.  In the plane a window's count is the number of occupied
r-mesh squares holding a cloud point within R of the centre, with the
distance taken as hypot(px - cx, py - cy) in float arithmetic, as in
cover_count_2d.  Each (R, r) pair is counted for all its centres at
once.  Every point's r-square gets an id below n, numbered once per
pair from one lexicographic sort of the squares.  The points are sorted
by the key of their bucket on a grid of side a little above R; a point
within R of a centre then lies in the 3 x 3 buckets around the centre's
bucket, and the margin keeps that true through the rounding of the
offsets and of the bucket division.  Those buckets are three runs of
sorted keys, and their points are the centre's candidates, a superset
of its disc.  The exact hypot test keeps the disc, and the distinct keys
centre * n + square id, counted with one sort and a bincount, are the
counts.  Centres are taken in chunks whose candidates stay within
max(n, _CANDIDATE_FLOOR).

Scale policy.  For the spectrum at theta the two scales are tied by
r = R^(1/theta), and a scale is admissible when r is at least
_R_MIN_FACTOR times the cloud resolution (below that, discreteness
flattens every count) and R/r is at least _MIN_RATIO, so that the
exponent resolves.  Ladders hold at most _MAX_SCALES scales, geometric in
log(R/r) and anchored at the deepest admissible scale, and a node with
fewer than _MIN_SCALES is invalid.  The ladders prefer to stay below
hull/_R0_DIVISOR but stretch towards the full set when small theta ties
the scales so hard that no local window remains (a ball past the hull
is still a legitimate scale pair under the definition's sup over all
R).  The reported exponent is the one at the deepest scale, where the
constant bias log C / log(R/r) is smallest, sharpened by the
count-growth slope across the ladder whenever the ladder spans
_SPAN_MIN in log(R/r) and the counts follow a clean power law (every
count at least _COUNT_GATE, fit residual at most _RESIDUAL_MAX); the
per-scale exponents and the raw supremum over scales are kept in the
diagnostics.  The box and Assouad estimates share one dyadic ladder,
hull/_R0_DIVISOR divided by _LADDER_BASE down to the resolution, and
Assouad pairs need R/r >= _MIN_PAIR_RATIO.  These values are module
constants, not options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DomainError
from .spectra import SpectrumCurve


#: the deepest scale keeps r at least this many cloud resolutions
_R_MIN_FACTOR = 4.0
#: ladders prefer scales below hull / _R0_DIVISOR; box and Assouad ladders
#: start there and divide by _LADDER_BASE
_R0_DIVISOR = 4.0
_LADDER_BASE = 2.0
#: a spectrum node needs this many admissible scales; its ladder has at most _MAX_SCALES
_MIN_SCALES = 3
_MAX_SCALES = 6
#: the least admissible R/r of a spectrum scale
_MIN_RATIO = 2.0
#: spectrum ladders are geometric in log(R/r); _RATIO_FRACTION fixes the
#: shallow end as a fraction of the deepest attainable log-ratio, and
#: _SPAN_MIN is the log-ratio span below which the count-growth slope is
#: too noisy and the deepest single-scale exponent is used instead
_RATIO_FRACTION = 0.4
_SPAN_MIN = 2.5
#: the slope only counts as reliable when every count is above the gate
#: (integer effects drag small counts) and the per-scale counts follow a
#: clean power law (lacunary sets produce count staircases whose fitted
#: slope swings with the sampling phase)
_COUNT_GATE = 24
_RESIDUAL_MAX = 0.2
#: the least R/r of an Assouad-dimension scale pair
_MIN_PAIR_RATIO = 16.0


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
    """Occupied axis-aligned r-mesh squares holding a cloud point within R
    of center; the scalar reference of the estimator's planar counts."""
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


#: a lockstep round (a few numpy calls on the live chains, 7-18 us) costs
#: about as much as a searchsorted pass over this many points (about 70 ns
#: a point), measured with numpy 2.4 on x86-64
_ROUND_POINTS = 256


class _Gaps:
    """The gaps of one sorted cloud at least as wide as the narrowest width
    asked for, sorted once.  The barriers of a width 2r are the indices b
    with pts[b] > pts[b - 1] + 2r; such a gap is at least 2r, so they are
    among the gaps of a suffix of the sorted ones."""

    def __init__(self, pts: np.ndarray, least: float):
        self.pts = pts
        gaps = np.diff(pts)
        wide = np.flatnonzero(gaps >= least)
        order = np.argsort(gaps[wide])
        self.index = wide[order] + 1
        self.sorted = gaps[self.index - 1]
        # the span of the cloud outside the sorted gaps from position k on
        span = float(pts[-1] - pts[0]) if len(pts) else 0.0
        self.inner = span - np.append(np.cumsum(self.sorted[::-1])[::-1], 0.0)

    def barriers(self, two_r: float) -> np.ndarray:
        """Sorted barrier indices of the width two_r, tested in the float
        arithmetic of the greedy step."""
        pts = self.pts
        b = self.index[np.searchsorted(self.sorted, two_r, side="left"):]
        b = b[pts[b] > pts[b - 1] + two_r]
        b.sort()
        return b

    def chain_bound(self, two_r: float) -> int:
        """About the longest the chain from index 0 can be: one position
        per block between barriers plus the blocks' spans over 2r."""
        k = int(np.searchsorted(self.sorted, two_r, side="left"))
        blocks = len(self.sorted) - k + 1
        return min(len(self.pts), blocks + int(max(float(self.inner[k]), 0.0) / two_r))


def _chain_runs(chain: np.ndarray) -> np.ndarray:
    """Start of every run of equal chain ids (the items are sorted by chain)."""
    return np.flatnonzero(np.r_[True, chain[1:] != chain[:-1]])


def _longest(pts, two_r, cur, end) -> np.ndarray:
    """Most steps each item can still take: it holds end - cur points, and
    each step advances past 2r."""
    return np.minimum(end - cur, (pts[end - 1] - pts[cur]) // two_r + 1)


def _by_chain(items, chain, longest) -> list:
    """(items, squaring count) per chain for a jump, with the stride S near
    the square root of the chain's longest possible count."""
    runs = _chain_runs(chain)
    top = np.maximum.reduceat(longest, runs)
    return [(items[a:b], max(1, round(math.log2(m) / 2)))
            for a, b, m in zip(runs, np.r_[runs[1:], len(items)], top)]


def _jump_groups(pts, two_r, chain, cur, end, rounds):
    """Chains due for a jump after some lockstep rounds, and the rounds
    cost at which the next one falls due (None when none is left).

    A chain falls due once the rounds spent cost as much as its table pass,
    which covers the points its items span.  A due chain jumps if its
    single steps may still cost more than that pass.
    """
    runs = _chain_runs(chain)
    span = np.maximum.reduceat(end, runs) - np.minimum.reduceat(cur, runs)
    spent = rounds * _ROUND_POINTS
    later = span[span > spent]
    next_check = int(later.min()) if len(later) else None
    if len(later) == len(span):
        return next_check, []
    longest = _longest(pts, two_r, cur, end)
    due = (span <= spent) & (np.maximum.reduceat(longest, runs) * _ROUND_POINTS > span)
    items = np.flatnonzero(np.repeat(due, np.diff(np.r_[runs, len(chain)])))
    return next_check, _by_chain(items, chain[items], longest[items]) if len(items) else []


def _jump_table(pts, two_r: float, cur, end, squarings: int):
    """The next-pointer table of the points from cur.min() to end.max() at
    width two_r, with one terminal slot past them that maps to itself,
    raised to the power S = 2^squarings; indices relative to cur.min()."""
    a, b = int(cur.min()), int(end.max())
    seg = pts[a:b]
    jump = np.append(np.searchsorted(seg, seg + two_r, side="right"), b - a)
    for _ in range(squarings):
        jump = jump[jump]
    return a, jump


def _canonical_keys(gaps: _Gaps, widths: np.ndarray):
    """Keys c * (n + 1) + i of the positions i on the greedy chain from
    index 0 at width widths[c], for every chain c, and the keys where the
    listed positions break off; both sorted.

    The barriers cut the cloud into blocks whose chains land exactly on the
    next block's start, so all blocks of all chains are walked in lockstep.
    A chain whose blocks are still long once the rounds have cost a table
    pass stops listing them: the rest of each such block, from its current
    position (a break) to its end, is left out, and windows that reach the
    break jump through it."""
    pts = gaps.pts
    n = len(pts)
    starts = [np.r_[0, gaps.barriers(w)] for w in widths]
    sizes = [len(s) for s in starts]
    chain = np.repeat(np.arange(len(widths)) * (n + 1), sizes)
    cur = np.concatenate(starts)
    end = np.append(cur[1:], n)
    end[np.cumsum(sizes) - 1] = n
    two_r = np.repeat(widths, sizes)
    last = pts[end - 1]
    runs, breaks = [], [np.array([np.iinfo(np.int64).max])]
    rounds, next_check = 0, 1
    while len(cur):
        if next_check is not None and rounds * _ROUND_POINTS >= next_check:
            next_check, groups = _jump_groups(pts, two_r, chain, cur, end, rounds)
            if groups:
                keep = np.ones(len(cur), dtype=bool)
                for items, _ in groups:
                    keep[items] = False
                breaks.append(chain[~keep] + cur[~keep])
                chain, cur, end, two_r, last = (v[keep] for v in (chain, cur, end, two_r, last))
                continue
        runs.append(chain + cur)
        rounds += 1
        # the step from cur leaves the block exactly when its last point
        # is within reach
        reach = pts[cur] + two_r
        keep = reach < last
        if not keep.all():
            chain, end, two_r, last, reach = (v[keep] for v in (chain, end, two_r, last, reach))
        cur = np.searchsorted(pts, reach, side="right")
    keys, breaks = np.concatenate(runs), np.concatenate(breaks)
    del runs
    keys.sort()
    breaks.sort()
    return keys, breaks


def _walk_windows(pts, keys, breaks, counts, live, key0, cur, end, two_r, may_jump: bool):
    """Step the windows live (chain key offset key0, position cur, end,
    width two_r; sorted by chain) until each passes its end, adding their
    counts.  A window on a listed canonical position follows the canonical
    chain up to its end or the chain's next break.  Windows at a break, and
    with may_jump those of chains due for a jump, move S steps at a time
    while the landing stays below end, and then leave the walk: they are
    returned, parked, to finish in another walk."""
    last = pts[end - 1]
    parked = []

    def park(groups):
        nonlocal live, key0, cur, end, two_r, last
        out = np.zeros(len(live), dtype=bool)
        for items, squarings in groups:
            a, jump = _jump_table(pts, two_r[items[0]], cur[items], end[items], squarings)
            x, stop = cur[items] - a, end[items] - a
            while True:
                x = jump[x]
                keep = x < stop
                if not keep.any():
                    break
                items, x, stop = items[keep], x[keep], stop[keep]
                counts[live[items]] += 1 << squarings
                cur[items] = x + a
            out[items] = True
        counts[live[out]] += steps
        parked.append([v[out] for v in (live, key0, cur, end, two_r)])
        live, key0, cur, end, two_r, last = (v[~out] for v in (live, key0, cur, end, two_r, last))

    steps, next_check = 0, 1 if may_jump else None
    while len(live):
        if next_check is not None and steps * _ROUND_POINTS >= next_check:
            next_check, groups = _jump_groups(pts, two_r, key0, cur, end, steps)
            if groups:
                park(groups)
        key = key0 + cur
        at = np.searchsorted(keys, key)
        hit = np.flatnonzero(keys[np.minimum(at, len(keys) - 1)] == key)
        if len(hit):
            # the canonical positions from here to the end, or to the
            # chain's next break, are the window's next steps
            stop = np.minimum(breaks[np.searchsorted(breaks, key[hit])], key0[hit] + end[hit])
            counts[live[hit]] += np.searchsorted(keys, stop) - at[hit]
            cur[hit] = stop - key0[hit]
            done, broke = np.zeros(len(live), dtype=bool), np.zeros(len(live), dtype=bool)
            done[hit] = cur[hit] == end[hit]
            broke[hit] = ~done[hit]
            counts[live[done]] += steps
            live, key0, cur, end, two_r, last, broke = (
                v[~done] for v in (live, key0, cur, end, two_r, last, broke))
            broke = np.flatnonzero(broke)
            if len(broke):
                # a break starts a block too long to list: jump through it
                park(_by_chain(broke, key0[broke], _longest(pts, two_r[broke], cur[broke], end[broke])))
        steps += 1
        # the step from cur passes the end exactly when the window's last
        # point is within reach
        reach = pts[cur] + two_r
        keep = reach < last
        if not keep.all():
            counts[live[~keep]] += steps
            live, key0, end, two_r, last, reach = (v[keep] for v in (live, key0, end, two_r, last, reach))
        cur = np.searchsorted(pts, reach, side="right")
    return [np.concatenate(part) for part in zip(*parked)]


def _greedy_counts_1d(gaps: _Gaps, widths: np.ndarray, chain: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Greedy counts of the windows pts[lo[k]:hi[k]] by closed intervals of
    length widths[chain[k]], equal to cover_count_1d window by window.

    A window steps until it lands on its width's canonical chain or passes
    hi.  From a canonical position m on it follows that chain, so its count
    is the steps taken plus rank(hi) - rank(m), up to the chain's next
    break.  Windows at a break, and windows still apart once the rounds
    have cost a table pass, jump S steps at a time and finish with at most
    S single steps; see the module notes.
    """
    pts = gaps.pts
    base = len(pts) + 1
    counts = np.zeros(len(lo), dtype=np.int64)
    live = np.flatnonzero(lo < hi)
    if not len(live):
        return counts
    keys, breaks = _canonical_keys(gaps, widths)
    # sorted by chain, so that each chain's windows are one run
    live = live[np.argsort(chain[live], kind="stable")]
    windows, may_jump = [live, chain[live] * base, lo[live], hi[live], widths[chain[live]]], True
    while windows:
        windows, may_jump = _walk_windows(pts, keys, breaks, counts, *windows, may_jump), False
    return counts


def _net_centers_1d(pts: np.ndarray, step: float) -> np.ndarray:
    """First point of every occupied step-cell.  pts is sorted, so the cell
    id floor(x / step) is non-decreasing in the index and a new cell starts
    where it changes.  When the cloud spans few cells, the starts are found
    by searchsorted on the cell edges k * step instead of dividing every
    point, then moved to where floor(x / step) reaches k: next to an edge
    the rounded product and the rounded quotient can disagree."""
    n = len(pts)
    if not n:
        return pts
    k0, k1 = math.floor(pts[0] / step), math.floor(pts[-1] / step)
    if k1 - k0 > n // 8:
        cells = np.floor(pts / step)
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        return pts[first]
    ks = np.arange(k0 + 1, k1 + 1, dtype=float)
    start = np.searchsorted(pts, ks * step, side="left")
    while True:
        back = (start > 0) & (np.floor(pts[start - 1] / step) >= ks)
        ahead = (start < n) & (np.floor(pts[np.minimum(start, n - 1)] / step) < ks)
        if not (back.any() or ahead.any()):
            break
        start += ahead.astype(np.int64) - back
    # cells before an empty run share its end as their start; the last
    # cell holds pts[-1], so every start is a point
    start = np.r_[0, start]
    return pts[start[np.r_[True, start[1:] != start[:-1]]]]


def _cell_ids(pts: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Id of every point's step-cell floor(p / step), numbered below
    len(pts) in the lexicographic order of the cells, and the index of the
    first point of every cell, in id order."""
    cells = np.floor(pts / step).astype(np.int64)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    cells = cells[order]
    new = np.empty(len(pts), dtype=bool)
    new[:1] = True
    np.logical_or(cells[1:, 0] != cells[:-1, 0], cells[1:, 1] != cells[:-1, 1], out=new[1:])
    ids = np.empty(len(pts), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _net_centers_2d(pts: np.ndarray, step: float) -> np.ndarray:
    """First point of every occupied step-cell, in cloud order."""
    return pts[np.sort(_cell_ids(pts, step)[1])]


#: the planar kernel gathers the candidates of its centres in chunks of at
#: most max(len(pts), _CANDIDATE_FLOOR) points (a centre with more forms a
#: chunk alone), about 70 bytes each across the chunk's arrays.  On the
#: finite complex cloud of 7k points, chunks of the whole pair's
#: candidates read no faster (numpy 2.4)
_CANDIDATE_FLOOR = 1 << 13


def _counts_2d(pts: np.ndarray, centers: np.ndarray, R: float, r: float) -> np.ndarray:
    """Occupied r-mesh squares holding a point within R of each centre,
    equal to cover_count_2d centre by centre; see the module notes."""
    n, m = len(pts), len(centers)
    cell = _cell_ids(pts, r)[0]
    # buckets wider than R by 2^-16 of it: a point that passes the hypot
    # test is within R of the centre along each axis up to a few ulps, and
    # the bucket division, of values up to 2^24, rounds by less than 2^-26
    # of a side, so the point lies in the 3 x 3 buckets around the
    # centre's.  At most 2^24 buckets to a side keep the keys in int64
    lo = np.array([pts[:, 0].min(), pts[:, 1].min()])
    span = max(pts[:, 0].max() - lo[0], pts[:, 1].max() - lo[1])
    side = max(R * (1.0 + 2.0**-16), float(span) * 2.0**-24)
    bucket = np.floor((pts - lo) / side).astype(np.int64)
    # rows padded by one bucket on either side, so that the neighbours of
    # every bucket have keys in the same row
    width = int(bucket[:, 1].max()) + 3
    key = (bucket[:, 0] + 1) * width + bucket[:, 1] + 1
    order = np.argsort(key, kind="stable")
    key, xs, ys, cell = key[order], pts[order, 0], pts[order, 1], cell[order]
    # the candidates of a centre are the points of the 3 x 3 buckets
    # around its own, three runs of sorted keys
    cb = np.floor((centers - lo) / side).astype(np.int64)
    row = (cb[:, :1] + np.arange(3)) * width + cb[:, 1:]
    start = np.searchsorted(key, row, side="left")
    runs = np.searchsorted(key, row + 2, side="right") - start
    per_center = runs.sum(axis=1)
    total = np.cumsum(per_center)
    counts = np.empty(m, dtype=np.int64)
    budget = max(n, _CANDIDATE_FLOOR)
    a = 0
    while a < m:
        base = int(total[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(total, base + budget, side="right")))
        lens = runs[a:b].ravel()
        offset = np.cumsum(lens) - lens
        idx = np.arange(int(total[b - 1]) - base) + np.repeat(start[a:b].ravel() - offset, lens)
        owner = np.repeat(np.arange(b - a), per_center[a:b])
        inside = np.hypot(xs[idx] - centers[a:b, 0][owner], ys[idx] - centers[a:b, 1][owner]) <= R
        keys = np.unique(owner[inside] * n + cell[idx[inside]])
        counts[a:b] = np.bincount(keys // n, minlength=b - a)
        a = b
    return counts


# ---------------------------------------------------------------------------
# scale ladders


def _spectrum_scales(theta: float, delta: float, hull: float) -> list[float]:
    """Geometric ladder of R values for the tied scales r = R^(1/theta).

    Built in log(R/r) space so the informative range is sampled evenly
    at every theta.  The deepest scale sits at r = _R_MIN_FACTOR * delta;
    the shallow end prefers to stay below hull/_R0_DIVISOR but may climb
    towards the full set (a ball of radius past the hull is still a
    legitimate scale pair by the definition's sup) when the tied scales
    leave no local window, which happens for small theta at coarse
    resolution.
    """
    r_min = _R_MIN_FACTOR * delta
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
    if lr_deep < math.log(_MIN_RATIO):
        return []
    lr_shallow = min(max(math.log(_MIN_RATIO), _RATIO_FRACTION * lr_deep), lr_deep)
    r_shallow = radius_for(lr_shallow)
    # stay local (below hull/_R0_DIVISOR) unless that starves the ladder
    # of ratio span; balls past the hull remain legitimate scale pairs
    span_need = max(_SPAN_MIN * 1.1, lr_deep - log_ratio(min(hull / _R0_DIVISOR, cap)))
    local_top = max(hull / _R0_DIVISOR, radius_for(max(lr_deep - span_need, lr_shallow)))
    r_shallow = max(min(r_shallow, local_top, cap), r_deep)
    if r_shallow <= r_deep * (1.0 + 1e-12):
        scales = [r_deep]
    else:
        scales = list(np.geomspace(r_shallow, r_deep, _MAX_SCALES))
    out = []
    for R in scales:
        r = R ** (1.0 / theta)
        if r >= r_min * (1.0 - 1e-12) and R / r >= _MIN_RATIO:
            out.append(float(R))
    return out


#: a batch of 1-D jobs closes before its positions pass one per cloud
#: point, or _BATCH_FLOOR on small clouds.  Its positions are the chain
#: bounds of its distinct widths plus _WINDOW_POSITIONS per window, since
#: the kernel keeps about four times as many arrays per window as per
#: chain position.  The estimate's arrays then peak at 30-40 bytes a
#: cloud point on the compare clouds of 86-254k points, and near 1.2 MB
#: on clouds of 3k points (tracemalloc, numpy 2.4)
_BATCH_FLOOR = 1 << 15
_WINDOW_POSITIONS = 4


def _batched_counts_1d(pts: np.ndarray, jobs, least: float):
    """Greedy counts for jobs (tag, two_r, lo, hi) of window arrays, none
    narrower than least, yielded as (tag, counts).  Jobs are counted
    together in batches of bounded size; see _BATCH_FLOOR."""
    gaps = _Gaps(pts, least)
    budget = max(len(pts), _BATCH_FLOOR)
    batch, widths, size = [], {}, 0
    for job in jobs:
        two_r, lo = job[1], job[2]
        cost = _WINDOW_POSITIONS * len(lo) + (0 if two_r in widths else gaps.chain_bound(two_r))
        if batch and size + cost > budget:
            yield from _count_batch(gaps, batch, widths)
            batch, widths, size = [], {}, 0
            cost = _WINDOW_POSITIONS * len(lo) + gaps.chain_bound(two_r)
        widths.setdefault(two_r, len(widths))
        batch.append(job)
        size += cost
    if batch:
        yield from _count_batch(gaps, batch, widths)


def _count_batch(gaps: _Gaps, batch, widths: dict):
    sizes = [len(lo) for _, _, lo, _ in batch]
    chain = np.repeat([widths[two_r] for _, two_r, _, _ in batch], sizes)
    counts = _greedy_counts_1d(gaps, np.array(list(widths)), chain,
                               np.concatenate([lo for _, _, lo, _ in batch]),
                               np.concatenate([hi for _, _, _, hi in batch]))
    for (tag, _, _, _), part in zip(batch, np.split(counts, np.cumsum(sizes)[:-1])):
        yield tag, part


def _extreme_counts(cloud: PointCloud, pairs, lower: bool) -> list[tuple[int, object]]:
    """(count, center) of the least (lower) or largest covering count over
    an (R/2)-net of centers, for every (R, r) of pairs."""
    pick = np.argmin if lower else np.argmax
    pts = cloud.points
    out = [None] * len(pairs)
    if cloud.ambient_dim == 2:
        for i, (R, r) in enumerate(pairs):
            centers = _net_centers_2d(pts, R / 2.0)
            counts = _counts_2d(pts, centers, R, r)
            k = int(pick(counts))
            out[i] = int(counts[k]), tuple(centers[k])
        return out

    def jobs():
        # sorted by r, the pairs of one width share a batch and its chain
        for i in sorted(range(len(pairs)), key=lambda i: pairs[i][1]):
            R, r = pairs[i]
            centers = _net_centers_1d(pts, R / 2.0)
            lo = np.searchsorted(pts, centers - R, side="left")
            hi = np.searchsorted(pts, centers + R, side="right")
            yield (i, centers), 2.0 * r, lo, hi

    if pairs:
        for (i, centers), counts in _batched_counts_1d(pts, jobs(), 2.0 * min(r for _, r in pairs)):
            k = int(pick(counts))
            out[i] = int(counts[k]), centers[k]
    return out


# ---------------------------------------------------------------------------
# spectrum estimators


def _estimate_node(cloud: PointCloud, theta: float, scales, lower: bool, hull: float,
                   extremes) -> tuple[float, ThetaDiagnostic]:
    """Combine the extreme counts over a node's ladder of (R, r) pairs into
    its estimate; a valid node takes its counts from the extremes iterator."""
    d = float(cloud.ambient_dim)
    if hull <= 0.0:
        return 0.0, ThetaDiagnostic(theta, (), True, "single point")
    if len(scales) < _MIN_SCALES:
        note = f"only {len(scales)} admissible scales (need {_MIN_SCALES})"
        return math.nan, ThetaDiagnostic(theta, (), False, note)
    per_scale = []
    exponents = []
    log_ratios = []
    log_counts = []
    for R, r in scales:
        count, center = next(extremes)
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
    if span >= _SPAN_MIN and len(scales) >= 2:
        coeffs = np.polyfit(log_ratios, log_counts, 1)
        slope_value = float(coeffs[0])
        residual = float(np.max(np.abs(np.polyval(coeffs, log_ratios) - log_counts)))
        counts_ok = lower or min(s.count for s in per_scale) >= _COUNT_GATE
        if counts_ok and residual <= _RESIDUAL_MAX:
            value = max(deepest, slope_value) if lower else min(deepest, slope_value)
    value = min(max(value, 0.0), d)
    note = ""
    if max(R for R, _ in scales) > hull / _R0_DIVISOR * (1.0 + 1e-9):
        note = "stretched beyond the local window; tied scales leave no room at this resolution"
    return value, ThetaDiagnostic(theta, tuple(per_scale), True, note, sup_value, slope_value)


def _estimate_curve(cloud: PointCloud, thetas, lower: bool):
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise DomainError("the theta grid is empty")
    hull = cloud.hull_diameter()
    # every node's ladder, then the (R, r) pairs of all valid nodes counted
    # together, then the per-node combination rule
    ladders = [[(R, R ** (1.0 / theta)) for R in _spectrum_scales(theta, cloud.delta, hull)]
               for theta in thetas]
    counted = [ladder for ladder in ladders if len(ladder) >= _MIN_SCALES]
    extremes = iter(_extreme_counts(cloud, [pair for ladder in counted for pair in ladder], lower))
    results = [_estimate_node(cloud, theta, ladder, lower, hull, extremes)
               for theta, ladder in zip(thetas, ladders)]
    values = np.array([v for v, _ in results])
    diags = tuple(d for _, d in results)
    curve = SpectrumCurve(thetas, values, "estimate", {"lower": lower, "delta": cloud.delta})
    return EstimateReport(curve, diags, _R_MIN_FACTOR)


def assouad_spectrum_estimate(cloud: PointCloud, thetas) -> EstimateReport:
    """Spectrum estimate: sup over centers and admissible scales of the
    localized covering exponent at scales tied by r = R^(1/theta)."""
    return _estimate_curve(cloud, thetas, lower=False)


def lower_spectrum_estimate(cloud: PointCloud, thetas) -> EstimateReport:
    """Lower-spectrum estimate: inf over centers, min over admissible scales."""
    return _estimate_curve(cloud, thetas, lower=True)


# ---------------------------------------------------------------------------
# box and Assouad dimension


@dataclass(frozen=True)
class BoxDimensionEstimate:
    value: float
    radii: tuple[float, ...]
    counts: tuple[int, ...]

    def __float__(self) -> float:
        return self.value


def _global_counts(cloud: PointCloud, radii) -> list[int]:
    """Covering counts of the whole cloud at every radius."""
    pts = cloud.points
    if cloud.ambient_dim == 1:
        whole = (np.array([0]), np.array([len(pts)]))
        counts = [0] * len(radii)
        jobs = ((i, 2.0 * r, *whole) for i, r in enumerate(radii))
        for i, part in _batched_counts_1d(pts, jobs, 2.0 * min(radii)):
            counts[i] = int(part[0])
        return counts
    return [len(_cell_ids(pts, r)[1]) for r in radii]


def _dyadic_ladder(hull: float, r_min: float) -> list[float]:
    """hull / _R0_DIVISOR divided by _LADDER_BASE down to r_min, at most 60 scales."""
    ladder = []
    r = hull / _R0_DIVISOR
    while r >= r_min and len(ladder) < 60:
        ladder.append(r)
        r /= _LADDER_BASE
    return ladder


def box_dimension_estimate(cloud: PointCloud) -> BoxDimensionEstimate:
    """Least-squares slope of log N_r against -log r over the ladder."""
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    hull = cloud.hull_diameter()
    if hull <= 0.0:
        return BoxDimensionEstimate(0.0, (), ())
    r_min = _R_MIN_FACTOR * cloud.delta
    radii = _dyadic_ladder(hull, r_min)
    if len(radii) < _MIN_SCALES:
        radii = list(np.geomspace(hull / _R0_DIVISOR, r_min, _MIN_SCALES))
    counts = _global_counts(cloud, radii)
    slope = np.polyfit(-np.log(radii), np.log(np.maximum(counts, 1)), 1)[0]
    return BoxDimensionEstimate(float(max(slope, 0.0)), tuple(radii), tuple(counts))


@dataclass(frozen=True)
class AssouadDimensionEstimate:
    value: float
    best: CoverQuery

    def __float__(self) -> float:
        return self.value


def assouad_dimension_estimate(cloud: PointCloud) -> AssouadDimensionEstimate:
    """Sup of localized covering exponents over admissible scale pairs.

    Pairs run over the ladder with R/r at least _MIN_PAIR_RATIO; the
    estimate is upward biased by design and reports the pair and center
    achieving the supremum."""
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    hull = cloud.hull_diameter()
    if hull <= 0.0:
        return AssouadDimensionEstimate(0.0, CoverQuery(float(np.ravel(cloud.points)[0]), 1.0, 1.0, 1))
    r_min = _R_MIN_FACTOR * cloud.delta
    ladder = _dyadic_ladder(hull, r_min)
    pairs = [(R, r) for i, R in enumerate(ladder) for r in ladder[i + 1:]
             if R / r >= _MIN_PAIR_RATIO and r >= r_min]
    best_val = 0.0
    best_query = None
    d = float(cloud.ambient_dim)
    for (R, r), (count, center) in zip(pairs, _extreme_counts(cloud, pairs, lower=False)):
        e = math.log(max(count, 1)) / math.log(R / r)
        if e > best_val or best_query is None:
            best_val = e
            best_query = CoverQuery(center, R, r, count)
    if best_query is None:
        raise DomainError("no admissible scale pair; the cloud is too coarse for R/r >= 16")
    return AssouadDimensionEstimate(min(max(best_val, 0.0), d), best_query)
