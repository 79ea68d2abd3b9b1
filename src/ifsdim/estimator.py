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
positions below x.  The canonical positions of every listed chain are
held as sorted keys chain * (n + 1) + index, so membership and rank are
two searchsorted calls.  A window meets the canonical chain at the next
barrier at the latest, so on clouds with gaps it finishes in few rounds.

Rank-bounded extremes.  The spectrum keeps only the largest (or least)
count over a pair's centres and the first centre reaching it, so only the
windows that can hold it are walked.  The greedy step is monotone in i,
since rounding is monotone, so two greedy chains interleave: with C_j the
last canonical position at or below lo, the window's k-th position lies
between C_(j+k) and C_(j+k+1).  A window's count is therefore K or K + 1,
with K the canonical points of its width inside [c - R, c + R]: two
searchsorted calls into that width's canonical values, a short array,
with no lo or hi on the cloud.  The largest count is then K* or K* + 1,
K* the largest K.  Only windows of K* reach K* + 1, and a window of
K* - 1 can only reach K*, which the first window of K* already holds, so
it is a candidate only before that window.  These candidates alone get
lo, hi and the greedy walk, and the first largest count among them is
the first over all centres, as np.argmax's.  The least count mirrors
this with K_min and the windows of K_min + 1 before the first of K_min.
A width whose canonical listing broke off (below) has K too small, so
every window of it is a candidate.

Where barriers are rare (a uniform grid has none), chains need not meet,
so every lockstep walk stops after _LOCKSTEP_ROUNDS rounds.  A block of
the canonical chain still walking then is listed only up to its current
position, a break; a window that follows the listed chain to a break
steps on from there.  Windows still live after the budget jump once.
For each width, J = nxt^S is built by squaring the next-pointer table of
the points its windows span, with one terminal slot past them that maps
to itself and lies at or past every hi.  A window at i takes the jump
only when J(i) < hi.  Positions increase along the chain, so i and the
S - 1 positions skipped lie below J(i) < hi: they are S counted steps,
and the window adds exactly S.  Once J(i) >= hi, at most S counted steps
remain, taken in one last walk without a budget.  The stride
S = 2^round(log2(L) / 2), with L the longest count the width's windows
can still have, and the budget only trade rounds against table passes;
the counts equal the scalar sweep of cover_count_1d whatever they are.

Shared canonical chains.  r = R^(1/theta) rounds differently at every
theta, so the ladders' deepest rungs ask for widths that differ only in
the last bits, which nearly always share their canonical chain.  A
listed chain P, complete rather than broken off, is the greedy chain
from index 0 at a width w exactly when, with reach = pts[P] + w in float
arithmetic, pts[P[k+1] - 1] <= reach[k] < pts[P[k+1]] for every k and
reach[-1] >= pts[-1]: one vectorised pass, with no searchsorted.  A
batch groups its widths by the key (sorted gaps below 2r, chain bound),
lists the first width of each group, and gives every later one the
group's chain once this certificate holds; a width it fails is listed
on its own in a second lockstep pass.  The checks are exact, so no count
changes.  A call's (R, r) pairs are counted in batches bounded by their
windows plus, per group, the chain bound from the sorted gaps, which
keeps the transient arrays within a fixed multiple of the cloud unless
a certificate fails.

Planar counts.  In the plane a window's count is the number of occupied
r-mesh squares holding a cloud point within R of the centre, with the
distance taken as hypot(px - cx, py - cy) in float arithmetic, as in
cover_count_2d.  Each (R, r) pair is counted for all its centres at
once, square by square.  The points are sorted by their r-square once
per pair, and each square keeps the box of its points, from the least to
the largest coordinate; taken from the points rather than the mesh, the
box holds every point whatever the rounding of floor(p / r).  The
squares are sorted by the key of their box's low corner on a grid of
side a little above R + w, w the widest box side, so a square with a
point within R of a centre lies in the 3 x 3 buckets around the centre's
bucket: three runs of sorted keys.  Rounding is monotone, so the rounded
offsets of a box's points from the centre lie between those of its
sides, and the hypot of the sides' offsets bounds every point's distance
from above at the far corner and from below at the near side, up to the
ulp or so of np.hypot.  A square whose far corner is within
R(1 - _EDGE_MARGIN) therefore counts, one whose near side is beyond
R(1 + _EDGE_MARGIN) does not, and only a square the circle cuts tests
its points with the exact hypot test, counting once if any passes.  The
margin, 2^-40, dwarfs the ulps it covers.  Centres are taken in chunks
of at most max(squares, _CANDIDATE_FLOOR) candidate squares, and the cut
squares' points in chunks as large.

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

from .arrays import chunks, ranges, run_starts, sort_groups
from .cloud import PointCloud
from .errors import DomainError
from .spectra import SpectrumCurve, check_theta_grid


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
    if not (r > 0 and R > 0):
        raise DomainError(f"scales must be positive, got R={R}, r={r}")
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
    if not (r > 0 and R > 0):
        raise DomainError(f"scales must be positive, got R={R}, r={r}")
    cx, cy = (center.real, center.imag) if isinstance(center, complex) else center
    pts = cloud.points
    d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    inside = pts[d <= R]
    if len(inside) == 0:
        return 0
    cells = np.floor(inside / r).astype(np.int64)
    return len(np.unique(cells, axis=0))


#: every lockstep walk, the canonical listing and the windows alike, stops
#: after this many rounds.  The longest walk of the seven default compare
#: runs takes 383; walks still going are barrier-poor and jump instead
_LOCKSTEP_ROUNDS = 1024


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

    def chain_key(self, two_r: float) -> tuple[int, int]:
        """The number of sorted gaps below two_r, which fixes the width's
        barrier candidates, and about the longest the chain from index 0
        can be: one position per block between barriers plus the blocks'
        spans over 2r."""
        k = int(np.searchsorted(self.sorted, two_r, side="left"))
        blocks = len(self.sorted) - k + 1
        return k, min(len(self.pts), blocks + int(max(float(self.inner[k]), 0.0) / two_r))


def _canonical_keys(gaps: _Gaps, widths: np.ndarray):
    """Keys c * (n + 1) + i of the positions i on the greedy chain from
    index 0 at width widths[c], for every chain c, and the keys where the
    listed positions break off; both sorted.

    The barriers cut the cloud into blocks whose chains land exactly on the
    next block's start, so all blocks of all chains are walked in lockstep,
    for at most _LOCKSTEP_ROUNDS rounds.  A block still walking then is
    listed up to its current position, a break, and the rest of it is left
    out."""
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
    runs = []
    for _ in range(_LOCKSTEP_ROUNDS):
        if not len(cur):
            break
        runs.append(chain + cur)
        # the step from cur leaves the block exactly when its last point
        # is within reach
        reach = pts[cur] + two_r
        keep = reach < last
        if not keep.all():
            chain, two_r, last, reach = (v[keep] for v in (chain, two_r, last, reach))
        cur = np.searchsorted(pts, reach, side="right")
    keys = np.concatenate(runs)
    del runs
    keys.sort()
    return keys, np.append(np.sort(chain + cur), np.iinfo(np.int64).max)


def _chain_runs(keys: np.ndarray, breaks: np.ndarray, chains: int, n: int):
    """The key bounds c * (n + 1) of the chains c of a listing, the start of
    each chain's run of listed keys, and whether its listing broke off,
    which puts a break key in its range."""
    edges = np.arange(chains + 1) * (n + 1)
    return edges, np.searchsorted(keys, edges), np.diff(np.searchsorted(breaks, edges)) > 0


def _certifies(pts: np.ndarray, chain: np.ndarray, two_r: float) -> bool:
    """Whether chain, the positions of a complete canonical listing, is
    also the greedy chain from index 0 at the width two_r: the step from
    each position lands on the next, and the step from the last passes
    the cloud's end.  Tested in the float arithmetic of the step."""
    reach = pts[chain] + two_r
    after = chain[1:]
    return bool(reach[-1] >= pts[-1] and (pts[after - 1] <= reach[:-1]).all() and (reach[:-1] < pts[after]).all())


def _shared_chains(gaps: _Gaps, widths: dict):
    """The canonical listing of a batch's widths, with widths[two_r] the
    group of two_r: keys and breaks as from _canonical_keys, and the chain
    of each width.  The first width of group g is listed as chain g; a
    later width takes the chain of its group when that listing is complete
    and certifies it, and is listed on its own in a second pass otherwise;
    see the module notes."""
    pts = gaps.pts
    leaders = {}
    for two_r, group in widths.items():
        leaders.setdefault(group, two_r)
    keys, breaks = _canonical_keys(gaps, np.array(list(leaders.values())))
    edges, runs, broken = _chain_runs(keys, breaks, len(leaders), len(pts))
    chain_of, unlisted = {}, []
    for two_r, g in widths.items():
        if leaders[g] == two_r or not broken[g] and _certifies(pts, keys[runs[g]:runs[g + 1]] - edges[g], two_r):
            chain_of[two_r] = g
        else:
            chain_of[two_r] = len(leaders) + len(unlisted)
            unlisted.append(two_r)
    if unlisted:
        more, stops = _canonical_keys(gaps, np.array(unlisted))
        keys = np.concatenate((keys, more + edges[-1]))
        breaks = np.concatenate((breaks[:-1], stops[:-1] + edges[-1], breaks[-1:]))
    return keys, breaks, chain_of


def _walk_windows(pts, keys, breaks, counts, rounds: int, live, key0, cur, end, two_r):
    """Step the windows live (chain key offset key0, position cur, end,
    width two_r) in lockstep for at most rounds rounds, adding their
    counts, and return the windows still short of their ends.  A window on
    a listed canonical position follows the canonical chain up to its end
    or the chain's next break, and steps on from a break."""
    last = pts[end - 1]
    steps = 0
    while len(live) and steps < rounds:
        key = key0 + cur
        at = np.searchsorted(keys, key)
        hit = np.flatnonzero(keys[np.minimum(at, len(keys) - 1)] == key)
        if len(hit):
            # the canonical positions from here to the end, or to the
            # chain's next break, are the window's next steps
            stop = np.minimum(breaks[np.searchsorted(breaks, key[hit])], key0[hit] + end[hit])
            counts[live[hit]] += np.searchsorted(keys, stop) - at[hit]
            cur[hit] = stop - key0[hit]
            done = np.zeros(len(live), dtype=bool)
            done[hit] = cur[hit] == end[hit]
            counts[live[done]] += steps
            live, key0, cur, end, two_r, last = (v[~done] for v in (live, key0, cur, end, two_r, last))
        steps += 1
        # the step from cur passes the end exactly when the window's last
        # point is within reach
        reach = pts[cur] + two_r
        keep = reach < last
        if not keep.all():
            counts[live[~keep]] += steps
            live, key0, end, two_r, last, reach = (v[keep] for v in (live, key0, end, two_r, last, reach))
        cur = np.searchsorted(pts, reach, side="right")
    counts[live] += steps
    return live, key0, cur, end, two_r


def _jump_windows(pts, counts, live, key0, cur, end, two_r) -> None:
    """Move the windows (sorted by width) S steps at a time while the
    landing stays below end, adding their counts; S is per width, near the
    square root of the longest count its windows can still have."""
    runs = np.flatnonzero(run_starts(two_r))
    for a, b in zip(runs, np.r_[runs[1:], len(live)]):
        c, e = cur[a:b], end[a:b]
        # a window holds e - c points, and each step advances past 2r
        longest = np.minimum(e - c, (pts[e - 1] - pts[c]) // two_r[a] + 1).max()
        squarings = round(math.log2(longest) / 2)
        # the next-pointer table of the points the windows span, with one
        # terminal slot past them that maps to itself, raised to the power
        # S = 2^squarings; indices relative to base
        base, top = int(c.min()), int(e.max())
        seg = pts[base:top]
        jump = np.append(np.searchsorted(seg, seg + two_r[a], side="right"), top - base)
        for _ in range(squarings):
            jump = jump[jump]
        items, x, stop = np.arange(a, b), c - base, e - base
        while True:
            x = jump[x]
            keep = x < stop
            if not keep.any():
                break
            items, x, stop = items[keep], x[keep], stop[keep]
            counts[live[items]] += 1 << squarings
            cur[items] = x + base


def _greedy_counts_1d(pts: np.ndarray, keys: np.ndarray, breaks: np.ndarray, chain: np.ndarray,
                      two_r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Greedy counts of the windows pts[lo[k]:hi[k]] by closed intervals of
    length two_r[k], equal to cover_count_1d window by window; keys and
    breaks are a canonical listing from _canonical_keys, and chain[k] is
    the listed chain that is the greedy chain from index 0 at two_r[k].

    A window steps until it lands on its canonical chain or passes hi.
    From a canonical position m on it follows that chain, so its count
    is the steps taken plus rank(hi) - rank(m), up to the chain's next
    break.  Windows still apart after _LOCKSTEP_ROUNDS rounds jump S steps
    at a time and finish with at most S single steps; see the module notes.
    """
    counts = np.zeros(len(lo), dtype=np.int64)
    live = np.flatnonzero(lo < hi)
    if not len(live):
        return counts
    # sorted by width, so that each width's windows are one run
    live = live[np.argsort(two_r[live], kind="stable")]
    windows = live, chain[live] * (len(pts) + 1), lo[live], hi[live], two_r[live]
    windows = _walk_windows(pts, keys, breaks, counts, _LOCKSTEP_ROUNDS, *windows)
    if len(windows[0]):
        _jump_windows(pts, counts, *windows)
        # at most S steps are left, and no walk is longer than len(pts)
        _walk_windows(pts, keys, breaks, counts, len(pts), *windows)
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
        return pts[run_starts(np.floor(pts / step))]
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
    return pts[start[run_starts(start)]]


def _squares(pts: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the points by their step-square floor(p / step),
    lexicographically and stably, and the position in that order where
    each square's points start.  The squares are sorted by one int64 key,
    x cell times the rows spanned plus y cell, both from their least,
    unless that key could overflow."""
    cells = np.floor(pts / step).astype(np.int64)
    cx, cy = cells[:, 0], cells[:, 1]
    if len(cells):
        # per column: a reduction along axis 0 of the (n, 2) array costs
        # ten times as much
        x0, y0 = int(cx.min()), int(cy.min())
        rows = int(cy.max()) - y0 + 1
        if (int(cx.max()) - x0 + 1) * rows < 2**63:
            key = (cx - x0) * rows + (cy - y0)
            order = np.argsort(key, kind="stable")
            return order, np.flatnonzero(run_starts(key[order]))
    order, new = sort_groups((cx, cy))
    return order, np.flatnonzero(new)


def _net_centers_2d(pts: np.ndarray, step: float) -> np.ndarray:
    """First point of every occupied step-cell, in cloud order."""
    order, first = _squares(pts, step)
    return pts[np.sort(order[first])]


#: the planar kernel takes its centres in chunks of at most
#: max(squares, _CANDIDATE_FLOOR) candidate squares, and the points of the
#: squares the circles cut in chunks of as many points (a centre or a
#: square with more forms a chunk alone)
_CANDIDATE_FLOOR = 1 << 13

#: the share of R by which a square's box must clear the circle, inside
#: or out, for the square to be decided without testing its points.  It
#: covers the ulp or so by which np.hypot may misorder two distances, 2^12
#: times over
_EDGE_MARGIN = 2.0**-40


def _reach(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest and least |p - c| in float arithmetic over lo <= p <= hi:
    the larger of c - lo and hi - c, and minus the smaller of them, or 0
    where neither is negative.  Rounding is monotone, so the offsets of
    points between lo and hi lie between those of lo and hi."""
    below, above = c - lo, hi - c
    far = np.maximum(below, above)
    near = np.negative(np.minimum(below, above, out=below), out=below)
    return far, np.maximum(near, 0.0, out=near)


def _counts_2d(pts: np.ndarray, centers: np.ndarray, R: float, r: float) -> np.ndarray:
    """Occupied r-mesh squares holding a point within R of each centre,
    equal to cover_count_2d centre by centre; see the module notes."""
    order, first = _squares(pts, r)
    xs, ys = pts[order, 0], pts[order, 1]
    size = np.diff(np.append(first, len(pts)))
    # the box of each square's points, not the mesh square, so that the
    # rounding of floor(p / r) cannot place a point outside it
    x0, x1 = np.minimum.reduceat(xs, first), np.maximum.reduceat(xs, first)
    y0, y1 = np.minimum.reduceat(ys, first), np.maximum.reduceat(ys, first)
    # the squares bucketed by their box's low corner on a grid wider than
    # R + w by 2^-16 of it, w the widest box side: a square holding a
    # point within R of a centre has its corner within R + w of the
    # centre along each axis up to a few ulps, and the bucket division,
    # of values up to 2^24, rounds by less than 2^-26 of a side, so the
    # square lies in the 3 x 3 buckets around the centre's.  At most 2^24
    # buckets to a side keep the keys in int64
    lo = np.array([x0.min(), y0.min()])
    span = max(x1.max() - lo[0], y1.max() - lo[1])
    side = max((R + max((x1 - x0).max(), (y1 - y0).max())) * (1.0 + 2.0**-16), float(span) * 2.0**-24)
    bx = np.floor((x0 - lo[0]) / side).astype(np.int64)
    by = np.floor((y0 - lo[1]) / side).astype(np.int64)
    # rows padded by one bucket on either side, so that the neighbours of
    # every bucket have keys in the same row
    width = int(by.max()) + 3
    key = (bx + 1) * width + by + 1
    sq = np.argsort(key, kind="stable")
    key, x0, x1, y0, y1, first, size = (v[sq] for v in (key, x0, x1, y0, y1, first, size))
    # the candidates of a centre are the squares of the 3 x 3 buckets
    # around its own, three runs of sorted keys
    cb = np.floor((centers - lo) / side).astype(np.int64)
    row = (cb[:, :1] + np.arange(3)) * width + cb[:, 1:]
    start = np.searchsorted(key, row, side="left")
    runs = np.searchsorted(key, row + 2, side="right") - start
    per_center = runs.sum(axis=1)
    counts = np.empty(len(centers), dtype=np.int64)
    budget = max(len(key), _CANDIDATE_FLOOR)
    inner, outer = R * (1.0 - _EDGE_MARGIN), R * (1.0 + _EDGE_MARGIN)
    for a, b in chunks(per_center, budget):
        cx, cy = centers[a:b, 0], centers[a:b, 1]
        cand = ranges(start[a:b].ravel(), runs[a:b].ravel())
        owner = np.repeat(np.arange(b - a), per_center[a:b])
        far_x, near_x = _reach(x0[cand], x1[cand], cx[owner])
        far_y, near_y = _reach(y0[cand], y1[cand], cy[owner])
        far, near = np.hypot(far_x, far_y), np.hypot(near_x, near_y)
        counts[a:b] = np.bincount(owner[far <= inner], minlength=b - a)
        # a square the circle cuts counts once if any of its points passes
        # the exact test of cover_count_2d
        cut = (far > inner) & (near <= outer)
        owner, cand = owner[cut], cand[cut]
        for c, d in chunks(size[cand], budget):
            lens = size[cand[c:d]]
            idx = ranges(first[cand[c:d]], lens)
            who = np.repeat(owner[c:d], lens)
            hit = np.hypot(xs[idx] - cx[who], ys[idx] - cy[who]) <= R
            hit = np.logical_or.reduceat(hit, np.cumsum(lens) - lens)
            counts[a:b] += np.bincount(owner[c:d][hit], minlength=b - a)
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
#: bounds of its groups of widths plus _WINDOW_POSITIONS per centre: on a
#: width whose listing broke off every window is walked, and the walk
#: keeps about four times as many arrays per window as the listing per
#: chain position.  The estimate's arrays then peak at 19-25 bytes a cloud
#: point on the compare clouds of 86-254k points, and at 0.6-1.2 MB on
#: those of 3-8k points (tracemalloc, numpy 2.4)
_BATCH_FLOOR = 1 << 15
_WINDOW_POSITIONS = 4


def _batched_counts_1d(pts: np.ndarray, jobs, least: float, lower: bool):
    """The least (lower) or largest greedy count over the windows
    [center - R, center + R] of each job (tag, two_r, centers, R), none
    narrower than least, yielded as (tag, count, first center reaching
    it).  Jobs are counted together in batches of bounded size; see
    _BATCH_FLOOR."""
    gaps = _Gaps(pts, least)
    budget = max(len(pts), _BATCH_FLOOR)
    batch, widths, groups, size = [], {}, {}, 0
    for job in jobs:
        two_r, centers = job[1], job[2]
        # widths of one key likely share their canonical chain, which is
        # listed and charged once
        key = gaps.chain_key(two_r)
        cost = _WINDOW_POSITIONS * len(centers) + (0 if key in groups else key[1])
        if batch and size + cost > budget:
            yield from _count_batch(gaps, batch, widths, lower)
            batch, widths, groups, size = [], {}, {}, 0
            cost = _WINDOW_POSITIONS * len(centers) + key[1]
        widths[two_r] = groups.setdefault(key, len(groups))
        batch.append(job)
        size += cost
    if batch:
        yield from _count_batch(gaps, batch, widths, lower)


def _candidates(score: np.ndarray) -> np.ndarray:
    """The windows that can hold the first extreme count when each count
    is K or K + 1, with score = K for the largest count and -K for the
    least: those of the top score, and those one below it that come before
    the first of them; see the module notes."""
    top = score == score.max()
    first = int(np.argmax(top))
    top[:first] = score[:first] == score[first] - 1
    return np.flatnonzero(top)


def _count_batch(gaps: _Gaps, batch, widths: dict, lower: bool):
    """The extremes of _batched_counts_1d for one batch of jobs, with
    widths[two_r] the group of each width; see the module notes."""
    pts = gaps.pts
    n = len(pts)
    keys, breaks, chain_of = _shared_chains(gaps, widths)
    edges, runs, broken = _chain_runs(keys, breaks, max(chain_of.values()) + 1, n)
    picks, lo, hi = [], [], []
    for _, two_r, centers, R in batch:
        c = chain_of[two_r]
        below, above = centers - R, centers + R
        if broken[c]:
            pick = np.arange(len(centers))
        else:
            # K, the canonical points inside each window
            canon = pts[keys[runs[c]:runs[c + 1]] - edges[c]]
            K = np.searchsorted(canon, above, side="right") - np.searchsorted(canon, below, side="left")
            pick = _candidates(-K if lower else K)
        picks.append(pick)
        lo.append(np.searchsorted(pts, below[pick], side="left"))
        hi.append(np.searchsorted(pts, above[pick], side="right"))
    sizes = [len(pick) for pick in picks]
    chain = np.repeat([chain_of[two_r] for _, two_r, _, _ in batch], sizes)
    width = np.repeat([job[1] for job in batch], sizes)
    counts = _greedy_counts_1d(pts, keys, breaks, chain, width, np.concatenate(lo), np.concatenate(hi))
    extreme = np.argmin if lower else np.argmax
    for (tag, _, centers, _), pick, part in zip(batch, picks, np.split(counts, np.cumsum(sizes)[:-1])):
        k = int(extreme(part))
        yield tag, int(part[k]), centers[pick[k]]


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
            yield i, 2.0 * r, _net_centers_1d(pts, R / 2.0), R

    if pairs:
        for i, count, center in _batched_counts_1d(pts, jobs(), 2.0 * min(r for _, r in pairs), lower):
            out[i] = count, center
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
    thetas = check_theta_grid(thetas)
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
        # one window, from its first point, wider than the cloud
        counts = [0] * len(radii)
        jobs = ((i, 2.0 * r, pts[:1], math.inf) for i, r in enumerate(radii))
        for i, count, _ in _batched_counts_1d(pts, jobs, 2.0 * min(radii), lower=False):
            counts[i] = count
        return counts
    return [len(_squares(pts, r)[1]) for r in radii]


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
