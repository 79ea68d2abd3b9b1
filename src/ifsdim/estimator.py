"""Covering-count estimators: box and Assouad dimensions, Assouad and lower spectra.

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
The last _FEW chains or windows of a walk are stepped one at a time, by
bisect on a memoryview of the points, and list and count what the rounds
would have.

Batches.  A batch of pairs (see _BATCH_FLOOR) makes its array calls for
all its pairs at once: one pass for the (R/2)-nets of all (see
_net_centers_1d), one listing of its widths' canonical chains, and K,
the candidates and each pair's first extreme by reductions over the
pairs' runs of centres.

Rank-bounded extremes.  The spectrum keeps only the largest (or least)
count over a pair's centres and the first centre reaching it, so only the
windows that can hold it are walked.  The greedy step is monotone in i,
since rounding is monotone, so two greedy chains interleave: with C_j the
last canonical position at or below lo, the window's k-th position lies
between C_(j+k) and C_(j+k+1).  A window's count is therefore K or K + 1,
with K the canonical points of its width inside [c - R, c + R]: two
searchsorted calls per run of pairs on one chain into its canonical
values, a short array, with no lo or hi on the cloud.  The largest count
is then K* or K* + 1, K* the largest K of the pair.  Only windows of K*
reach K* + 1, and a window of K* - 1 can only reach K*, which the first
window of K* already holds, so it is a candidate only before that
window.  These candidates alone get lo, hi and the greedy walk, and the
first largest count among them is the first over all centres, as
np.argmax's.  The least count mirrors this with K_min and the windows of
K_min + 1 before the first of K_min.  A width whose canonical listing
broke off (below) has K too small, so every window of it is a candidate.

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
changes.  A batch is bounded by its pairs' net centres plus, per group,
the chain bound, both bounded from the sorted gaps before any is
computed, which keeps the transient arrays within a fixed multiple of
the cloud unless a certificate fails.

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
from bisect import bisect_left, bisect_right
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


# ---------------------------------------------------------------------------
# exact covering counts


def cover_count_1d(cloud: PointCloud, center: float, R: float, r: float) -> int:
    """Minimal number of closed intervals of length 2r covering the cloud
    inside [center - R, center + R]; greedy is optimal on the line."""
    if cloud.ambient_dim != 1:
        raise DomainError("cover_count_1d needs a 1-D cloud")
    if not (r > 0 and R > 0 and center == center):
        raise DomainError(f"scales must be positive and the centre a number, got R={R}, r={r}, center={center}")
    pts = memoryview(cloud.points)
    i = bisect_left(pts, center - R)
    stop = bisect_right(pts, center + R)
    count = 0
    while i < stop:
        count += 1
        i = bisect_right(pts, pts[i] + 2.0 * r, i + 1)
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
#: a lockstep round makes six to a dozen array calls however few items it
#: steps, one step of one item one or two bisect calls, so a walk steps its
#: last _FEW items one at a time; 4 and 16 time the same
_FEW = 8


class _Gaps:
    """The gaps of one sorted cloud at least as wide as the narrowest width
    or net step asked for, sorted once.  The barriers of a width 2r are the
    indices b with pts[b] > pts[b - 1] + 2r; such a gap is at least 2r, so
    they are among the gaps of a suffix of the sorted ones."""

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

    def starts(self, x: np.ndarray) -> np.ndarray:
        """Keys j * (n + 1) + b, sorted, of index 0 and the ends b of the
        gaps of at least x[j], for every j: the starts of the blocks those
        gaps cut the cloud into."""
        n = len(self.pts)
        k = np.searchsorted(self.sorted, x, side="left")
        cuts = len(self.sorted) - k
        base = np.arange(len(x)) * (n + 1)
        key = np.concatenate((base, np.repeat(base, cuts) + self.index[ranges(k, cuts)]))
        key.sort()
        return key

    def barriers(self, widths: np.ndarray) -> np.ndarray:
        """The keys of starts(widths) at 0 and at the barriers of each
        width: the gap ends b with pts[b] > pts[b - 1] + widths[j], tested
        in the float arithmetic of the greedy step."""
        key = self.starts(widths)
        j, b = np.divmod(key, len(self.pts) + 1)
        return key[(b == 0) | (self.pts[b] > self.pts[b - 1] + widths[j])]

    def bound(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each x: the number of sorted gaps below x, which fixes the
        blocks that the gaps of at least x cut the cloud into, and a bound
        on the cells of side x those blocks meet, one per block plus the
        blocks' spans over x.  It bounds the greedy chain from index 0 at
        the width x, whose steps each pass x, and the net at the step x."""
        k = np.searchsorted(self.sorted, x, side="left")
        blocks = len(self.sorted) - k + 1
        return k, np.minimum(len(self.pts), blocks + (np.maximum(self.inner[k], 0.0) / x).astype(np.int64))


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
    starts = gaps.barriers(widths)
    owner, cur = np.divmod(starts, n + 1)
    chain = starts - cur
    end = np.append(cur[1:], n)
    end[np.append(owner[1:] != owner[:-1], True)] = n
    two_r = widths[owner]
    del owner
    last = pts[end - 1]
    runs = []
    rounds = 0
    while len(cur) > _FEW and rounds < _LOCKSTEP_ROUNDS:
        runs.append(chain + cur)
        # the step from cur leaves the block exactly when its last point
        # is within reach
        reach = pts[cur] + two_r
        keep = reach < last
        if not keep.all():
            chain, two_r, last, reach = (v[keep] for v in (chain, two_r, last, reach))
        cur = np.searchsorted(pts, reach, side="right")
        rounds += 1
    if rounds == _LOCKSTEP_ROUNDS:
        stops = chain + cur
    else:
        # each block ends at the next start of its chain, or at n
        end = np.append(starts, np.iinfo(np.int64).max)[np.searchsorted(starts, chain + cur, side="right")]
        end = np.minimum(end - chain, n)
        x, listed, stops = memoryview(pts), [], []
        for base, i, e, w in zip(chain.tolist(), cur.tolist(), end.tolist(), two_r.tolist()):
            for _ in range(_LOCKSTEP_ROUNDS - rounds):
                listed.append(base + i)
                reach = x[i] + w
                if not reach < x[e - 1]:
                    break
                i = bisect_right(x, reach, i + 1, e)
            else:
                stops.append(base + i)
        runs.append(np.array(listed, dtype=np.int64))
    keys = np.concatenate(runs)
    del runs
    keys.sort()
    return keys, np.append(np.sort(np.asarray(stops, dtype=np.int64)), np.iinfo(np.int64).max)


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
    while len(live) > _FEW and steps < rounds:
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
    if steps == rounds:
        return live, key0, cur, end, two_r
    # the same steps, one window at a time
    x, listed, stops = memoryview(pts), memoryview(keys), memoryview(breaks)
    rest = []
    for j, (base, i, e, w) in enumerate(zip(key0.tolist(), cur.tolist(), end.tolist(), two_r.tolist())):
        count = 0
        for _ in range(rounds - steps):
            at = bisect_left(listed, base + i)
            if at < len(listed) and listed[at] == base + i:
                stop = min(stops[bisect_left(stops, base + i)], base + e)
                count += bisect_left(listed, stop) - at
                i = stop - base
                if i == e:
                    break
            count += 1
            reach = x[i] + w
            if not reach < x[e - 1]:
                break
            i = bisect_right(x, reach, i + 1, e)
        else:
            rest.append(j)
            cur[j] = i
        counts[live[j]] += count
    return live[rest], key0[rest], cur[rest], end[rest], two_r[rest]


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


def _net_centers_1d(gaps: _Gaps, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first point of every occupied cell floor(x / s) of each step s,
    concatenated, and how many each step has.  The gaps of at least s cut
    the cloud into blocks.  A cell starts at a block's first point unless
    the point before shares its cell, and inside a block where floor(x / s)
    reaches an edge k between the cells of its ends: searchsorted on k * s,
    moved on or back where the rounded product and quotient disagree."""
    pts = gaps.pts
    n = len(pts)
    owner, a = np.divmod(gaps.starts(steps), n + 1)
    first = np.flatnonzero(run_starts(owner))
    b = np.append(a[1:], n)
    b[first - 1] = n
    s = steps[owner]
    ka, kb = np.floor(pts[a] / s), np.floor(pts[b - 1] / s)
    new = np.r_[True, ka[1:] > kb[:-1]]
    new[first] = True
    edges = (kb - ka).astype(np.int64)
    ks = np.repeat(ka, edges) + ranges(1, edges)
    s = np.repeat(s, edges)
    start = np.searchsorted(pts, ks * s, side="left")
    while True:
        back = (start > 0) & (np.floor(pts[start - 1] / s) >= ks)
        ahead = (start < n) & (np.floor(pts[np.minimum(start, n - 1)] / s) < ks)
        if not (back.any() or ahead.any()):
            break
        start += ahead.astype(np.int64) - back
    # each block's start, then the cell starts inside it; cells before an
    # empty run share its end as their start
    slot = np.cumsum(edges + 1) - edges - 1
    inside = np.ones(len(a) + len(ks), dtype=bool)
    inside[slot] = False
    pos = np.empty(len(inside), dtype=np.int64)
    pos[slot], pos[inside] = a, start
    keep = run_starts(pos)
    keep[slot] = new
    return pts[pos[keep]], np.bincount(np.repeat(owner, edges + 1)[keep], minlength=len(steps))


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


def _ladder_ends(theta: float, r_min: float, hull: float) -> tuple[float, ...]:
    """The shallow and deep ends of a geometric ladder of R values for the
    tied scales r = R^(1/theta); one end when the ladder is its deepest
    scale alone, none when the node has no ladder.

    Built in log(R/r) space so the informative range is sampled evenly
    at every theta.  The deepest scale sits at r = r_min; the shallow end
    prefers to stay below hull/_R0_DIVISOR but may climb towards the full
    set (a ball of radius past the hull is still a legitimate scale pair
    by the definition's sup) when the tied scales leave no local window,
    which happens for small theta at coarse resolution.
    """
    if theta <= 0.0 or theta >= 1.0 or hull <= 0.0 or r_min >= 1.0:
        return ()
    cap = 0.98 * max(1.0, hull)
    r_deep = r_min**theta
    if r_deep > cap:
        return ()
    slope = (1.0 - theta) / theta  # d log(ratio) / d log(1/R)

    def log_ratio(R: float) -> float:
        return slope * math.log(1.0 / R)

    def radius_for(lr: float) -> float:
        return math.exp(-lr * theta / (1.0 - theta))

    lr_deep = log_ratio(r_deep)
    if lr_deep < math.log(_MIN_RATIO):
        return ()
    lr_shallow = min(max(math.log(_MIN_RATIO), _RATIO_FRACTION * lr_deep), lr_deep)
    r_shallow = radius_for(lr_shallow)
    # stay local (below hull/_R0_DIVISOR) unless that starves the ladder
    # of ratio span; balls past the hull remain legitimate scale pairs
    span_need = max(_SPAN_MIN * 1.1, lr_deep - log_ratio(min(hull / _R0_DIVISOR, cap)))
    local_top = max(hull / _R0_DIVISOR, radius_for(max(lr_deep - span_need, lr_shallow)))
    r_shallow = max(min(r_shallow, local_top, cap), r_deep)
    if r_shallow <= r_deep * (1.0 + 1e-12):
        return (r_deep,)
    return (r_shallow, r_deep)


def _spectrum_scales(thetas, delta: float, hull: float) -> list[list[float]]:
    """Per theta, the R values of its ladder (_ladder_ends) whose tied
    scale r = R^(1/theta) is at least _R_MIN_FACTOR * delta, with R/r at
    least _MIN_RATIO.

    The ladders with two ends come from one np.geomspace call with array
    ends, which gives each ladder the rungs of a call of its own bit for
    bit.  No ladder has equal ends, which would switch numpy's linspace
    to another rounding for every ladder of the call.
    """
    r_min = _R_MIN_FACTOR * delta
    ends = [_ladder_ends(theta, r_min, hull) for theta in thetas]
    spans = np.array([pair for pair in ends if len(pair) == 2]).reshape(-1, 2)
    rungs = iter(np.geomspace(spans[:, 0], spans[:, 1], _MAX_SCALES, axis=1))
    ladders = []
    for theta, pair in zip(thetas, ends):
        out = []
        for R in next(rungs) if len(pair) == 2 else pair:
            r = R ** (1.0 / theta)
            if r >= r_min * (1.0 - 1e-12) and R / r >= _MIN_RATIO:
                out.append(float(R))
        ladders.append(out)
    return ladders


#: a batch of 1-D pairs closes before its positions pass one per cloud
#: point, or _BATCH_FLOOR on small clouds.  Its positions are the chain
#: bounds of its groups of widths plus _WINDOW_POSITIONS per net centre,
#: all bounded by _Gaps.bound before any is computed: on a width whose
#: listing broke off every window is walked, and the walk keeps about four
#: times as many arrays per window as the listing per chain position.  The
#: estimate's arrays then peak at 19-25 bytes a cloud point on the compare
#: clouds of 86-254k points, and at 0.6-1.2 MB on those of 3-8k points
#: (tracemalloc, numpy 2.4)
_BATCH_FLOOR = 1 << 15
_WINDOW_POSITIONS = 4


def _batched_counts_1d(pts: np.ndarray, pairs, lower: bool) -> list[tuple[int, object]]:
    """(count, first centre reaching it) of the least (lower) or largest
    greedy count over the windows [c - R, c + R], c on the (R/2)-net, for
    every (R, r) of pairs, counted in batches; see _BATCH_FLOOR."""
    R = np.array([R for R, _ in pairs], dtype=float)
    two_r = 2.0 * np.array([r for _, r in pairs], dtype=float)
    gaps = _Gaps(pts, min(two_r.min(), R.min() / 2.0))
    # widths of one key likely share their canonical chain, which is
    # listed and charged once
    key, chain = gaps.bound(two_r)
    cost = _WINDOW_POSITIONS * gaps.bound(R / 2.0)[1]
    budget = max(len(pts), _BATCH_FLOOR)
    out = [None] * len(pairs)

    def count(batch, groups):
        best, centers = _count_batch(gaps, R[batch], two_r[batch], groups, lower)
        for i, n, c in zip(batch, best.tolist(), centers):
            out[i] = n, c

    batch, groups, known, size = [], [], {}, 0
    # sorted by r, the pairs of one width share a batch and its chain
    for i in np.argsort(two_r, kind="stable").tolist():
        g = int(key[i]), int(chain[i])
        need = int(cost[i]) + (0 if g in known else g[1])
        if batch and size + need > budget:
            count(batch, groups)
            batch, groups, known, size = [], [], {}, 0
            need = int(cost[i]) + g[1]
        batch.append(i)
        groups.append(known.setdefault(g, len(known)))
        size += need
    count(batch, groups)
    return out


def _count_batch(gaps: _Gaps, R: np.ndarray, two_r: np.ndarray, groups: list, lower: bool):
    """The extremes of _batched_counts_1d for one batch of pairs (R, two_r),
    groups[j] the group of the j-th width, as arrays of counts and centres."""
    pts = gaps.pts
    n = len(pts)
    keys, breaks, chain_of = _shared_chains(gaps, dict(zip(two_r.tolist(), groups)))
    _, runs, broken = _chain_runs(keys, breaks, max(chain_of.values()) + 1, n)
    chain = np.array([chain_of[w] for w in two_r.tolist()])
    centers, sizes = _net_centers_1d(gaps, R / 2.0)
    job = np.repeat(np.arange(len(R)), sizes)
    # K by runs of pairs on one chain: a search of the whole cloud for
    # every window misses the cache.  A broken chain makes every window a
    # candidate
    score = np.zeros(len(centers), dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    run = np.flatnonzero(run_starts(chain))
    for c, a, b in zip(chain[run].tolist(), first[run].tolist(), np.append(first[run[1:]], len(centers)).tolist()):
        if not broken[c]:
            values, x, half = pts[keys[runs[c]:runs[c + 1]] % (n + 1)], centers[a:b], R[job[a:b]]
            score[a:b] = np.searchsorted(values, x + half, side="right") - np.searchsorted(values, x - half)
    if lower:
        np.negative(score, out=score)
    # the windows of each pair's top score, and those one below it before
    # the first of them
    top = np.maximum.reduceat(score, first)[job]
    pick = np.flatnonzero(score == top)
    lead = pick[run_starts(job[pick])]
    below = np.flatnonzero(score == top - 1)
    del score, top
    pick = np.sort(np.r_[pick, below[below < lead[job[below]]]])
    job = job[pick]
    x, half = centers[pick], R[job]
    lo = np.searchsorted(pts, x - half, side="left")
    hi = np.searchsorted(pts, x + half, side="right")
    counts = _greedy_counts_1d(pts, keys, breaks, chain[job], two_r[job], lo, hi)
    # the first candidate of each pair reaching its extreme
    best = (np.minimum if lower else np.maximum).reduceat(counts, np.flatnonzero(run_starts(job)))
    reach = np.flatnonzero(counts == best[job])
    return best, centers[pick[reach[run_starts(job[reach])]]]


def _extreme_counts(cloud: PointCloud, pairs, lower: bool) -> list[tuple[int, object]]:
    """(count, center) of the least (lower) or largest covering count over
    an (R/2)-net of centers, for every (R, r) of pairs."""
    pts = cloud.points
    if cloud.ambient_dim == 1:
        return _batched_counts_1d(pts, pairs, lower) if pairs else []
    pick = np.argmin if lower else np.argmax
    out = []
    for R, r in pairs:
        centers = _net_centers_2d(pts, R / 2.0)
        counts = _counts_2d(pts, centers, R, r)
        k = int(pick(counts))
        out.append((int(counts[k]), tuple(centers[k])))
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


def _hull(cloud: PointCloud) -> float:
    """The hull diameter of a cloud with points whose cell ids floor(p / s),
    s at least the resolution, are exact integers in float64 and int64."""
    if len(cloud) == 0:
        raise DomainError("cannot estimate dimensions of an empty cloud")
    top = float(np.abs(cloud.points).max())
    if not top / cloud.delta < 2.0**53:
        raise DomainError(f"cell ids overflow: coordinates up to {top:g} at resolution {cloud.delta:g}")
    return cloud.hull_diameter()


def _estimate_curve(cloud: PointCloud, thetas, lower: bool):
    hull = _hull(cloud)
    thetas = check_theta_grid(thetas)
    # every node's ladder, then the (R, r) pairs of all valid nodes counted
    # together, then the per-node combination rule
    ladders = [[(R, R ** (1.0 / theta)) for R in scales]
               for theta, scales in zip(thetas, _spectrum_scales(thetas, cloud.delta, hull))]
    counted = [ladder for ladder in ladders if len(ladder) >= _MIN_SCALES]
    extremes = iter(_extreme_counts(cloud, [pair for ladder in counted for pair in ladder], lower))
    results = [_estimate_node(cloud, theta, ladder, lower, hull, extremes)
               for theta, ladder in zip(thetas, ladders)]
    values = np.array([v for v, _ in results])
    diags = tuple(d for _, d in results)
    curve = SpectrumCurve(thetas, values, "estimate", {"lower": lower, "delta": cloud.delta})
    return EstimateReport(curve, diags)


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
        return [count for count, _ in _batched_counts_1d(pts, [(math.inf, r) for r in radii], lower=False)]
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
    hull = _hull(cloud)
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
    hull = _hull(cloud)
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
