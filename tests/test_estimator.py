import numpy as np
import pytest

from ifsdim import CifsSpec, PointCloud, Similarity, build_fixed_point_cloud, build_limit_cloud
from ifsdim.arrays import sort_groups
from ifsdim.cli import THETA_RANGE, _build_cloud
from ifsdim.estimator import (
    _MIN_SCALES,
    _Gaps,
    _greedy_counts_1d,
    _counts_2d,
    _squares,
    _global_counts,
    _net_centers_2d,
    assouad_dimension_estimate,
    assouad_spectrum_estimate,
    box_dimension_estimate,
    cover_count_1d,
    cover_count_2d,
    lower_spectrum_estimate,
)
from ifsdim import estimator
from ifsdim.errors import DomainError
from ifsdim.families import make_family
from ifsdim.spectra import fp_spectrum
from ifsdim.tails import GeometricRule, PowerRule, SimilarityTail

from scalar_oracle import exhaustive_cover_count_1d, net_centers_1d


def cloud_of(points, delta=1e-9, dim=1):
    return PointCloud.from_points(points, delta, dim)


class TestCoverCount1D:
    def test_three_points_two_intervals(self):
        cloud = cloud_of([0.0, 0.5, 1.0])
        assert cover_count_1d(cloud, 0.5, 0.5, 0.3) == 2

    def test_single_point(self):
        assert cover_count_1d(cloud_of([0.4]), 0.5, 0.5, 0.1) == 1

    def test_pairwise_far_points(self):
        r = 0.1
        eps = 1e-6
        pts = [0.0, 2 * r + eps, 4 * r + 2 * eps]
        assert cover_count_1d(cloud_of(pts), 0.5, 1.0, r) == 3

    def test_empty_intersection(self):
        assert cover_count_1d(cloud_of([0.9]), 0.1, 0.05, 0.01) == 0

    @pytest.mark.parametrize("R, r", [(np.nan, 0.1), (0.5, np.nan), (0.0, 0.1), (0.5, -0.1)])
    def test_scales_that_are_not_positive(self, R, r):
        with pytest.raises(DomainError):
            cover_count_1d(cloud_of([0.4]), 0.5, R, r)
        # a NaN centre would bisect to the whole cloud
        with pytest.raises(DomainError):
            cover_count_1d(cloud_of([0.4]), np.nan, 0.5, 0.1)

    def test_greedy_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            n = int(rng.integers(1, 41))
            pts = np.sort(rng.random(n))
            r = float(rng.uniform(0.005, 0.4))
            cloud = cloud_of(pts)
            assert cover_count_1d(cloud, 0.5, 1.0, r) == exhaustive_cover_count_1d(pts, r)

    def test_bisect_sweep_equals_a_linear_sweep(self):
        # dense multiples of 2^-10, windows from one cloud point to another
        # and widths 2r from the first point to another: the window's ends
        # and the far ends of many intervals land exactly on cloud points,
        # which the closed intervals keep
        rng = np.random.default_rng(12)
        landed = 0
        for _ in range(60):
            n = int(rng.integers(2, 300))
            cloud = cloud_of(np.unique(rng.integers(0, 2 * n, n)) / 1024.0)
            pts = cloud.points
            for _ in range(5):
                a, b = np.sort(rng.choice(pts, 2, replace=False))
                center, R = (a + b) / 2.0, (b - a) / 2.0
                r = float(rng.choice(pts[1:]) - pts[0]) / 2.0
                count, reach = 0, -np.inf
                for x in pts[(pts >= center - R) & (pts <= center + R)]:
                    if x > reach:
                        count += 1
                        reach = x + 2.0 * r
                        landed += reach in pts
                assert cover_count_1d(cloud, center, R, r) == count
        assert landed > 100

    def test_count_monotonicity(self):
        rng = np.random.default_rng(3)
        pts = np.sort(rng.random(200))
        cloud = cloud_of(pts)
        counts_r = [cover_count_1d(cloud, 0.5, 0.4, r) for r in (0.2, 0.1, 0.05, 0.01)]
        assert all(a <= b for a, b in zip(counts_r, counts_r[1:]))
        counts_R = [cover_count_1d(cloud, 0.5, R, 0.01) for R in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(counts_R, counts_R[1:]))


def _dyadic_cloud(rng, n):
    """Sorted distinct multiples of 2^-10 in [0, 64), so that x + 2r and
    center +- R are exact for dyadic r and R, and interval ends land on
    cloud points."""
    return cloud_of(np.unique(rng.integers(0, 1 << 16, n)) / 1024.0)


def _batched(pts, jobs):
    """Counts of every window of the jobs (two_r, lo, hi), all passed to the
    greedy kernel at once on one canonical listing of their widths."""
    widths = sorted({two_r for two_r, _, _ in jobs})
    keys, breaks = estimator._canonical_keys(_Gaps(pts, widths[0]), np.array(widths))
    chain = np.repeat([widths.index(two_r) for two_r, _, _ in jobs], [len(lo) for _, lo, _ in jobs])
    counts = _greedy_counts_1d(pts, keys, breaks, chain, np.array(widths)[chain],
                               np.concatenate([lo for _, lo, _ in jobs]), np.concatenate([hi for _, _, hi in jobs]))
    return [part.tolist() for part in np.split(counts, np.cumsum([len(lo) for _, lo, _ in jobs])[:-1])]


#: lockstep budgets the kernel is checked at: 1 and 3 rounds push the walks
#: through the breaks and the jump phase, the default is what ships
_BUDGETS = (1, 3, estimator._LOCKSTEP_ROUNDS)


def _windows(pts, centers, R):
    return np.searchsorted(pts, centers - R, side="left"), np.searchsorted(pts, centers + R, side="right")


class TestBatchedCounts1D:
    """The estimator's batched kernel against the scalar greedy sweep."""

    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_equals_scalar_sweep(self, seed, monkeypatch):
        # R from a few points to the whole cloud and r from one grid step
        # to a sixteenth of the cloud, all pairs in one batch: windows that
        # merge at once, chains of many blocks, and chains of many points
        # per step.  Budgets of 1 and 3 rounds send most blocks to breaks
        # and most windows through the jump phase
        rng = np.random.default_rng(seed)
        cloud = _dyadic_cloud(rng, int(rng.integers(200, 4000)))
        pts = cloud.points
        jobs, expected = [], []
        for _ in range(6):
            R = 2.0 ** int(rng.integers(-5, 7))
            r = int(2.0 ** rng.uniform(0, 12)) / 2048.0
            centers = rng.choice(pts, size=int(rng.integers(1, 12)))
            jobs.append((2.0 * r, *_windows(pts, centers, R)))
            expected.append([cover_count_1d(cloud, c, R, r) for c in centers])
        for rounds in _BUDGETS:
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            # the last walks stepped one at a time never, as shipped, or
            # from the start
            for few in (0, estimator._FEW, len(pts)):
                monkeypatch.setattr(estimator, "_FEW", few)
                assert _batched(pts, jobs) == expected, (rounds, few)

    def test_widths_one_ulp_apart(self):
        # the deepest rungs of a spectrum ladder share r up to the last bit.
        # On a grid of 2^-10 steps, 2r is three steps: the interval of the
        # exact width from 0 reaches the point at 2r, the one an ulp
        # narrower stops short of it, so the chains from 0 differ
        cloud = cloud_of(np.arange(4000) / 1024.0)
        pts = cloud.points
        r0 = 3 / 2048.0
        rs = [r0, np.nextafter(r0, np.inf), np.nextafter(r0, -np.inf), r0, np.nextafter(r0, -np.inf)]
        centers = np.r_[0.0, np.random.default_rng(5).choice(pts, 30)]
        jobs = [(2.0 * r, *_windows(pts, centers, R)) for r in rs for R in (0.05, 0.75)]
        expected = [[cover_count_1d(cloud, c, R, r) for c in centers] for r in rs for R in (0.05, 0.75)]
        assert _batched(pts, jobs) == expected
        assert expected[0][0] != expected[4][0]

    def test_gaps_of_exactly_two_r_are_not_barriers(self):
        # gaps of 1, 2 and 3 units with 2r = 2 units: the greedy interval
        # from a point reaches a point exactly 2r away, so only 3-unit gaps
        # cut the chains
        rng = np.random.default_rng(11)
        cloud = cloud_of(np.cumsum(rng.integers(1, 4, 2000)) / 1024.0)
        pts = cloud.points
        r = 1 / 1024.0
        # index 0 and the barriers
        assert len(_Gaps(pts, 2.0 * r).barriers(np.array([2.0 * r]))) == 1 + np.count_nonzero(np.diff(pts) == 3 / 1024.0)
        centers = rng.choice(pts, 40)
        for R in (0.01, 0.2, 4.0):
            jobs = [(2.0 * r, *_windows(pts, centers, R))]
            assert _batched(pts, jobs) == [[cover_count_1d(cloud, c, R, r) for c in centers]]

    def test_barrier_free_grid_closed_form(self, monkeypatch):
        # a uniform grid has no gap wider than 2r, so no chain meets the
        # canonical one by a barrier: with 2r = m steps the greedy step is
        # m + 1 points, the long chains jump, and windows off the canonical
        # residue never merge
        n = 20000
        pts = np.arange(n) / 1024.0
        ms = (1, 3, 10, 300)
        lo = np.array([0, 1, 2, 5, 7, 0])
        hi = np.array([n, n, n - 3, 9000, 8, 1])
        jobs = [(m / 1024.0, lo, hi) for m in ms]
        expected = [[-(-(b - a) // (m + 1)) for a, b in zip(lo, hi)] for m in ms]
        for rounds in _BUDGETS:
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            assert _batched(pts, jobs) == expected, rounds
            assert _global_counts(cloud_of(pts), [m / 2048.0 for m in ms]) == [-(-n // (m + 1)) for m in ms]

    def test_only_barrier_free_walks_reach_the_jump_phase(self, monkeypatch):
        # on a grid the chains of 2r = one step are 10 000 positions long,
        # past the budget, so the canonical listing breaks off and the
        # windows jump; on a dyadic Cantor dust every width has barriers
        # a few positions apart, and every walk ends within the budget
        breaks, jumped = [], []
        canonical_keys, jump_windows = estimator._canonical_keys, estimator._jump_windows

        def listed(gaps, widths):
            keys, stops = canonical_keys(gaps, widths)
            breaks.append(len(stops) - 1)
            return keys, stops

        def jump(pts, counts, live, *windows):
            jumped.append(len(live))
            jump_windows(pts, counts, live, *windows)

        monkeypatch.setattr(estimator, "_canonical_keys", listed)
        monkeypatch.setattr(estimator, "_jump_windows", jump)
        n = 20000
        grid = np.arange(n) / 1024.0
        assert _batched(grid, [(1 / 1024.0, np.array([0, 1]), np.array([n, n]))]) == [[n // 2, n // 2]]
        assert breaks == [1] and jumped == [2]
        # base-4 digits 0 and 3 to eight places: 256 points, multiples of 4^-8
        dust = np.sort([sum(3 * (k >> i & 1) * 4.0 ** -(8 - i) for i in range(8)) for k in range(256)])
        cloud = cloud_of(dust)
        breaks.clear()
        jumped.clear()
        rng = np.random.default_rng(2)
        for R in (2.0**-3, 0.5, 2.0):
            for r in (4.0**-7, 4.0**-5, 0.01, 0.1):
                centers = rng.choice(dust, 20)
                got = _batched(dust, [(2.0 * r, *_windows(dust, centers, R))])
                assert got == [[cover_count_1d(cloud, c, R, r) for c in centers]]
        assert breaks == [0] * 12 and jumped == []

    def test_empty_and_whole_windows(self):
        cloud = _dyadic_cloud(np.random.default_rng(7), 3000)
        pts = cloud.points
        n = len(pts)
        r = 3 / 2048.0
        lo = np.array([5, 0, 0, n - 1, 40])
        hi = np.array([5, n, 1, n, 20])
        whole = cover_count_1d(cloud, float(pts[0]), float(pts[-1] - pts[0]), r)
        assert _batched(pts, [(2.0 * r, lo, hi), (4.0 * r, lo[:1], hi[:1])]) == [[0, whole, 1, 1, 0], [0]]
        assert _global_counts(cloud, [r]) == [whole]

    @pytest.mark.parametrize("seed", range(4))
    def test_net_centers_match_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        steps = (1e-4, 0.01, 0.3, 5.0)
        # points on cell edges k * step and the floats on either side,
        # where the rounded product and quotient can disagree
        edges = np.array([k * s for s in steps for k in range(-7, 8)])
        near = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        pts = np.unique(np.concatenate([rng.normal(0.0, 1.0, int(rng.integers(0, 3000))), near]))
        got, sizes = estimator._net_centers_1d(_Gaps(pts, min(steps)), np.array(steps))
        for step, part in zip(steps, np.split(got, np.cumsum(sizes)[:-1])):
            cells = np.floor(pts / step).astype(np.int64)
            _, first = np.unique(cells, return_index=True)
            assert np.array_equal(part, pts[np.sort(first)])
            assert np.array_equal(part, net_centers_1d(pts, step))
            # -step and the float below 0 are a step apart, so a block
            # starts at the latter, whose quotient rounds into the cell of
            # -step: the block starts no cell
            pair = np.array([-step, -5e-324, 0.0])
            got = estimator._net_centers_1d(_Gaps(pair, step), np.array([step]))[0]
            assert np.array_equal(got, net_centers_1d(pair, step)) and len(got) == 2


def _canonical_values(pts, r):
    """The points of the greedy chain from index 0 at width 2r, stepped one
    at a time as cover_count_1d steps."""
    chain, i = [], 0
    while i < len(pts):
        chain.append(pts[i])
        i = int(np.searchsorted(pts, pts[i] + 2.0 * r, side="right"))
    return np.array(chain)


def _tied_cloud():
    """One pattern of multiples of 2^-10 in [0, 1) repeated at the offsets
    0, 2, ..., 46: the translates are exact, so many windows tie for each
    extreme and only the first centre may be reported."""
    pattern = np.unique(np.random.default_rng(17).integers(0, 1024, 60)) / 1024.0
    return cloud_of((pattern + 2.0 * np.arange(24)[:, None]).ravel(), delta=2.0**-12)


#: a grid has no barriers, so its canonical listings are the longest; x_k =
#: 1/k accumulates at 0 like the parabolic clouds; the dyadic cloud is gap-rich
_EXTREME_CLOUDS = {
    "grid": lambda: cloud_of(np.arange(2500) / 1024.0, delta=2.0**-12),
    "reciprocal": lambda: cloud_of(1.0 / np.arange(1, 2501, dtype=float), delta=1e-5),
    "tied": _tied_cloud,
    "dyadic": lambda: _dyadic_cloud(np.random.default_rng(4), 2500),
}


def _random_pairs(cloud, rng, k):
    """k pairs (R, r) with R from hull/128 to the hull and R/r from 2 to 128."""
    hull = cloud.hull_diameter()
    return [(R, R * 2.0 ** -rng.uniform(1, 7)) for R in hull * 2.0 ** rng.uniform(-7, 0, k)]


def _scalar_extremes(cloud, R, r):
    """(count, first centre) of the largest and of the least cover_count_1d
    over the (R/2)-net of centres."""
    centers = net_centers_1d(cloud.points, R / 2.0)
    counts = [cover_count_1d(cloud, c, R, r) for c in centers]
    return [(best, centers[counts.index(best)]) for best in (max(counts), min(counts))]


class TestRankBound:
    """Greedy chains interleave, so a window's count is K or K + 1, with K
    the canonical points of its width inside it."""

    @pytest.mark.parametrize("name", sorted(_EXTREME_CLOUDS))
    def test_count_is_K_or_K_plus_one(self, name):
        cloud = _EXTREME_CLOUDS[name]()
        pts = cloud.points
        rng = np.random.default_rng(len(name))
        seen = set()
        for R, r in _random_pairs(cloud, rng, 8):
            canon = _canonical_values(pts, r)
            # net centres, and centres anywhere in the hull
            centers = np.r_[net_centers_1d(pts, R / 2.0), rng.uniform(pts[0] - R, pts[-1] + R, 20)]
            for c in centers:
                K = np.count_nonzero((canon >= c - R) & (canon <= c + R))
                excess = cover_count_1d(cloud, c, R, r) - K
                assert excess in (0, 1), (R, r, c)
                seen.add(excess)
        assert seen == {0, 1}


class TestExtremeCounts1D:
    """The extremes counted only at the windows that can hold them against
    the scalar sweep over every centre."""

    @pytest.mark.parametrize("name", sorted(_EXTREME_CLOUDS))
    def test_extremes_equal_the_scalar_sweep(self, name, monkeypatch):
        # budgets of 1 and 3 rounds break the canonical listings off, and
        # every window of a broken width is walked
        cloud = _EXTREME_CLOUDS[name]()
        pairs = _random_pairs(cloud, np.random.default_rng(100 + len(name)), 12)
        expected = [_scalar_extremes(cloud, R, r) for R, r in pairs]
        for rounds in _BUDGETS:
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            for lower in (False, True):
                got = estimator._extreme_counts(cloud, pairs, lower)
                assert got == [e[lower] for e in expected], (rounds, lower)

    @pytest.mark.parametrize("name", ["reciprocal", "tied"])
    def test_spectrum_diagnostics_equal_the_scalar_sweep(self, name):
        cloud = _EXTREME_CLOUDS[name]()
        thetas = np.linspace(0.2, 0.8, 4)
        for estimate, lower in ((assouad_spectrum_estimate, False), (lower_spectrum_estimate, True)):
            scales = [sd for diag in estimate(cloud, thetas).diagnostics for sd in diag.scales]
            assert len(scales) >= 12
            for sd in scales:
                assert (sd.count, sd.center) == _scalar_extremes(cloud, sd.R, sd.r)[lower]

    def test_ties_report_the_first_centre(self):
        # the pattern repeats 24 times, so the largest and the least counts
        # of a pair with R well inside one period are each reached by a
        # centre in every period
        cloud = _tied_cloud()
        pairs = [(0.25, 0.25 / 2**k) for k in (2, 4, 6)]
        for lower in (False, True):
            for (R, r), (count, center) in zip(pairs, estimator._extreme_counts(cloud, pairs, lower)):
                centers = net_centers_1d(cloud.points, R / 2.0)
                counts = np.array([cover_count_1d(cloud, c, R, r) for c in centers])
                assert np.count_nonzero(counts == count) >= 20
                assert center == centers[np.flatnonzero(counts == count)[0]]

    def test_only_candidate_windows_are_walked(self, monkeypatch):
        # on a gap-rich cloud few windows can hold an extreme; once the
        # canonical listing breaks off, every window of the width is walked
        walked = []
        kernel = estimator._greedy_counts_1d

        def spy(pts, keys, breaks, chain, two_r, lo, hi):
            walked.append(len(lo))
            return kernel(pts, keys, breaks, chain, two_r, lo, hi)

        monkeypatch.setattr(estimator, "_greedy_counts_1d", spy)
        cloud = _EXTREME_CLOUDS["dyadic"]()
        pairs = [(R, R / 16) for R in (0.05, 0.2, 1.0)]
        centers = sum(len(net_centers_1d(cloud.points, R / 2.0)) for R, _ in pairs)
        estimator._extreme_counts(cloud, pairs, False)
        assert 0 < sum(walked) * 10 < centers
        walked.clear()
        grid = _EXTREME_CLOUDS["grid"]()
        monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", 1)
        estimator._extreme_counts(grid, pairs, False)
        assert sum(walked) == sum(len(net_centers_1d(grid.points, R / 2.0)) for R, _ in pairs)


def _chain_positions(pts, two_r):
    """The positions of the greedy chain from index 0 at the width two_r."""
    return np.searchsorted(pts, _canonical_values(pts, two_r / 2.0))


def _scalar_windows(pts, two_r, lo, hi):
    """The greedy counts of the windows pts[lo[k]:hi[k]] by intervals of
    length two_r, stepped one position at a time."""
    counts = []
    for i, stop in zip(lo, hi):
        count = 0
        while i < stop:
            count += 1
            i = int(np.searchsorted(pts, pts[i] + two_r, side="right"))
        counts.append(count)
    return counts


def _shared(pts, jobs):
    """Counts of every window of the jobs (two_r, lo, hi), with the widths
    grouped as the planner groups them and listed by _shared_chains."""
    gaps = _Gaps(pts, min(two_r for two_r, _, _ in jobs))
    widths, groups = {}, {}
    for two_r in sorted({two_r for two_r, _, _ in jobs}):
        key = tuple(int(v[0]) for v in gaps.bound(np.array([two_r])))
        widths[two_r] = groups.setdefault(key, len(groups))
    keys, breaks, chain_of = estimator._shared_chains(gaps, widths)
    sizes = [len(lo) for _, lo, _ in jobs]
    chain = np.repeat([chain_of[two_r] for two_r, _, _ in jobs], sizes)
    two_r = np.repeat([two_r for two_r, _, _ in jobs], sizes)
    counts = _greedy_counts_1d(pts, keys, breaks, chain, two_r,
                               np.concatenate([lo for _, lo, _ in jobs]), np.concatenate([hi for _, _, hi in jobs]))
    return [part.tolist() for part in np.split(counts, np.cumsum(sizes)[:-1])]


def _twins(w, ulps=2):
    """w and the floats up to ulps steps on either side of it."""
    out = [w]
    for direction in (np.inf, -np.inf):
        x = w
        for _ in range(ulps):
            x = np.nextafter(x, direction)
            out.append(float(x))
    return out


class TestSharedChains:
    """Widths that share a group reuse one listed canonical chain once the
    certificate proves it is their own."""

    def test_certificate_accepts_ulp_twins_and_rejects_other_chains(self):
        # the widths of test_widths_one_ulp_apart: at three grid steps and an
        # ulp above, the chain from 0 takes every fourth point; an ulp
        # below, every third.  On three points, the widths 0.5 and an ulp
        # below differ only in the last step.  On a cloud of random floats,
        # ulp twins of random widths and of widths that reach a point
        # exactly from the first
        rng = np.random.default_rng(8)
        floats = np.r_[0.0, np.sort(rng.random(800)) ** 2]
        cases = [(np.arange(4000) / 1024.0, [3 / 1024.0]), (np.array([0.0, 0.25, 0.5]), [0.5]),
                 (floats, np.r_[rng.uniform(1e-3, 0.2, 20), rng.choice(floats[1:], 20)])]
        for pts, bases in cases:
            seen = set()
            for w in bases:
                twins = _twins(float(w), ulps=1)
                for a in twins:
                    keys, breaks = estimator._canonical_keys(_Gaps(pts, a), np.array([a]))
                    assert len(breaks) == 1 and np.array_equal(keys, _chain_positions(pts, a))
                    for b in twins:
                        verdict = estimator._certifies(pts, keys, b)
                        assert verdict == np.array_equal(keys, _chain_positions(pts, b)), (a, b)
                        seen.add(verdict)
            assert seen == {True, False}, len(pts)

    def test_a_broken_listing_is_never_shared(self, monkeypatch):
        # blocks 0, 1/8, 1/2 two apart: at 2r = 1/2 the chain from 0 steps
        # over 1/2, an ulp below it lands there.  One round lists only the
        # block starts of the narrower twin, which the certificate accepts
        # for the wider one, but its break at 1/2 is not on the wider chain
        pts = (np.array([0.0, 0.125, 0.5]) + 2.0 * np.arange(8)[:, None]).ravel()
        cloud = cloud_of(pts)
        wide = 0.5
        narrow = float(np.nextafter(wide, -np.inf))
        monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", 1)
        keys, breaks = estimator._canonical_keys(_Gaps(pts, narrow), np.array([narrow]))
        assert len(breaks) > 1 and estimator._certifies(pts, keys, wide)
        lo, hi = np.arange(len(pts)), np.full(len(pts), len(pts))
        assert _shared(pts, [(narrow, lo, hi), (wide, lo, hi)]) == [_scalar_windows(pts, two_r, lo, hi)
                                                                   for two_r in (narrow, wide)]
        pairs = [(R, two_r / 2.0) for R in (0.5, 1.0, 4.0) for two_r in (narrow, wide)]
        assert estimator._extreme_counts(cloud, pairs, False) == [_scalar_extremes(cloud, R, r)[0] for R, r in pairs]

    def test_twins_sharing_a_chain_jump_by_their_own_width(self, monkeypatch):
        # near 0, x + 2r and x plus the float below 2r round apart, so on
        # clouds across 0 the twins' next-pointer tables differ while their
        # chains from the first point can agree.  Listed at the default
        # budget and walked for 1-3 rounds, the windows of both twins jump
        shared = 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(5, 40))
            pts = np.unique(rng.integers(-4 * m, m, int(rng.integers(10, 60)))) / 1024.0
            wide = m / 1024.0
            narrow = float(np.nextafter(wide, -np.inf))
            tables = [np.searchsorted(pts, pts + w, side="right") for w in (narrow, wide)]
            if np.array_equal(*tables) or not np.array_equal(_chain_positions(pts, narrow), _chain_positions(pts, wide)):
                continue
            shared += 1
            keys, breaks = estimator._canonical_keys(_Gaps(pts, narrow), np.array([narrow]))
            lo = np.r_[np.arange(len(pts)), np.arange(len(pts))]
            hi = np.full(len(lo), len(pts))
            two_r = np.repeat([narrow, wide], len(pts))
            expected = [n for w in (narrow, wide) for n in _scalar_windows(pts, w, lo[:len(pts)], hi[:len(pts)])]
            for rounds in (1, 2, 3):
                monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
                got = _greedy_counts_1d(pts, keys, breaks, np.zeros(len(lo), dtype=np.int64), two_r, lo, hi)
                assert got.tolist() == expected, (seed, rounds)
            monkeypatch.undo()
        assert shared >= 3

    @pytest.mark.parametrize("seed", range(6))
    def test_extremes_with_twin_widths_equal_the_scalar_sweep(self, seed, monkeypatch):
        # clusters of ulp twins around random widths, around one gap, and
        # around the distance from the first point to another, which the
        # chain from it reaches exactly at that width and misses an ulp
        # below; budgets of 1 and 3 rounds break the listings off, and a
        # broken leader's twins are listed on their own
        rng = np.random.default_rng(seed)
        n = int(rng.integers(300, 1200))
        if seed % 2:
            cloud = cloud_of(np.r_[0.0, np.sort(rng.random(n)) ** 2])
        else:
            dyadic = _dyadic_cloud(rng, n).points
            cloud = cloud_of(dyadic - dyadic[0])
        pts = cloud.points
        hull = cloud.hull_diameter()
        gaps = np.diff(pts)
        bases = np.r_[hull * 2.0 ** rng.uniform(-9, -3, 2), rng.choice(gaps, 2),
                      pts[rng.integers(1, len(pts), 3)]]
        pairs = [(min(hull, w * 2.0 ** rng.uniform(0, 6)), w / 2.0) for b in bases for w in _twins(float(b))]
        expected = [_scalar_extremes(cloud, R, r) for R, r in pairs]
        verdicts = []
        certifies = estimator._certifies

        def recording(pts, chain, two_r):
            verdicts.append(certifies(pts, chain, two_r))
            return verdicts[-1]

        monkeypatch.setattr(estimator, "_certifies", recording)
        for rounds in _BUDGETS:
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            for lower in (False, True):
                got = estimator._extreme_counts(cloud, pairs, lower)
                assert got == [e[lower] for e in expected], (rounds, lower)
        assert True in verdicts and False in verdicts

    def test_default_ctd_clustered_estimate_lists_at_most_140_chains(self, monkeypatch):
        # the 64-node compare grid asks for 257 distinct widths, which were
        # each listed; 126 of them are ulp twins of a neighbour
        listed = []
        canonical_keys = estimator._canonical_keys

        def counting(gaps, widths):
            listed.append(len(widths))
            return canonical_keys(gaps, widths)

        family = make_family("ctd-clustered")
        cloud = build_limit_cloud(family.spec, family.default_delta)
        monkeypatch.setattr(estimator, "_canonical_keys", counting)
        assouad_spectrum_estimate(cloud, np.linspace(*THETA_RANGE, 64))
        assert 0 < sum(listed) <= 140


#: the seven default compare runs, by family and parameters
_DEFAULT_COMPARES = {
    "sharp-t3.6": ("sharp", {"p": 1.8, "t": 3.6, "h": 0.5}),
    "sharp-t2.8": ("sharp", {"p": 1.8, "t": 2.8, "h": 0.5}),
    "fp": ("fp", {}),
    "ctd-spaced": ("ctd-spaced", {}),
    "dense-cf": ("dense-cf", {}),
    "ctd-clustered": ("ctd-clustered", {}),
    "parabolic": ("parabolic", {}),
}


class TestBatches:
    """A batch makes its array calls for all its pairs at once: the net
    centres, the canonical counts K and the extremes of every pair."""

    @pytest.mark.parametrize("name", sorted(_EXTREME_CLOUDS))
    def test_one_batch_equals_one_pair_per_batch(self, name, monkeypatch):
        # both spectra; ulp twins of every width; on the tied cloud, pairs
        # whose extremes every period reaches.  At one round the listings
        # break off, and the last walks are stepped one at a time never,
        # as shipped, or from the start
        cloud = _EXTREME_CLOUDS[name]()
        rng = np.random.default_rng(200 + len(name))
        pairs = [(R, t) for R, r in _random_pairs(cloud, rng, 3) for t in _twins(r, 1)]
        pairs += [(0.25, 0.25 / 2**k) for k in (2, 4)]
        expected = [_scalar_extremes(cloud, R, r) for R, r in pairs]
        batches = []
        count_batch = estimator._count_batch

        def counted(gaps, R, *rest):
            batches.append(len(R))
            return count_batch(gaps, R, *rest)

        monkeypatch.setattr(estimator, "_count_batch", counted)
        monkeypatch.setattr(estimator, "_BATCH_FLOOR", 1 << 40)
        for rounds, few in ((estimator._LOCKSTEP_ROUNDS, estimator._FEW), (1, estimator._FEW),
                            (estimator._LOCKSTEP_ROUNDS, 0), (estimator._LOCKSTEP_ROUNDS, len(cloud))):
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            monkeypatch.setattr(estimator, "_FEW", few)
            for lower in (False, True):
                want = [e[lower] for e in expected]
                batches.clear()
                assert estimator._extreme_counts(cloud, pairs, lower) == want, (rounds, few, lower)
                assert batches == [len(pairs)]
                assert [estimator._extreme_counts(cloud, [pair], lower)[0] for pair in pairs] == want

    @pytest.mark.parametrize("name", sorted(_EXTREME_CLOUDS))
    def test_listing_does_not_depend_on_who_steps_it(self, name, monkeypatch):
        # the last chains stepped one at a time list every position the
        # lockstep lists, and break off where it breaks off
        pts = _EXTREME_CLOUDS[name]().points
        widths = np.sort(np.r_[pts[-1] - pts[0], np.diff(pts)[:3]] * 2.0 ** np.random.default_rng(9).uniform(-9, 0, 4))
        for rounds in _BUDGETS:
            monkeypatch.setattr(estimator, "_LOCKSTEP_ROUNDS", rounds)
            listings = []
            for few in (0, estimator._FEW, len(pts)):
                monkeypatch.setattr(estimator, "_FEW", few)
                listings.append(estimator._canonical_keys(_Gaps(pts, widths[0]), widths))
            for keys, breaks in listings[1:]:
                assert np.array_equal(keys, listings[0][0]) and np.array_equal(breaks, listings[0][1]), rounds

    @pytest.mark.parametrize("name", sorted(_DEFAULT_COMPARES))
    def test_net_centers_at_every_default_ladder_step(self, name):
        family, params = _DEFAULT_COMPARES[name]
        cloud = _build_cloud(make_family(family, params), None)
        pts, hull = cloud.points, cloud.hull_diameter()
        steps = np.array([R / 2.0 for ladder in estimator._spectrum_scales(np.linspace(*THETA_RANGE, 64),
                                                                            cloud.delta, hull)
                          for R in ladder])
        got, sizes = estimator._net_centers_1d(_Gaps(pts, steps.min()), steps)
        for step, part in zip(steps, np.split(got, np.cumsum(sizes)[:-1])):
            assert np.array_equal(part, net_centers_1d(pts, step)), step


class TestSquares:
    """The planar square order by one int64 key against sort_groups."""

    @pytest.mark.parametrize("seed", range(4))
    def test_order_and_starts_equal_sort_groups(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(-3.0, 2.0, (int(rng.integers(1, 3000)), 2))
        for step in (1e-3, 0.1, 0.7, 50.0):
            cells = np.floor(pts / step).astype(np.int64)
            assert (cells < 0).any()
            order, new = sort_groups((cells[:, 0], cells[:, 1]))
            got, first = _squares(pts, step)
            assert np.array_equal(got, order) and np.array_equal(first, np.flatnonzero(new)), step

    def test_keys_that_could_overflow_take_the_lexsort(self, monkeypatch):
        # x cells spanning 2^32 values and y cells 2^31: the product of the
        # spans reaches 2^63, which the guard refuses; one row fewer passes
        calls = []

        def spy(keys):
            calls.append(len(keys[0]))
            return sort_groups(keys)

        monkeypatch.setattr(estimator, "sort_groups", spy)
        for top, lexsorted in ((2.0**31 - 1, True), (2.0**31 - 2, False)):
            pts = np.array([[0.0, top], [0.5, 0.0], [2.0**32 - 1, 0.25], [0.25, top + 0.5], [0.75, 0.5]])
            cells = np.floor(pts).astype(np.int64)
            order, new = sort_groups((cells[:, 0], cells[:, 1]))
            calls.clear()
            got, first = _squares(pts, 1.0)
            assert calls == ([5] if lexsorted else [])
            assert np.array_equal(got, order) and np.array_equal(first, np.flatnonzero(new))


class TestCoverCount2D:
    def test_single_point(self):
        cloud = cloud_of([[0.3, 0.4]], dim=2)
        assert cover_count_2d(cloud, complex(0.3, 0.4), 0.1, 0.01) == 1

    def test_square_corners(self):
        r = 0.05
        pts = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
        cloud = cloud_of(pts, dim=2)
        assert cover_count_2d(cloud, complex(0.25, 0.25), 1.0, r) == 4

    def test_uniform_grid_cell_count(self):
        n = 20
        xs = (np.arange(n) + 0.5) / n
        pts = np.array([(x, y) for x in xs for y in xs])
        cloud = cloud_of(pts, dim=2)
        assert cover_count_2d(cloud, complex(0.5, 0.5), 1.0, 1.0 / n) == n * n

    @pytest.mark.parametrize("R, r", [(np.nan, 0.1), (0.5, np.nan), (0.0, 0.1), (0.5, -0.1)])
    def test_scales_that_are_not_positive(self, R, r):
        with pytest.raises(DomainError):
            cover_count_2d(cloud_of([[0.3, 0.4]], dim=2), complex(0.3, 0.4), R, r)


def _scalar_counts_2d(pts, centers, R, r):
    cloud = cloud_of(pts, dim=2)
    return [cover_count_2d(cloud, complex(*c), R, r) for c in centers]


def _edge_points(steps, ks=range(-7, 8)):
    """Mesh edges k * step and the floats on either side, where the
    rounded quotient p / step can land on either side of k."""
    edges = np.array([k * s for s in steps for k in ks])
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])


class TestCounts2D:
    """The estimator's batched planar kernel against cover_count_2d."""

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_points_exactly_at_distance_R(self, k):
        # offsets (3, 4) * s and their turns and reflections have hypot
        # exactly 5s = R, so the disc's boundary decides them
        s = 2.0**-k
        offsets = [(sx * a, sy * b) for a, b in ((3, 4), (4, 3), (5, 0), (0, 5))
                   for sx in (1, -1) for sy in (1, -1)]
        center = np.array([0.375, -0.625])
        rng = np.random.default_rng(k)
        pts = np.unique(np.vstack([center, center + s * np.array(offsets, dtype=float),
                                   center + s * rng.uniform(-6, 6, (200, 2))]), axis=0)
        for R in (5 * s, np.nextafter(5 * s, -np.inf), np.nextafter(5 * s, np.inf)):
            for r in (s / 4, 0.3 * s, 2 * s):
                assert _counts_2d(pts, pts, R, r).tolist() == _scalar_counts_2d(pts, pts, R, r)
        at_r = _counts_2d(pts, center[None, :], 5 * s, s / 4)[0]
        assert at_r > _counts_2d(pts, center[None, :], np.nextafter(5 * s, -np.inf), s / 4)[0]

    @pytest.mark.parametrize("r", [2.0**-6, 0.01, 0.3])
    def test_points_on_mesh_edges_with_negative_coordinates(self, r):
        rng = np.random.default_rng(int(r * 1000))
        near = _edge_points([r])
        pts = np.unique(np.vstack([rng.choice(near, (600, 2)), rng.uniform(-7 * r, 7 * r, (300, 2))]), axis=0)
        assert (pts < 0).any()
        centers = pts[rng.choice(len(pts), 60, replace=False)]
        for R in (r, 3.3 * r, 20 * r):
            assert _counts_2d(pts, centers, R, r).tolist() == _scalar_counts_2d(pts, centers, R, r)

    def test_one_point_cloud(self):
        pts = np.array([[-0.3, 0.7]])
        assert _counts_2d(pts, pts, 0.1, 0.01).tolist() == [1]
        assert _counts_2d(pts, pts, 0.1, 0.01).tolist() == _scalar_counts_2d(pts, pts, 0.1, 0.01)

    def test_centres_alone_in_their_disc(self):
        # a unit grid with x jittered below 0.05: discs of radius 0.9 hold
        # their centre only; one an ulp under 1 leaves out the neighbours
        # exactly 1 away in y and takes some of the jittered ones in x
        grid = np.array([(i, j) for i in range(-4, 5) for j in range(-3, 4)], dtype=float)
        pts = grid + np.random.default_rng(2).uniform(0, 0.05, grid.shape) * [1, 0]
        for R in (0.9, np.nextafter(1.0, 0.0)):
            counts = _counts_2d(pts, pts, R, 0.01)
            assert counts.tolist() == _scalar_counts_2d(pts, pts, R, 0.01)
        assert set(_counts_2d(pts, pts, 0.9, 0.01).tolist()) == {1}

    @pytest.mark.parametrize("seed", range(3))
    def test_centres_split_across_chunks(self, seed, monkeypatch):
        # with the floor at 1 a chunk holds at most n candidates, so wide
        # discs put one centre in a chunk and narrow ones several
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.normal(0.0, 1.0, (int(rng.integers(300, 1500)), 2)), axis=0)
        centers = _net_centers_2d(pts, 0.2)
        expected = {R: _scalar_counts_2d(pts, centers, R, R / 8) for R in (0.05, 0.4, 10.0)}
        monkeypatch.setattr(estimator, "_CANDIDATE_FLOOR", 1)
        for R, counts in expected.items():
            assert _counts_2d(pts, centers, R, R / 8).tolist() == counts

    @pytest.mark.parametrize("seed", range(4))
    def test_net_centers_match_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        steps = (1e-4, 0.01, 0.3, 5.0)
        near = _edge_points(steps)
        pts = np.vstack([rng.normal(0.0, 1.0, (int(rng.integers(1, 3000)), 2)), rng.choice(near, (400, 2))])
        for step in steps:
            cells = np.floor(pts / step).astype(np.int64)
            _, first = np.unique(cells, axis=0, return_index=True)
            assert np.array_equal(_net_centers_2d(pts, step), pts[np.sort(first)])
            assert _global_counts(cloud_of(pts, dim=2), [step]) == [len(first)]

    def test_full_complex_cloud_against_the_scalar_count(self):
        # every ladder pair of the 8-node spectrum on the full complex
        # continued-fraction cloud, 20 seeded centres each
        import ifsdim as F
        from ifsdim.jsonio import spec_from_dict

        cloud = F.build_limit_cloud(spec_from_dict({"kind": "complex_gauss", "digits": "full"}), 0.01)
        pts, hull = cloud.points, cloud.hull_diameter()
        thetas = np.linspace(0.05, 0.9, 8)
        pairs = [(R, R ** (1.0 / theta)) for theta, ladder in zip(thetas, estimator._spectrum_scales(
                 thetas, cloud.delta, hull)) for R in ladder]
        assert len(pairs) >= 40
        rng = np.random.default_rng(20)
        for R, r in pairs:
            centers = pts[rng.choice(len(pts), 20, replace=False)]
            assert _counts_2d(pts, centers, R, r).tolist() == _scalar_counts_2d(pts, centers, R, r)

    def test_square_cut_by_the_circle_counts_once(self):
        # the square [0, 1) x [0, 1) holds two points within 1 of the
        # centre and two beyond it; the centre's own square is the other
        center = np.array([[-0.5, 0.5]])
        pts = np.vstack([center, [[0.2, 0.3], [0.3, 0.6], [0.9, 0.9], [0.95, 0.1]]])
        assert _counts_2d(pts, center, 1.0, 1.0).tolist() == [2]
        assert _scalar_counts_2d(pts, center, 1.0, 1.0) == [2]

    @pytest.mark.parametrize("R, tested", [(0.625, True), (1.25, False), (0.25, False)])
    def test_squares_near_the_circle_test_their_points(self, R, tested, monkeypatch):
        # offsets (3, 4) / 8 and (2, 3) / 8 share the square (1, -1) of the
        # mesh of side 1/2, apart from the centre's, and the far corner of
        # their box is exactly R = 5 / 8 away: within R by less than the
        # margin, so its points are tested.  Far inside or beyond the
        # circle the square is decided by its box alone
        center = np.array([[0.375, -0.625]])
        pts = np.vstack([center, center + np.array([[3.0, 4.0], [2.0, 3.0]]) / 8])
        calls = []

        def spy(starts, lens):
            calls.append(len(lens))
            return runs(starts, lens)

        runs = estimator.ranges
        monkeypatch.setattr(estimator, "ranges", spy)
        counts = _counts_2d(pts, center, R, 0.5)
        assert counts.tolist() == _scalar_counts_2d(pts, center, R, 0.5) == [1 if R < 0.5 else 2]
        # one gather of candidate squares, and one of the cut squares' points
        assert len(calls) == (2 if tested else 1)

    def test_estimate_memory_stays_bounded(self):
        # the chunks keep the estimate's transient arrays near the cloud's
        # size: 0.74 MB on this cloud of 3.5k points against 1.86 MB with
        # every pair counted in one chunk (tracemalloc, numpy 2.4)
        import tracemalloc

        import ifsdim as F
        from ifsdim.jsonio import spec_from_dict

        doc = {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}
        cloud = F.build_limit_cloud(spec_from_dict(doc), 3e-5)
        assert 3000 < len(cloud) < 4000
        thetas = np.linspace(0.05, 0.9, 8)
        tracemalloc.start()
        try:
            assouad_spectrum_estimate(cloud, thetas)
            lower_spectrum_estimate(cloud, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestSpectrumEstimate:
    def test_empty_theta_grid_is_domain_error(self):
        cloud = cloud_of(np.linspace(0.0, 1.0, 101), delta=1e-3)
        with pytest.raises(DomainError):
            assouad_spectrum_estimate(cloud, [])
        with pytest.raises(DomainError):
            lower_spectrum_estimate(cloud, [])

    @pytest.mark.parametrize("thetas", [[0.5, np.nan], [np.nan], [0.0, 0.5], [0.5, 1.0], [0.6, 0.4],
                                        [[0.3, 0.4]], 0.5])
    def test_bad_theta_grid_is_rejected_before_counting(self, thetas, monkeypatch):
        def counted(*args):
            raise AssertionError("counted before the grid was checked")

        monkeypatch.setattr(estimator, "_extreme_counts", counted)
        cloud = cloud_of(np.linspace(0.0, 1.0, 101), delta=1e-3)
        for estimate in (assouad_spectrum_estimate, lower_spectrum_estimate):
            with pytest.raises(DomainError, match="theta grid"):
                estimate(cloud, thetas)

    @pytest.mark.parametrize("delta, hull", [(1e-5, 1.0), (1e-3, 0.5), (0.05, 1.0), (1e-12, 3.0), (0.01, 0.05)])
    def test_ladders_equal_a_geomspace_call_per_node(self, delta, hull):
        # the ladders' rungs bit for bit as each node's own np.geomspace
        # call gave them, with the nodes that have no ladder among them
        thetas = np.concatenate([np.linspace(0.01, 0.99, 99), np.linspace(*THETA_RANGE, 64)])
        r_min = estimator._R_MIN_FACTOR * delta
        got = estimator._spectrum_scales(thetas, delta, hull)
        assert len(got) == len(thetas) and any(got) and not all(got)
        for theta, ladder in zip(thetas, got):
            ends = estimator._ladder_ends(theta, r_min, hull)
            rungs = np.geomspace(*ends, estimator._MAX_SCALES) if len(ends) == 2 else ends
            want = [float(R) for R in rungs
                    if R ** (1.0 / theta) >= r_min * (1.0 - 1e-12) and R / R ** (1.0 / theta) >= 2.0]
            assert [R.hex() for R in ladder] == [R.hex() for R in want], theta

    def test_geomspace_with_array_ends_equals_one_call_per_pair(self):
        rng = np.random.default_rng(12)
        starts = 10.0 ** rng.uniform(-6.0, 1.0, 20000)
        stops = starts * 10.0 ** rng.uniform(-8.0, -1e-9, 20000)
        rungs = np.geomspace(starts, stops, estimator._MAX_SCALES, axis=1)
        for k in range(0, 20000, 7):
            assert np.array_equal(rungs[k], np.geomspace(starts[k], stops[k], estimator._MAX_SCALES)), k

    def test_reciprocal_sequence_matches_formula(self):
        pts = 1.0 / np.arange(1, 1_000_001, dtype=float)
        cloud = cloud_of(pts, delta=1e-6)
        rep = assouad_spectrum_estimate(cloud, [0.3])
        assert rep.curve.values[0] == pytest.approx(fp_spectrum(1.0, 0.3), abs=0.07)

    def test_single_point_cloud(self):
        rep = assouad_spectrum_estimate(cloud_of([0.5]), [0.3, 0.6])
        assert np.allclose(rep.curve.values, 0.0)

    def test_uniform_grid_is_one_dimensional(self):
        pts = np.linspace(0.0, 1.0, 20001)
        cloud = cloud_of(pts, delta=5e-5)
        rep = assouad_spectrum_estimate(cloud, [0.3, 0.5, 0.7])
        assert np.all(np.abs(rep.curve.values - 1.0) < 0.05)

    def test_invalid_nodes_flagged_not_dropped(self):
        pts = np.linspace(0.0, 1.0, 101)
        cloud = cloud_of(pts, delta=1e-2)
        rep = assouad_spectrum_estimate(cloud, [0.05, 0.5])
        assert len(rep.diagnostics) == 2
        flagged = [d for d in rep.diagnostics if not d.valid]
        for d in flagged:
            assert "admissible scales" in d.note
            assert np.isnan(rep.curve.values[list(rep.curve.thetas).index(d.theta)])

    def test_every_valid_node_uses_enough_scales(self):
        pts = 1.0 / np.arange(1, 100_001, dtype=float)
        cloud = cloud_of(pts, delta=1e-5)
        rep = assouad_spectrum_estimate(cloud, np.arange(0.1, 0.9, 0.1))
        for diag in rep.diagnostics:
            if diag.valid and diag.scales:
                assert len(diag.scales) >= _MIN_SCALES
                for sd in diag.scales:
                    assert sd.r >= estimator._R_MIN_FACTOR * cloud.delta * (1 - 1e-12)

    def test_anchor_choice_does_not_move_the_spectrum(self):
        tail = SimilarityTail(PowerRule(1.0, 3.0), PowerRule(1.0, 1.0), start=2)
        thetas = [0.25, 0.45, 0.65]
        estimates = []
        for anchor in (0.0, 1.0):
            spec = CifsSpec(1, (0.0, 1.0), (), tail, anchor=anchor)
            cloud = build_fixed_point_cloud(spec, 1e-6)
            rep = assouad_spectrum_estimate(cloud, thetas)
            estimates.append(rep.curve.values)
        assert np.max(np.abs(estimates[0] - estimates[1])) <= 0.07


class TestBoxDimension:
    def test_uniform_grid(self):
        pts = np.linspace(0.0, 1.0, 20001)
        cloud = cloud_of(pts, delta=5e-5)
        assert box_dimension_estimate(cloud).value == pytest.approx(1.0, abs=0.05)

    def test_single_point(self):
        assert box_dimension_estimate(cloud_of([0.4])).value == 0.0

    def test_reciprocal_sequence_half(self):
        pts = 1.0 / np.arange(1, 1_000_001, dtype=float)
        cloud = cloud_of(pts, delta=1e-6)
        assert box_dimension_estimate(cloud).value == pytest.approx(0.5, abs=0.1)


class TestAssouadDimension:
    def test_uniform_grid(self):
        pts = np.linspace(0.0, 1.0, 20001)
        cloud = cloud_of(pts, delta=5e-5)
        assert assouad_dimension_estimate(cloud).value == pytest.approx(1.0, abs=0.08)

    def test_reciprocal_sequence_tends_to_one(self):
        pts = 1.0 / np.arange(1, 1_000_001, dtype=float)
        cloud = cloud_of(pts, delta=1e-6)
        est = assouad_dimension_estimate(cloud)
        assert est.value > 0.85
        assert est.best.count >= 1

    def test_two_points_is_zero_dimensional(self):
        cloud = cloud_of([0.0, 1.0], delta=1e-6)
        assert assouad_dimension_estimate(cloud).value == pytest.approx(0.0, abs=1e-9)


class TestLowerSpectrum:
    def test_lower_collapse_family(self):
        spec = CifsSpec(1, (0.0, 1.0), (),
                        SimilarityTail(GeometricRule(1.0, 0.5), PowerRule(1.0, 1.0), start=2))
        cloud = build_limit_cloud(spec, 2.0**-18)
        rep = lower_spectrum_estimate(cloud, [0.5])
        assert rep.curve.values[0] < 0.1
        assert box_dimension_estimate(cloud).value > 0.0

    def test_uniform_grid_stays_one(self):
        pts = np.linspace(0.0, 1.0, 20001)
        cloud = cloud_of(pts, delta=5e-5)
        # larger theta ties the scales so hard that the ladder loses the
        # ratio span needed to resolve the exponent at this resolution
        rep = lower_spectrum_estimate(cloud, [0.35, 0.5])
        assert np.all(rep.curve.values > 0.9)

    def test_single_point(self):
        rep = lower_spectrum_estimate(cloud_of([0.2]), [0.5])
        assert rep.curve.values[0] == 0.0

    def test_counts_are_least_scalar_counts(self):
        # every scale of the lower spectrum reports the least greedy count
        # over the (R/2)-net and the first center reaching it
        cloud = cloud_of(1.0 / np.arange(1, 4001, dtype=float), delta=1e-5)
        rep = lower_spectrum_estimate(cloud, [0.3, 0.5, 0.7])
        assert sum(len(diag.scales) for diag in rep.diagnostics) >= 9
        for diag in rep.diagnostics:
            for sd in diag.scales:
                centers = net_centers_1d(cloud.points, sd.R / 2.0)
                counts = [cover_count_1d(cloud, c, sd.R, sd.r) for c in centers]
                assert sd.count == min(counts)
                assert sd.center == centers[counts.index(sd.count)]


class TestChainInequality:
    def test_box_spectrum_assouad_ordering(self):
        spec = CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.25, 0.0)), (2, Similarity(0.25, 0.75))))
        cloud = build_limit_cloud(spec, 1e-6)
        box = box_dimension_estimate(cloud).value
        # theta capped where this resolution still resolves the counts
        rep = assouad_spectrum_estimate(cloud, np.arange(0.15, 0.66, 0.1))
        asd = assouad_dimension_estimate(cloud).value
        vals = rep.curve.values[np.isfinite(rep.curve.values)]
        assert box <= np.min(vals) + 0.05
        assert np.max(vals) <= asd + 0.05
        # self-similar set: spectrum is flat at the similarity dimension
        assert np.all(np.abs(vals - 0.5) < 0.05)


class TestResolutionRobustness:
    def test_halving_delta_moves_exponents_little(self):
        import ifsdim as F

        thetas = np.array([0.25, 0.4, 0.55, 0.7])
        spec = F.build_sharp_family(1.8, 3.6, 0.5)
        coarse = assouad_spectrum_estimate(F.build_limit_cloud(spec, 1e-6), thetas).curve.values
        fine = assouad_spectrum_estimate(F.build_limit_cloud(spec, 5e-7), thetas).curve.values
        assert np.max(np.abs(coarse - fine)) < 0.03


class TestPlanarPath:
    def test_complex_system_estimates(self):
        import ifsdim as F
        from ifsdim.jsonio import spec_from_dict

        doc = {"kind": "complex_gauss", "digits": [[m, n] for m in (2, 3) for n in (-1, 0, 1)]}
        spec = spec_from_dict(doc)
        cloud = F.build_limit_cloud(spec, 2e-4)
        assert cloud.ambient_dim == 2 and cloud.complete
        h = F.hausdorff_dimension(spec)
        box = box_dimension_estimate(cloud).value
        # box-count of the cloud tracks the certified dimension enclosure
        assert abs(box - 0.5 * sum(h.enclosure)) < 0.1
        rep = assouad_spectrum_estimate(cloud, [0.4])
        assert 0.0 <= rep.curve.values[0] <= 2.0


def test_nodes_are_estimated_independently():
    # all nodes' scale pairs are counted together; a node's value and
    # diagnostics must not depend on which other nodes are asked for, so
    # that a saved cloud re-estimated at a few nodes reproduces curves.csv
    import ifsdim as F

    cloud = F.build_limit_cloud(F.build_sharp_family(1.8, 3.6, 0.5), 1e-6)
    thetas = np.linspace(0.05, 0.9, 12)
    full = assouad_spectrum_estimate(cloud, thetas)
    for pick in ([0], [5], [3, 11], list(range(0, 12, 3)), [2, 7, 8]):
        part = assouad_spectrum_estimate(cloud, thetas[pick])
        assert np.array_equal(part.curve.values, full.curve.values[pick], equal_nan=True)
        assert repr(part.diagnostics) == repr(tuple(full.diagnostics[i] for i in pick))


# sha256 of repr of the 2-D estimates of the finite complex system (digits
# (2,0), (2,+-1), (3,0)) at delta 1e-4 on linspace(0.05, 0.9, 8): values
# and diagnostics of both spectra, the Assouad estimate with its query,
# and the box estimate's radii and counts.  Recorded with the per-centre
# counting loop that the batched 2-D kernel replaced.
GOLDEN_PLANAR = {
    "assouad_spectrum": "b7938fa76ac8294a4ead307b392ddff9bced21f44ce6defd29cfea1098c5dec4",
    "lower_spectrum": "310cefaf2c321421e9d5cb7a981f13d97a0cefb306dd4122e366d22258414f02",
    "assouad_dimension": "fd70c9f2d45211bf67850c40423cb06f49587c3385f61eaec5dd95ccbff727ee",
    "box_dimension": "7c0f4997487ff7bc5db21a2f72d3c6dd7914ae093b45c5e1d781c65e6db679bd",
}


def test_planar_golden_digests():
    import hashlib

    import ifsdim as F
    from ifsdim.jsonio import spec_from_dict

    doc = {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}
    cloud = F.build_limit_cloud(spec_from_dict(doc), 1e-4)
    thetas = np.linspace(0.05, 0.9, 8)
    up = assouad_spectrum_estimate(cloud, thetas)
    low = lower_spectrum_estimate(cloud, thetas)
    outputs = {
        "assouad_spectrum": (up.curve.values.tolist(), up.diagnostics),
        "lower_spectrum": (low.curve.values.tolist(), low.diagnostics),
        "assouad_dimension": assouad_dimension_estimate(cloud),
        "box_dimension": box_dimension_estimate(cloud),
    }
    digests = {name: hashlib.sha256(repr(out).encode()).hexdigest() for name, out in outputs.items()}
    assert digests == GOLDEN_PLANAR
