"""Finite-resolution point clouds of limit sets and fixed-point sets.

One builder serves every spec, on the line or in the plane, with or
without an infinite tail.  It expands cylinders breadth first, one
level at a time over arrays of Moebius maps: every cylinder of diameter
at least delta that meets the window is expanded, and each frontier
cylinder below delta contributes the image of the anchor point.

An infinite tail is truncated metrically under every node S on a grid
of its own: cells of width delta/2 over the largest derivative of S on
the seed domain, laid in tail space (before S is applied).  Each node
keeps the first tail child it reaches in each cell, whose image lies
within delta/2 of the images of the dropped ones, and the rest of the
tail, inside an envelope within one cell of the accumulation point, is
replaced by the image of that point.

The builder asks ``cifs.geometry`` how maps move intervals or discs,
the same array geometry the axiom checks use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .cifs import CifsSpec, Region, geometry
from .errors import CloudSizeError, ConfigurationError
from .mobius import IDENTITY, Mobius, concat_arrays, concat_mobius, stack_mobius, take_mobius
from .tails import ragged_arange

DEFAULT_CAP = 5_000_000

_MAGIC = b"IFSC"
_VERSION = 1

#: points formatted per block in PointCloud.csv_blocks
_CSV_BLOCK = 16384


@dataclass(frozen=True)
class PointCloud:
    """Finite delta-resolution sample of a set, sorted and duplicate-free."""

    points: np.ndarray
    delta: float
    ambient_dim: int
    label: str = "limit_set"
    source: str = ""
    complete: bool = True

    @classmethod
    def from_points(cls, points, delta, ambient_dim=1, label="limit_set", source="", complete=True):
        arr = np.asarray(points, dtype=float)
        if ambient_dim == 1:
            arr = np.unique(arr.reshape(-1))
        else:
            arr = arr.reshape(-1, 2)
            arr = np.unique(arr, axis=0)
        return cls(arr, float(delta), ambient_dim, label, source, complete)

    def __len__(self) -> int:
        return len(self.points)

    def hull_diameter(self) -> float:
        if len(self.points) == 0:
            return 0.0
        if self.ambient_dim == 1:
            return float(self.points[-1] - self.points[0])
        spans = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.hypot(*spans))

    # -- persistence ----------------------------------------------------

    def to_bytes(self) -> bytes:
        head = _MAGIC + struct.pack("<IId Q", _VERSION, self.ambient_dim, self.delta, len(self.points))
        return head + np.ascontiguousarray(self.points, dtype="<f8").tobytes()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PointCloud":
        if blob[:4] != _MAGIC:
            raise ConfigurationError("not a point-cloud file (bad magic)")
        version, dim, delta, count = struct.unpack("<IId Q", blob[4 : 4 + 24])
        if version != _VERSION:
            raise ConfigurationError(f"unsupported point-cloud version {version}")
        coords = np.frombuffer(blob[4 + 24 :], dtype="<f8", count=count * dim)
        pts = coords.copy() if dim == 1 else coords.reshape(-1, 2).copy()
        return cls(pts, delta, dim)

    @classmethod
    def load(cls, path) -> "PointCloud":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def csv_blocks(self):
        """The CSV text in pieces: the header line, then one block of
        points at a time, one point per line as the shortest round-trip
        repr.  Writing the pieces keeps one block's strings alive at a time."""
        yield "x\n" if self.ambient_dim == 1 else "x,y\n"
        for start in range(0, len(self.points), _CSV_BLOCK):
            block = self.points[start : start + _CSV_BLOCK].tolist()
            if self.ambient_dim == 1:
                yield "\n".join(map(repr, block)) + "\n"
            else:
                yield "\n".join(f"{x!r},{y!r}" for x, y in block) + "\n"

    def to_csv(self) -> str:
        """The whole CSV text: the pieces of csv_blocks joined."""
        return "".join(self.csv_blocks())


# ---------------------------------------------------------------------------
# the builder: arbitrary Moebius branches, 1-D or 2-D, one level at a time


class _ExpansionTable:
    """The first generations of a tail as one flat batch of maps.

    The size of generation g is the largest diameter of its children;
    an empty generation has infinite size, so that it never ends the
    expansion sweep.  ``run_min`` holds the running minimum of the
    sizes, which is non-increasing.  The table reaches a generation
    whose children fall below delta under every node of the level, so
    it grows like the number of tail children the root expands.
    """

    def __init__(self, tail, geo, dom_diam: float, anchor):
        self.tail, self.geo, self.dom_diam, self.anchor = tail, geo, dom_diam, anchor
        self.run_min = np.empty(0)

    def cover(self, sup_max: float, delta: float) -> None:
        n = len(self.run_min)
        while n == 0 or not self.run_min[-1] * sup_max < delta:
            n = max(64, 2 * n)
            owner, self.maps = self.tail.generation_arrays(np.arange(n))
            best = np.full(n, -np.inf)
            np.maximum.at(best, owner, self.geo.deriv_sups(self.maps))
            sizes = np.where(best == -np.inf, np.inf, best * self.dom_diam)
            self.run_min = np.minimum.accumulate(sizes)
            self.starts = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n))))
            self.positions = self.maps(self.anchor)

    def first_small(self, node_sup: np.ndarray, delta: float) -> np.ndarray:
        """Per node, the first generation g with sizes[g] * node_sup < delta.

        Rounding is monotone, so the test on the running minimum is
        monotone in g and first true where the test on sizes is.
        """
        lo = np.zeros(len(node_sup), dtype=np.int64)
        hi = np.full(len(node_sup), len(self.run_min) - 1)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            small = self.run_min[mid] * node_sup < delta
            hi = np.where(small, mid, hi)
            lo = np.where(small, lo, mid + 1)
        return lo


#: most generations one node proposes in one round of the netting walk
_MAX_PROPOSALS = 1024


def _netting_walk(tail, anchor, accum, base_step: np.ndarray, g: np.ndarray):
    """Netting sweep of every node of a level, in lockstep.

    The walk of one node visits generation g, then moves on to the
    generation that reaches below the base-step cell holding the closest
    map of g, or to g + 1 when that is later (always for an empty
    generation).  It stops at the first generation whose envelope lies
    within base_step of the accumulation point.

    Each round, every active node proposes a block of generations: its
    current one g, then as the j-th after it the later of g + j and the
    generation reaching below the lower edge of g's envelope cell moved
    down j - 1 cells.
    In sparse stretches (one map per cell) and dense ones (many
    generations per cell) these are the generations the walk visits.
    All proposals are evaluated at once, and each node keeps the prefix
    of its block that the walk rule confirms, so the visited generations
    are exactly those of the sequential walk.  Blocks double while they
    are confirmed whole and shrink to twice the confirmed prefix when not.

    Returns the owning node and tail-space position of every visited
    map, as per-round lists, each node's maps in walk order.
    """
    owners, positions = [], []
    active = np.arange(len(base_step))
    width = np.ones(len(active), dtype=np.int64)
    while len(active):
        row = np.repeat(np.arange(len(active)), width)
        slot = ragged_arange(width)
        first = np.cumsum(width) - width
        step = base_step[active][row]
        env = tail.envelope_reach(g)
        h = g[row] + slot
        below = (np.floor(env / base_step[active]) * base_step[active])[row] - (slot - 1) * step
        guess = (slot > 0) & (below > 0.0)
        h[guess] = np.maximum(h[guess], tail.generation_reaching(below[guess]))

        own, maps = tail.generation_arrays(h)
        pos = maps(anchor)
        min_reach = np.full(len(h), np.inf)
        np.minimum.at(min_reach, own, abs(pos - accum))
        with np.errstate(invalid="ignore"):
            target = np.floor(min_reach / step) * step
        jump = (target > 0.0) & np.isfinite(target)
        nxt = h + 1
        if jump.any():
            nxt[jump] = np.maximum(nxt[jump], tail.generation_reaching(target[jump]))

        # confirmed prefix: stop before an envelope within base_step, or
        # before a proposal the previous generation does not move on to
        ends = tail.envelope_reach(h) < step
        broken = np.zeros(len(h), dtype=bool)
        broken[1:] = (slot[1:] > 0) & (nxt[:-1] != h[1:])
        taken = np.minimum.reduceat(np.where(ends | broken, slot, width[row]), first)
        keep = (slot < taken[row])[own]
        owners.append(active[row[own[keep]]])
        positions.append(pos[keep])

        at = first + np.minimum(taken, width - 1)
        finished = (taken == 0) | ((taken < width) & ends[at] & ~broken[at])
        go = ~finished
        active = active[go]
        g = nxt[first[go] + taken[go] - 1]
        width = np.minimum(2 * taken[go], _MAX_PROPOSALS)
    return owners, positions


def _first_per_cell(owner: np.ndarray, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """Index of the first entry of every (owner, cell) key, by a stable sort."""
    order = np.lexsort(cells[::-1] + (owner,))
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in (owner,) + cells:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    return order[first]


class _Points:
    """Point batches with a running total held under the cap."""

    def __init__(self, geo, cap: int):
        self.geo, self.cap = geo, cap
        self.chunks: list[np.ndarray] = []
        self.total = 0

    def push(self, p) -> None:
        if len(p):
            self.total += len(p)
            if self.total > self.cap:
                raise CloudSizeError(self.total, self.cap)
            self.chunks.append(self.geo.coords(p))


def _build(spec: CifsSpec, delta, window, cap, fixed_points_only):
    geo = geometry(spec.domain, window)
    anchor = spec.anchor
    tail = spec.tail
    step = delta / 2.0
    points = _Points(geo, cap)
    expanded: list[np.ndarray] = []

    def split(children: Mobius):
        """Window and size tests; records the expanded regions, returns (big, small)."""
        region = geo.regions(children)
        meets = geo.meets_window(region)
        big = meets & (geo.diameters(region) >= delta) & (not fixed_points_only)
        expanded.append(geo.rows(region, big))
        return big, meets & ~big

    explicit = stack_mobius([m.mobius() for _, m in spec.explicit], geo.planar)
    if tail is not None:
        table = _ExpansionTable(tail, geo, spec.domain_diameter(), anchor)
        accum = tail.accumulation_point()

    nodes = stack_mobius([IDENTITY], geo.planar)
    while True:
        k = len(nodes.a)
        grown: list[Mobius] = []

        if len(explicit.a):
            per = len(explicit.a)
            child = take_mobius(nodes, np.repeat(np.arange(k), per)).compose(
                take_mobius(explicit, np.tile(np.arange(per), k)))
            big, small = split(child)
            grown.append(take_mobius(child, big))
            points.push(take_mobius(child, small)(anchor))

        if tail is not None:
            node_sup = geo.deriv_sups(nodes)
            base_step = step / node_sup

            # expansion sweep: the generations whose largest child under
            # the node still reaches delta
            table.cover(float(node_sup.max()), delta)
            g_exp = table.first_small(node_sup, delta)
            counts = table.starts[g_exp]
            owner = np.repeat(np.arange(k), counts)
            idx = ragged_arange(counts)
            child = take_mobius(nodes, owner).compose(take_mobius(table.maps, idx))
            big, small = split(child)
            grown.append(take_mobius(child, big))
            swept = child(anchor)[small]
            n_swept = len(swept)

            # netting sweep from the generation where expansion stopped;
            # every node keeps the first map it reaches in each of its
            # base-step cells, small swept children first
            net_owner, net_pos = _netting_walk(tail, anchor, accum, base_step, g_exp)
            owner = np.concatenate([owner[small]] + net_owner)
            pos = concat_arrays([table.positions[idx[small]]] + net_pos)
            kept = _first_per_cell(owner, geo.cells(pos, base_step[owner]))
            points.push(swept[kept[kept < n_swept]])
            kept = kept[kept >= n_swept]
            points.push(geo.near_window(take_mobius(nodes, owner[kept])(pos[kept]), delta))
            # the rest of the tail stays near the accumulation point
            points.push(geo.near_window(nodes(accum), delta))

        nodes = concat_mobius(grown)
        if fixed_points_only or not len(nodes.a):
            break

    expanded_rows = np.concatenate(expanded)
    if not points.chunks:
        return np.empty((0, 2) if geo.planar else 0), expanded_rows
    pts = np.concatenate(points.chunks)
    return (np.unique(pts, axis=0) if geo.planar else np.unique(pts)), expanded_rows


# ---------------------------------------------------------------------------
# public builders


def _check_complete(dim: int, pts: np.ndarray, expanded: np.ndarray) -> bool:
    """Every expanded region holds a cloud point.

    ``expanded`` has rows (lo, hi) on the line and (centre x, centre y,
    radius) in the plane; ``pts`` is sorted, in the plane by x first.
    """
    if len(expanded) == 0:
        return True
    if len(pts) == 0:
        return False
    if dim == 1:
        i = np.minimum(np.searchsorted(pts, expanded[:, 0], side="left"), len(pts) - 1)
        return bool(np.all((pts[i] >= expanded[:, 0]) & (pts[i] <= expanded[:, 1])))
    # a disc only needs the points of its x-strip; the (disc, point)
    # pairs are tested in chunks of about a million
    cx, cy, reach = expanded[:, 0], expanded[:, 1], expanded[:, 2] + 1e-12
    first = np.searchsorted(pts[:, 0], cx - 2.0 * reach, side="left")
    counts = np.searchsorted(pts[:, 0], cx + 2.0 * reach, side="right") - first
    ends = np.cumsum(counts)
    hit = np.zeros(len(expanded), dtype=bool)
    lo = 0
    while lo < len(expanded):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + 1_000_000, side="right")))
        disc = np.repeat(np.arange(lo, hi), counts[lo:hi])
        pt = np.repeat(first[lo:hi], counts[lo:hi]) + ragged_arange(counts[lo:hi])
        near = np.hypot(pts[pt, 0] - cx[disc], pts[pt, 1] - cy[disc]) <= reach[disc]
        hit[disc[near]] = True
        lo = hi
    return bool(hit.all())


def build_limit_cloud(spec: CifsSpec, delta: float, window: Region | None = None,
                      cap: int = DEFAULT_CAP) -> PointCloud:
    """Breadth-first finite-resolution approximation of the limit set."""
    if delta <= 0:
        raise ConfigurationError(f"resolution delta must be positive, got {delta}")
    if delta >= spec.domain_diameter():
        raise ConfigurationError("resolution delta must be below the seed-domain size")
    pts, expanded = _build(spec, delta, window, cap, False)
    complete = _check_complete(spec.ambient_dim, pts, expanded)
    return PointCloud(pts, delta, spec.ambient_dim, "limit_set", spec.digest(), complete)


def build_fixed_point_cloud(spec: CifsSpec, delta: float, cap: int = DEFAULT_CAP) -> PointCloud:
    """One anchor image per first-level branch, tail truncated as usual."""
    if delta <= 0:
        raise ConfigurationError(f"resolution delta must be positive, got {delta}")
    pts, _ = _build(spec, delta, None, cap, True)
    return PointCloud(pts, delta, spec.ambient_dim, "fixed_points", spec.digest(), True)
