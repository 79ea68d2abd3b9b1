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
replaced by the image of that point.  Every tail accumulates at the
origin, so that point is 0, and the netting walk finds the first
generation within a distance of it with ``tails.generation_reaching``.
The nodes of a level walk in lockstep rounds: each round evaluates a
block of likely generations per node at once, and each node follows
the walk's own successor rule through its block, as far as the block
holds the successors, so it visits exactly the generations of a walk
taken one generation at a time.

The cap bounds the points a build keeps and also the children of each
level: before a level is composed, its explicit and tail children are
counted, and a level with more children than the cap raises
CloudSizeError instead of allocating them.

The builder asks ``cifs.geometry`` how maps move intervals or discs,
the same array geometry the axiom checks use.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .arrays import chunks, ranges, run_starts, sort_groups, sorted_distinct
from .cifs import CifsSpec, Region, geometry
from .errors import CloudSizeError, ConfigurationError
from .mobius import IDENTITY, Mobius, concat_arrays, concat_mobius, stack_mobius, take_mobius
from .tails import generation_reaching

DEFAULT_CAP = 5_000_000

_MAGIC = b"IFSC"
_VERSION = 1
#: version, dimension, delta and point count, after the magic
_HEAD = struct.Struct("<IId Q")
_HEADER = len(_MAGIC) + _HEAD.size

#: points formatted per block in PointCloud.csv_blocks; a block's floats
#: and strings are small objects, and written right after a build, whose
#: freed heap they may not fit, 16384 of them raised the peak RSS of a
#: 254k-point compare by up to 1.9 MB, 4096 by 0.3 MB
_CSV_BLOCK = 4096

#: characters (or bytes) per write in atomic_write
_WRITE_CHUNK = 1 << 20

#: WriteBehind forks for a file of at least this many points: fork plus
#: reap measured 1.7-2.8 ms bare and about 6 ms with the copy-on-write of
#: a 2 827-point compare, against about 0.55 us a point to format, and a
#: fork on every compare took the fp one 41 -> 47 ms.  The five small
#: default compare clouds (2.8-8.5k points) stay inline; ctd-clustered
#: (254k) and parabolic (86k) fork
WRITE_BEHIND_POINTS = 2**15


def _write_pieces(target, data: str | bytes | int | Iterable[str]) -> None:
    """Write data to the file named (or the descriptor given) by target.
    An int data is the descriptor of a whole file to copy."""
    copy = isinstance(data, int)
    with open(target, "wb" if copy or isinstance(data, bytes) else "w") as fh:
        if copy:
            # in the kernel, from explicit offsets: the file's own offset
            # is wherever its writer left it
            offset, size = 0, os.fstat(data).st_size
            while offset < size:
                offset += os.sendfile(fh.fileno(), data, offset, size - offset)
            return
        pieces = [data] if isinstance(data, (str, bytes)) else data
        # a slice at a time: writing text whole encodes a full copy of it
        for piece in pieces:
            for start in range(0, len(piece), _WRITE_CHUNK):
                fh.write(piece[start : start + _WRITE_CHUNK])


def atomic_write(path, data: str | bytes | int | Iterable[str]) -> None:
    """Write text, bytes, text pieces or a copy of the open file with
    descriptor data to path through a temporary file, renamed over path
    once complete, so that a failed write leaves the previous file whole
    and removes the temporary one."""
    tmp = os.fspath(path) + ".tmp"
    try:
        _write_pieces(tmp, data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class WriteBehind:
    """A file whose text a forked child writes while the caller computes.

    Used as a context manager around the computation.  When a fork pays
    (``items`` at least WRITE_BEHIND_POINTS, ``os.fork`` available and
    two CPUs to run on), the constructor opens an unnamed temporary file
    and forks a child that writes ``pieces()`` into it and exits.
    ``publish`` stands where the caller would write the file: it reaps
    the child and copies the unnamed file into place with atomic_write.
    When no child was forked (the temporary file or the fork failed), or
    it did not exit 0, ``publish`` writes ``pieces()`` with atomic_write
    instead, so an error is raised there as without a child.  Nothing is
    named under path before ``publish``, so a run killed in the block
    leaves no file; leaving the block kills and reaps the child and
    closes the unnamed file.
    """

    def __init__(self, path, pieces: Callable[[], Iterable[str]], items: int):
        self.path, self.pieces = path, pieces
        self.pid = self.file = None
        if not (items >= WRITE_BEHIND_POINTS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            return
        import tempfile  # only a run that forks needs it

        try:
            self.file = tempfile.TemporaryFile()
            self.pid = os.fork()
        except OSError:
            return  # publish writes the file inline
        if self.pid == 0:
            # the child: no cleanup, handler or buffered output of the
            # parent's runs here, and its exit status is all it reports;
            # closing its copy of the descriptor flushes the text
            status = 1
            try:
                _write_pieces(self.file.fileno(), pieces())
                status = 0
            finally:
                os._exit(status)

    def __enter__(self) -> "WriteBehind":
        return self

    def __exit__(self, *exc) -> bool:
        if self.pid is not None:
            # only a failed run gets here: a run that writes its file does
            # not import signal, about 0.8 ms of enum set-up at import
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        if self.file is not None:
            self.file.close()
        return False

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def publish(self) -> None:
        """Put the file in place: the child's copied, or one written here."""
        if self.pid is not None and self._reap() == 0:
            atomic_write(self.path, self.file.fileno())
        else:
            atomic_write(self.path, self.pieces())


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise ConfigurationError(f"point-cloud delta must be finite and positive, got {delta}")


@dataclass(frozen=True)
class PointCloud:
    """Finite delta-resolution sample of a set, sorted and duplicate-free."""

    points: np.ndarray
    delta: float
    ambient_dim: int
    complete: bool = True

    @classmethod
    def from_points(cls, points, delta, ambient_dim=1):
        delta = float(delta)
        _check_delta(delta)
        if ambient_dim not in (1, 2):
            raise ConfigurationError(f"point-cloud dimension must be 1 or 2, got {ambient_dim}")
        arr = np.asarray(points, dtype=float)
        arr = sorted_distinct(arr.reshape(-1) if ambient_dim == 1 else arr.reshape(-1, 2))
        return cls(arr, delta, ambient_dim)

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
        head = _MAGIC + _HEAD.pack(_VERSION, self.ambient_dim, self.delta, len(self.points))
        return head + np.ascontiguousarray(self.points, dtype="<f8").tobytes()

    def save(self, path) -> None:
        atomic_write(path, self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PointCloud":
        """The cloud of a to_bytes payload, checked to be one: a header
        that matches the byte count, a finite positive delta, and finite
        points sorted and distinct as from_points leaves them."""
        if blob[:4] != _MAGIC:
            raise ConfigurationError("not a point-cloud file (bad magic)")
        if len(blob) < _HEADER:
            raise ConfigurationError(f"point-cloud file truncated: {len(blob)} bytes")
        version, dim, delta, count = _HEAD.unpack_from(blob, len(_MAGIC))
        if version != _VERSION:
            raise ConfigurationError(f"unsupported point-cloud version {version}")
        if dim not in (1, 2):
            raise ConfigurationError(f"point-cloud dimension must be 1 or 2, got {dim}")
        if len(blob) != _HEADER + 8 * count * dim:
            raise ConfigurationError(f"point-cloud file holds {len(blob)} bytes, "
                                     f"its header promises {_HEADER + 8 * count * dim}")
        _check_delta(delta)
        pts = np.frombuffer(blob, dtype="<f8", offset=_HEADER).astype(float)
        if not np.isfinite(pts).all():
            raise ConfigurationError("point-cloud file holds non-finite coordinates")
        if dim == 1:
            ordered = pts[1:] > pts[:-1]
        else:
            pts = pts.reshape(-1, 2)
            x, y = pts[:, 0], pts[:, 1]
            ordered = (x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1]))
        if not ordered.all():
            raise ConfigurationError("point-cloud points are not sorted and distinct")
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


#: most generations one node proposes in one round of the netting walk;
#: while fewer than this many nodes walk, they share at least this many
_MAX_PROPOSALS = 1024


def _netting_walk(tail, anchor, base_step: np.ndarray, g: np.ndarray):
    """Netting sweep of every node of a level, in lockstep.

    The walk of one node visits generation g, then moves on to the
    generation that reaches below the base-step cell holding the closest
    map of g, or to g + 1 when that is later (always for an empty
    generation).  It stops at the first generation whose envelope lies
    within base_step of the origin, the tail's accumulation point:
    envelopes do not grow, so that is generation_reaching(base_step),
    and the walk visits only the generations before it.

    Each round, every active node proposes a block of generations: its
    current one g, then as the j-th after it the later of g + j and the
    generation reaching below the lower edge of g's envelope cell moved
    down j - 1 cells.  Consecutive generations hold the walk where a
    generation spans cells, the cell-edge guesses where a cell holds
    many generations.  All proposals are evaluated at once, together
    with the walk's successor of each.  A node then follows the walk
    from g through its own block, successor by successor: along runs of
    adjacent entries at once, and past skipped entries by doubling the
    successor links.  It stops at the first successor it did not
    evaluate, where the next round starts, or is done when that
    successor is the stop generation or later.  Every visit is a step of
    the walk rule, so the visited generations are exactly those of the
    sequential walk.

    A block doubles when the walk left it past its last entry, and is
    otherwise twice the part of it the walk reached; while few nodes
    walk, they share at least _MAX_PROPOSALS generations a round.  A
    block holds no generation from the stop on, and at most one more
    than the index of the base-step cell holding g's envelope: a visit
    that jumps lands at least a cell lower, so a longer block would
    mostly go unvisited.

    Returns the owning node and tail-space position of every visited
    map, as per-round lists, each node's maps in walk order.
    """
    owners, positions = [], []
    stop = generation_reaching(tail, base_step)
    active = np.flatnonzero(g < stop)
    g = g[active]
    width = np.ones(len(active), dtype=np.int64)
    while len(active):
        step, end = base_step[active], stop[active]
        width = np.maximum(width, _MAX_PROPOSALS // len(active))
        width, row, h = _proposals(tail, g, step, end, width)
        own, pos, nxt = _successors(tail, anchor, h, step[row])
        visit, first, tip = _follow(row, h, nxt)
        keep = visit[own]
        owners.append(active[row[own[keep]]])
        positions.append(pos[keep])

        g = nxt[tip]
        go = g < end
        last = np.append(first[1:], len(h)) - 1
        width = np.where(g > h[last], 2 * width, 2 * (tip - first + 1))
        width = np.minimum(width, _MAX_PROPOSALS)[go]
        active, g = active[go], g[go]
    return owners, positions


def _proposals(tail, g: np.ndarray, step: np.ndarray, end: np.ndarray, width: np.ndarray):
    """Each node's block: width capped as _netting_walk describes, and the
    owning node and generation of every proposal, ascending and distinct
    along each node's run."""
    cell = np.floor(tail.envelope_reach(g) / step)
    width = np.minimum(np.minimum(width, cell + 1), end - g).astype(np.int64)
    row = np.repeat(np.arange(len(g)), width)
    slot = ranges(0, width)
    h = g[row] + slot
    later = slot > 0
    below = ((cell[row] - (slot - 1)) * step[row])[later]
    h[later] = np.maximum(h[later], generation_reaching(tail, below))
    h = np.minimum(h, end[row] - 1)
    # a row's proposals do not decrease: drop the repeats
    fresh = ~later | run_starts(h)
    return width, row[fresh], h[fresh]


def _successors(tail, anchor, h: np.ndarray, step: np.ndarray):
    """The maps of generations h (owner, anchor images) and the walk's
    successor of each generation, under base steps step."""
    own, maps = tail.generation_arrays(h)
    pos = maps(anchor)
    min_reach = np.full(len(h), np.inf)
    np.minimum.at(min_reach, own, abs(pos))
    with np.errstate(invalid="ignore"):
        target = np.floor(min_reach / step) * step
    jump = (target > 0.0) & np.isfinite(target)
    nxt = h + 1
    if jump.any():
        nxt[jump] = np.maximum(nxt[jump], generation_reaching(tail, target[jump]))
    return own, pos, nxt


def _follow(row: np.ndarray, h: np.ndarray, nxt: np.ndarray):
    """The walk through each row's generations h, ascending and distinct,
    from the row's first one, successor nxt by successor while the row
    holds it.

    Returns the mask of visited entries, and each row's first entry and
    last visit.
    """
    n = len(h)
    idx = np.arange(n)
    first = np.flatnonzero(run_starts(row))
    # link[i]: the entry of i's row holding the successor of entry i, n
    # when the row does not hold it
    gap = np.full(n, -1)
    gap[:-1] = np.where(row[1:] == row[:-1], nxt[:-1] - h[1:], -1)
    link = np.append(np.where(gap == 0, idx + 1, n), n)
    ahead = gap > 0
    if ahead.any():
        span = int(max(h.max(), nxt.max())) + 1
        keys = row * span + h
        want = (row * span + nxt)[ahead]
        at = np.minimum(np.searchsorted(keys, want), n - 1)
        hit = keys[at] == want
        link[idx[ahead][hit]] = at[hit]
    # the run of adjacent entries from each row's first, then the rest by
    # doubling the links
    tip = np.minimum.reduceat(np.where(gap == 0, n, idx), first)
    visit = np.append(idx <= tip[row], False)
    if (link[tip] < n).any():
        while not (link[tip] == n).all():
            visit[link[visit]] = True
            link = link[link]
        visit[n] = False
        tip = np.maximum.reduceat(np.where(visit[:n], idx, -1), first)
    return visit[:n], first, tip


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

    nodes = stack_mobius([IDENTITY], geo.planar)
    while True:
        k = len(nodes.a)
        grown: list[Mobius] = []

        children = k * len(explicit.a)
        if tail is not None:
            node_sup = geo.deriv_sups(nodes)
            base_step = step / node_sup
            # expansion sweep: the generations whose largest child under
            # the node still reaches delta
            table.cover(float(node_sup.max()), delta)
            g_exp = table.first_small(node_sup, delta)
            counts = table.starts[g_exp]
            children += int(counts.sum())
        if children > cap:
            raise CloudSizeError(children, cap, "child count of one level")

        if len(explicit.a):
            per = len(explicit.a)
            child = take_mobius(nodes, np.repeat(np.arange(k), per)).compose(
                take_mobius(explicit, np.tile(np.arange(per), k)))
            big, small = split(child)
            grown.append(take_mobius(child, big))
            points.push(take_mobius(child, small)(anchor))

        if tail is not None:
            owner = np.repeat(np.arange(k), counts)
            idx = ranges(0, counts)
            child = take_mobius(nodes, owner).compose(take_mobius(table.maps, idx))
            big, small = split(child)
            grown.append(take_mobius(child, big))
            swept = child(anchor)[small]
            n_swept = len(swept)

            # netting sweep from the generation where expansion stopped;
            # every node keeps the first map it reaches in each of its
            # base-step cells, small swept children first
            net_owner, net_pos = _netting_walk(tail, anchor, base_step, g_exp)
            owner = np.concatenate([owner[small]] + net_owner)
            pos = concat_arrays([table.positions[idx[small]]] + net_pos)
            order, first = sort_groups((owner,) + geo.cells(pos, base_step[owner]))
            kept = order[first]
            del order, first  # as long as owner; not kept through the next level
            points.push(swept[kept[kept < n_swept]])
            kept = kept[kept >= n_swept]
            points.push(geo.near_window(take_mobius(nodes, owner[kept])(pos[kept]), delta))
            # the rest of the tail stays near the accumulation point, the origin
            points.push(geo.near_window(nodes(0.0), delta))

        nodes = concat_mobius(grown)
        if fixed_points_only or not len(nodes.a):
            break

    expanded_rows = np.concatenate(expanded)
    if not points.chunks:
        return np.empty((0, 2) if geo.planar else 0), expanded_rows
    pts = np.concatenate(points.chunks)
    return sorted_distinct(pts), expanded_rows


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
    # pairs are tested about as many at a time as the cloud has points,
    # so the test holds a few times the cloud.  Chunks of a million pairs
    # held all 207 596 of the planar workload's 7 078-point cloud at
    # once, a traced 8.4 MB for a cloud of 113 KB (0.43 MB in chunks)
    cx, cy, reach = expanded[:, 0], expanded[:, 1], expanded[:, 2] + 1e-12
    first = np.searchsorted(pts[:, 0], cx - 2.0 * reach, side="left")
    counts = np.searchsorted(pts[:, 0], cx + 2.0 * reach, side="right") - first
    hit = np.zeros(len(expanded), dtype=bool)
    for lo, hi in chunks(counts, len(pts)):
        disc = np.repeat(np.arange(lo, hi), counts[lo:hi])
        pt = ranges(first[lo:hi], counts[lo:hi])
        near = np.hypot(pts[pt, 0] - cx[disc], pts[pt, 1] - cy[disc]) <= reach[disc]
        hit[disc[near]] = True
    return bool(hit.all())


def build_limit_cloud(spec: CifsSpec, delta: float, window: Region | None = None,
                      cap: int = DEFAULT_CAP) -> PointCloud:
    """Breadth-first finite-resolution approximation of the limit set."""
    if not 0.0 < delta < math.inf:
        raise ConfigurationError(f"resolution delta must be positive and finite, got {delta}")
    if delta >= spec.domain_diameter():
        raise ConfigurationError("resolution delta must be below the seed-domain size")
    pts, expanded = _build(spec, delta, window, cap, False)
    complete = _check_complete(spec.ambient_dim, pts, expanded)
    return PointCloud(pts, delta, spec.ambient_dim, complete)


def build_fixed_point_cloud(spec: CifsSpec, delta: float, cap: int = DEFAULT_CAP) -> PointCloud:
    """One anchor image per first-level branch, tail truncated as usual."""
    if not 0.0 < delta < math.inf:
        raise ConfigurationError(f"resolution delta must be positive and finite, got {delta}")
    pts, _ = _build(spec, delta, None, cap, True)
    return PointCloud(pts, delta, spec.ambient_dim)
