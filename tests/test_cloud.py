import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from ifsdim import (
    CifsSpec,
    CloudSizeError,
    ConfigurationError,
    GaussBranch,
    PointCloud,
    Similarity,
    build_fixed_point_cloud,
    build_limit_cloud,
)
from ifsdim import cloud as cloud_module
from ifsdim.families import make_family
from ifsdim.jsonio import spec_from_dict
from ifsdim.mobius import CArray
from ifsdim.tails import ClusteredDigits, GaussDigitTail, PowerRule, SimilarityTail
from scalar_oracle import netting_walk


def two_map_spec():
    return CifsSpec(1, (0.0, 1.0), ((1, Similarity(0.25, 0.0)), (2, Similarity(0.25, 0.75))))


def fp_spec(p=1.0, t=3.0):
    return CifsSpec(1, (0.0, 1.0), (),
                    SimilarityTail(PowerRule(1.0, t), PowerRule(1.0, p), start=2))


class TestLimitCloud:
    def test_binary_expansion_depth(self):
        # cylinders of diameter >= delta are expanded; at delta = 1/16 the
        # depth-2 cylinders (diameter exactly 1/16) still split, leaving
        # the eight depth-3 cylinders as frontier representatives
        cloud = build_limit_cloud(two_map_spec(), 1.0 / 16.0)
        assert len(cloud) == 8
        assert cloud.complete

    def test_frontier_points_are_anchor_images(self):
        cloud = build_limit_cloud(two_map_spec(), 1.0 / 16.0)
        # anchor defaults to the left endpoint, so representatives are
        # the left ends of depth-3 cylinders
        expect = sorted(
            o1 + 0.25 * (o2 + 0.25 * o3)
            for o1 in (0.0, 0.75) for o2 in (0.0, 0.75) for o3 in (0.0, 0.75)
        )
        assert np.allclose(cloud.points, expect)

    def test_tail_truncation_spacing_rule(self):
        delta = 1e-4
        cloud = build_fixed_point_cloud(fp_spec(), delta)
        pts = cloud.points
        assert pts[0] == 0.0  # accumulation representative
        # at most one representative per delta/2 cell, so any dropped
        # tail point sits within delta/2 of a kept one
        cells = np.floor(pts[1:] / (delta / 2.0)).astype(np.int64)
        assert len(np.unique(cells)) == len(cells)
        # sparse part of the tail is untouched: it is exactly {1/i}
        coarse = pts[pts > np.sqrt(delta)]
        i = np.round(1.0 / coarse)
        assert np.allclose(coarse, 1.0 / i)
        assert pts[-1] == pytest.approx(0.5)  # 1/i at i = 2

    def test_window_filters_to_tail_only(self):
        spec = CifsSpec(
            1, (0.0, 1.0),
            ((1, Similarity(0.2, 0.7)),),
            SimilarityTail(PowerRule(1.0, 3.0), PowerRule(1.0, 1.5), start=2),
        )
        # window below the explicit offset keeps only tail contributions
        cloud = build_limit_cloud(spec, 1e-4, window=(0.0, 0.3))
        assert np.all(cloud.points <= 0.3 + 1e-6)
        full = build_limit_cloud(spec, 1e-4)
        assert len(full) > len(cloud)

    def test_determinism_byte_for_byte(self):
        a = build_limit_cloud(fp_spec(), 1e-5)
        b = build_limit_cloud(fp_spec(), 1e-5)
        assert a.to_bytes() == b.to_bytes()

    def test_bad_delta(self):
        for delta in (0.0, 2.0, np.nan):
            with pytest.raises(ConfigurationError):
                build_limit_cloud(two_map_spec(), delta)
        for delta in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                build_fixed_point_cloud(fp_spec(), delta)

    def test_cap_is_enforced_and_named(self):
        with pytest.raises(CloudSizeError) as err:
            build_limit_cloud(fp_spec(), 1e-7, cap=1000)
        assert "1000" in str(err.value)

    def test_added_gauss_branch_keeps_the_similarity_points(self):
        # a tiny continued-fraction branch beside the two similarities
        # adds points but moves none of theirs
        spec = two_map_spec()
        plain = build_limit_cloud(spec, 1.0 / 16.0)
        mixed = CifsSpec(1, (0.0, 1.0), spec.explicit + ((3, GaussBranch(97)),))
        cloud = build_limit_cloud(mixed, 1.0 / 16.0)
        for p in plain.points:
            assert np.min(np.abs(cloud.points - p)) < 1e-12


class TestFixedPointCloud:
    def test_one_point_per_branch(self):
        spec = CifsSpec(1, (0.0, 1.0), ((2, GaussBranch(2)), (3, GaussBranch(3))))
        cloud = build_fixed_point_cloud(spec, 1e-3)
        assert len(cloud) == len(spec.explicit)
        assert np.allclose(cloud.points, [1.0 / 3.0, 1.0 / 2.0])

    def test_one_point_per_occupied_cell(self):
        # from the definition: the anchor images of every branch down to
        # the first tail branch whose envelope falls within delta/2 of the
        # accumulation point occupy a set of delta/2 cells; the cloud holds
        # exactly one point in each of them, and 0 for the rest of the tail
        spec = make_family("fp").spec
        delta = 1e-5
        step = delta / 2.0
        tail = spec.tail
        images = [m.ratio * spec.anchor + m.offset for _, m in spec.explicit]
        i = tail.start
        while tail.offsets.value(i) + tail.ratios.value(i) >= step:
            images.append(tail.ratios.value(i) * spec.anchor + tail.offsets.value(i))
            i += 1
        want = np.unique(np.floor(np.array(images) / step).astype(np.int64))
        pts = build_fixed_point_cloud(spec, delta).points
        assert pts[0] == 0.0
        cells = np.floor(pts[1:] / step).astype(np.int64)
        assert len(np.unique(cells)) == len(cells)
        assert np.array_equal(np.unique(cells), want)

    def test_clustered_digit_positions(self):
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(ClusteredDigits(0.5)))
        cloud = build_fixed_point_cloud(spec, 1e-5)
        # representatives near the reciprocal of every early block
        for b in (2, 3, 4, 5, 6, 8, 9, 10):
            assert np.min(np.abs(cloud.points - 1.0 / b)) < 1e-9


class TestPersistence:
    def test_binary_header_layout(self):
        cloud = PointCloud.from_points([0.25, 0.5], 1e-3, 1)
        blob = cloud.to_bytes()
        assert blob[:4] == b"IFSC"
        version, dim, delta, count = struct.unpack("<IId Q", blob[4:28])
        assert (version, dim, count) == (1, 1, 2)
        assert delta == 1e-3

    def test_round_trip(self, tmp_path):
        cloud = build_limit_cloud(two_map_spec(), 1.0 / 16.0)
        path = tmp_path / "cloud.bin"
        cloud.save(path)
        back = PointCloud.load(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.delta == cloud.delta
        assert back.ambient_dim == cloud.ambient_dim

    def test_csv_export(self):
        cloud = PointCloud.from_points([0.1, 0.9], 1e-3, 1)
        text = cloud.to_csv()
        assert text.splitlines()[0] == "x"
        assert len(text.splitlines()) == 3

    def test_csv_holds_plain_numbers_equal_to_the_binary(self):
        line = build_limit_cloud(make_family("dense-cf").spec, 1e-3)
        rows = line.to_csv().splitlines()
        assert rows[0] == "x"
        assert [float(r) for r in rows[1:]] == line.points.tolist()
        plane = build_limit_cloud(spec_from_dict(COMPLEX_FINITE), 1e-3)
        rows = plane.to_csv().splitlines()
        assert rows[0] == "x,y"
        assert [[float(v) for v in r.split(",")] for r in rows[1:]] == plane.points.tolist()
        assert PointCloud.from_points([], 1e-3, 1).to_csv() == "x\n"

    def test_csv_blocks_stream_the_same_text(self, monkeypatch):
        from ifsdim import cloud as cloud_module

        monkeypatch.setattr(cloud_module, "_CSV_BLOCK", 3)
        line = PointCloud.from_points([0.1, 0.2, 0.3, 0.4, 1e-7], 1e-9, 1)
        assert list(line.csv_blocks()) == ["x\n", "1e-07\n0.1\n0.2\n", "0.3\n0.4\n"]
        plane = PointCloud.from_points([[0.5, -0.25], [0.0, 1.0]], 1e-9, 2)
        assert list(plane.csv_blocks()) == ["x,y\n", "0.0,1.0\n0.5,-0.25\n"]
        assert "".join(line.csv_blocks()) == line.to_csv()

    def test_csv_blocks_equal_the_repr_of_every_point(self, monkeypatch):
        # a 1-D block is each point's own repr, one a line, including the
        # least subnormal, a negative zero and reprs in exponent form
        monkeypatch.setattr(cloud_module, "_CSV_BLOCK", 4)
        values = [5e-324, 1e-7, 0.1, 123456789.125, 1e16, 1e22]
        pts = np.array(sorted([-v for v in values] + [-0.0] + values))
        line = PointCloud(pts, 1e-9, 1)
        blocks = ["\n".join(map(repr, pts[a : a + 4].tolist())) + "\n" for a in range(0, len(pts), 4)]
        assert list(line.csv_blocks()) == ["x\n"] + blocks
        assert {"-0.0", "5e-324", "-5e-324", "1e-07", "1e+16", "1e+22", "123456789.125"} <= set(line.to_csv().split())

    @pytest.mark.parametrize("dim", [0, 3, -1, 1.5])
    def test_ambient_dim_must_be_one_or_two(self, dim):
        # as from_bytes checks a saved cloud's header; a 3-D cloud made the
        # estimator raise a raw TypeError
        with pytest.raises(ConfigurationError, match="dimension must be 1 or 2"):
            PointCloud.from_points([1.0, 2.0, 3.0, 4.0], 1e-3, dim)

    def test_a_failed_save_leaves_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cloud.bin"
        PointCloud.from_points([0.25, 0.5], 1e-3, 1).save(path)
        before = path.read_bytes()

        class Full(io.FileIO):
            def write(self, data):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cloud_module, "open", lambda name, mode: Full(name, "w"), raising=False)
        with pytest.raises(OSError):
            PointCloud.from_points([0.1, 0.2, 0.9], 1e-3, 1).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cloud.bin"]

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_delta_must_be_finite_and_positive(self, delta):
        # as from_bytes checks a saved cloud's header; a zero delta made the
        # estimator's scale ladder divide by zero and return NaN
        with pytest.raises(ConfigurationError, match="delta must be finite and positive"):
            PointCloud.from_points([0.1, 0.5], delta, 1)

    def test_points_are_distinct_and_sorted(self):
        cloud = PointCloud.from_points([0.5, 0.1, 0.5], 1e-3, 1)
        assert np.array_equal(cloud.points, [0.1, 0.5])


# sha256 of cloud.bin, recorded with the per-node scalar walk that the
# array builder replaced; the builder must reproduce it bit for bit
COMPLEX_FINITE = {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}
GOLDEN_CLOUDS = {
    "ctd-spaced": (lambda: build_limit_cloud(make_family("ctd-spaced").spec, 1e-6),
                   "bcf9f1eeebf6b1be40b55e6b575a6f2c18f1ce8fbeaad5fd0eb0827e927d0597"),
    "dense-cf": (lambda: build_limit_cloud(make_family("dense-cf").spec, 1e-4),
                 "303dda2f9701f1f5ca9fd0ac59001f1439be5ccaeb2708a83706005cac11f6cf"),
    "ctd-clustered": (lambda: build_limit_cloud(make_family("ctd-clustered").spec, 3e-6),
                      "fa5722120099a59dc5725ce6a60e8e906c6ca081cc5604f7cc83b7460cde7f08"),
    "parabolic": (lambda: build_limit_cloud(make_family("parabolic").spec, 3e-5),
                  "f97e62353b90dbc0e788c24598918a07a957c36a9ff4fae08d87f96af73e19a2"),
    "parabolic-window": (lambda: build_limit_cloud(make_family("parabolic").spec, 1e-5, window=(0.1, 0.3)),
                         "daca922cd0d233f18de6189a192428fa076514ccebe40ea323a28a23f0b5bf79"),
    "clustered-fixed-points": (lambda: build_fixed_point_cloud(make_family("ctd-clustered").spec, 1e-6),
                               "9f33f743a356cbb12c38d82244cff7519a9d13702153fa2177d109cb67e1a95b"),
    "complex-finite": (lambda: build_limit_cloud(spec_from_dict(COMPLEX_FINITE), 1e-5),
                       "5bbe3d4e0cb79a0138cfac16f5a3b7f15fe28760028ce7c2f9b24c592283d0e6"),
    # recorded when every tail's generation search became exact: in the
    # build of the old digest, the closed form this tail used answered a
    # generation whose envelope equals the threshold on 37 of 188 queries
    "complex-full": (lambda: build_limit_cloud(spec_from_dict({"kind": "complex_gauss", "digits": "full"}), 0.05),
                     "30c1edcf7a026d0815fd9d5d877385ae5c3d88612790ee444378a6eba3cb0acb"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLOUDS))
def test_golden_cloud_digest(name):
    build, digest = GOLDEN_CLOUDS[name]
    cloud = build()
    assert cloud.complete
    assert hashlib.sha256(cloud.to_bytes()).hexdigest() == digest


def _planar_build(delta):
    spec = spec_from_dict({"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]})
    return cloud_module._build(spec, delta, None, cloud_module.DEFAULT_CAP, False)


def _discs_hit_one_at_a_time(pts, expanded):
    """Per expanded disc, whether a point lies within its reach, by
    testing every point of the cloud against it."""
    reach = expanded[:, 2] + 1e-12
    return np.array([bool(np.any(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= r))
                     for (cx, cy, _), r in zip(expanded, reach)])


def test_planar_completeness_equals_a_test_of_every_pair():
    # the planar workload's cloud, then with the points of one disc, and
    # of every third disc, taken away
    pts, expanded = _planar_build(1e-5)
    assert len(pts) == 7078 and len(expanded) == 2358
    rng = np.random.default_rng(4)
    for drop in ([], [int(rng.integers(len(expanded)))], list(range(0, len(expanded), 3))):
        keep = np.ones(len(pts), dtype=bool)
        for k in drop:
            cx, cy, radius = expanded[k]
            keep &= np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) > radius + 1e-12
        want = bool(_discs_hit_one_at_a_time(pts[keep], expanded).all())
        assert cloud_module._check_complete(2, pts[keep], expanded) is want
        assert want is (not drop)


def test_planar_completeness_holds_a_few_times_the_cloud():
    # the check held all 207 596 (disc, point) pairs at once: 8.4 MB
    # traced for a cloud of 113 KB
    pts, expanded = _planar_build(1e-5)
    tracemalloc.start()
    try:
        assert cloud_module._check_complete(2, pts, expanded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * pts.nbytes


class _CountingTail:
    """A tail that counts its generation_arrays calls: one per walk round."""

    def __init__(self, tail):
        self.tail, self.calls = tail, 0

    def __getattr__(self, name):
        return getattr(self.tail, name)

    def generation_arrays(self, gs):
        self.calls += 1
        return self.tail.generation_arrays(gs)


def _recorded_walks(monkeypatch, build):
    """Every netting walk of a build: its arguments, its result and its rounds."""
    walks = []
    walk = cloud_module._netting_walk

    def recording(tail, anchor, base_step, g):
        counting = _CountingTail(tail)
        out = walk(counting, anchor, base_step, g)
        walks.append({"tail": tail, "anchor": anchor, "base_step": base_step, "g": g,
                      "out": out, "rounds": counting.calls})
        return out

    monkeypatch.setattr(cloud_module, "_netting_walk", recording)
    build()
    return walks


def _default_build(name, params=None):
    family = make_family(name, params)
    if family.cloud_kind == "fixed_points":
        return lambda: build_fixed_point_cloud(family.spec, family.default_delta)
    return lambda: build_limit_cloud(family.spec, family.default_delta)


def _as_complex(parts):
    if parts and isinstance(parts[0], CArray):
        return np.concatenate([p.re for p in parts]) + 1j * np.concatenate([p.im for p in parts])
    return np.concatenate(parts) if parts else np.empty(0)


# one build per tail kind; for each, the walks checked and at most how
# many nodes of each walk, spread over the level
WALK_ORACLE_CASES = {
    "similarity sharp t=2.8": (_default_build("sharp", {"p": 1.8, "t": 2.8, "h": 0.5}), None, 40),
    "similarity fp": (_default_build("fp"), None, 40),
    "spaced digits": (_default_build("ctd-spaced"), None, 40),
    "clustered digits": (_default_build("ctd-clustered"), None, 25),
    "full digits": (_default_build("dense-cf"), None, 40),
    "complex full": (lambda: build_limit_cloud(spec_from_dict({"kind": "complex_gauss", "digits": "full"}), 0.05),
                     None, 40),
    "induced parabolic root": (_default_build("parabolic"), 1, 1),
}


@pytest.mark.parametrize("name", sorted(WALK_ORACLE_CASES))
def test_netting_walk_matches_the_sequential_walk(monkeypatch, name):
    build, levels, nodes = WALK_ORACLE_CASES[name]
    walks = _recorded_walks(monkeypatch, build)[:levels]
    visited = 0
    for w in walks:
        owner = np.concatenate(w["out"][0])
        pos = _as_complex(w["out"][1])
        k = len(w["g"])
        for node in sorted(set(np.linspace(0, k - 1, min(k, nodes)).astype(int).tolist())):
            want = _as_complex(netting_walk(w["tail"], w["anchor"], float(w["base_step"][node]), int(w["g"][node])))
            got = pos[owner == node]
            assert np.array_equal(got, want), (name, node)
            visited += len(want)
    assert visited > 0


# rounds of the netting walk over each default build with the per-round
# prefix rule the successor-following walk replaced
PREFIX_WALK_ROUNDS = {
    "sharp t=3.6": (("sharp", {"p": 1.8, "t": 3.6, "h": 0.5}), 40),
    "sharp t=2.8": (("sharp", {"p": 1.8, "t": 2.8, "h": 0.5}), 108),
    "fp": (("fp",), 13),
    "ctd-spaced": (("ctd-spaced",), 46),
    "dense-cf": (("dense-cf",), 37),
    "ctd-clustered": (("ctd-clustered",), 86),
    "parabolic": (("parabolic",), 708),
}


@pytest.mark.parametrize("name", sorted(PREFIX_WALK_ROUNDS))
def test_netting_walk_rounds_do_not_grow(monkeypatch, name):
    family, rounds = PREFIX_WALK_ROUNDS[name]
    walks = _recorded_walks(monkeypatch, _default_build(*family))
    assert sum(w["rounds"] for w in walks) <= rounds


def test_netting_walk_rounds_on_sparse_tails(monkeypatch):
    # the sparse stretch of the induced parabolic tail visits every other
    # generation: 1 462 at the root, which the prefix rule confirmed one a
    # round (372 rounds at the root, 708 in the build)
    walks = _recorded_walks(monkeypatch, _default_build("parabolic"))
    assert walks[0]["rounds"] <= 20
    assert sum(w["rounds"] for w in walks) <= 80
    walks = _recorded_walks(monkeypatch, _default_build("sharp", {"p": 1.8, "t": 2.8, "h": 0.5}))
    assert sum(w["rounds"] for w in walks) <= 20


def test_cap_is_enforced_on_generic_path():
    with pytest.raises(CloudSizeError) as err:
        build_limit_cloud(make_family("ctd-clustered").spec, 1e-6, cap=1000)
    assert "1000" in str(err.value)


def test_cap_bounds_the_children_of_a_level():
    # the root of the full complex system at delta 0.05 has 59 children,
    # and the builder stops before composing them
    spec = spec_from_dict({"kind": "complex_gauss", "digits": "full"})
    with pytest.raises(CloudSizeError, match="child count of one level 59 exceeds the configured cap of 50"):
        build_limit_cloud(spec, 0.05, cap=50)


def test_bad_magic_rejected():
    with pytest.raises(ConfigurationError):
        PointCloud.from_bytes(b"NOPE" + b"\x00" * 64)
