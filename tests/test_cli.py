import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from ifsdim import ConfigurationError
from ifsdim.cli import GATE_TOL, RunConfig, _build_cloud, _oracle_spot_check, _parse_params, main, run_pipeline
from ifsdim.cloud import PointCloud, build_limit_cloud
from ifsdim.estimator import assouad_spectrum_estimate
from ifsdim.families import make_family
from ifsdim.jsonio import spec_from_dict
from ifsdim.spectra import SpectrumCurve
from ifsdim.svgplot import emit_svg, resample_to_union_grid


def test_dimension_subcommand(capsys):
    rc = main(["dimension", "--family", "sharp", "--params", "p=1.8,t=2.8,h=0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h"] == pytest.approx(0.5, abs=1e-8)
    assert payload["method"] == "exact_similarity"


def test_dimension_from_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "gauss_digits", "digits": [2, 3]}))
    rc = main(["dimension", "--spec", str(spec)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["enclosure"][0] <= payload["h"] <= payload["enclosure"][1]


def test_dimension_uses_engine_tolerance_by_default(capsys):
    # an enclosure 0.014 wide has not converged at the engine's default
    # of 1e-4; --tol sets the width that counts as converged
    assert main(["dimension", "--family", "ctd-spaced"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = payload["enclosure"]
    assert hi - lo > 1e-2
    assert payload["converged"] is False
    assert main(["dimension", "--family", "ctd-spaced", "--tol", "0.07"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_atomic_write_in_slices(tmp_path, monkeypatch):
    from ifsdim import cli

    monkeypatch.setattr(cli, "_WRITE_CHUNK", 3)
    for name, data in (("a.txt", "x\n0.25\n0.5\n1e-07\n"), ("b.bin", bytes(range(10))), ("c.txt", ""),
                       ("d.txt", ["x\n", "0.25\n0.5\n", "", "1e-07\n"])):
        cli._atomic_write(tmp_path / name, iter(data) if isinstance(data, list) else data)
        written = (tmp_path / name).read_bytes()
        assert written == (data if isinstance(data, bytes) else "".join(data).encode())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin", "c.txt", "d.txt"]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc = main(["compare", "--spec", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


MALFORMED_SPECS = [
    {"kind": ["gauss_digits"]},
    {"kind": "similarity_list", "maps": [{"ratio": 0.5}]},
    {"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": 0.0}], "domain": [0, 1, 2]},
    {"kind": "similarity_list", "maps": [0.5]},
    {"kind": "similarity_list", "maps": []},
    {"kind": "similarity_list", "maps": [{"ratio": "0.5", "offset": 0.0}]},
    {"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": 0.0}], "anchor": "left"},
    {"kind": "polynomial_tail", "p": 1.8, "t": 2.8},
    {"kind": "polynomial_tail", "p": "x", "t": 2.8, "h": 0.5},
    {"kind": "gauss_digits", "digits": []},
    {"kind": "gauss_digits", "digits": {"set": "spaced"}},
    {"kind": "gauss_digits", "digits": {"set": "full", "start": "two"}},
    {"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": [0.5]}},
    {"kind": "complex_gauss", "digits": [[2, 0, 1]]},
    {"kind": "complex_gauss", "digits": [2]},
    {"kind": "complex_gauss", "digits": [[2.5, 0]]},
    {"kind": "complex_gauss", "digits": "some"},
    {"kind": "renyi_parabolic", "digits": ["two"]},
    {"kind": "renyi_parabolic", "digits": 3},
    [1, 2],
]


@pytest.mark.parametrize("doc", MALFORMED_SPECS, ids=lambda d: json.dumps(d)[:60])
def test_malformed_spec_document_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["build", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_dimension_of_a_branch_leaving_the_seed_interval_exits_2(tmp_path, capsys):
    # x -> x / 2 + 0.7 maps [0, 1] onto [0.7, 1.2]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "similarity_list", "maps": [
        {"ratio": 0.3, "offset": 0.0}, {"ratio": 0.5, "offset": 0.7}]}))
    assert main(["dimension", "--spec", str(path)]) == 2
    assert "outside itself" in capsys.readouterr().err


def test_missing_system_exits_2(capsys):
    assert main(["compare", "--out", "/tmp/x-ifs"]) == 2
    assert main(["build", "--family", "definitely-not-a-family"]) == 2


def test_build_writes_cloud(tmp_path, capsys):
    rc = main(["build", "--family", "fp", "--params", "p=1", "--delta", "1e-4",
               "--out", str(tmp_path)])
    assert rc == 0
    cloud = PointCloud.load(tmp_path / "cloud.bin")
    assert len(cloud) > 50
    assert (tmp_path / "cloud.csv").read_text().startswith("x\n")


def test_build_full_complex_system(tmp_path, capsys):
    from ifsdim import build_limit_cloud
    from ifsdim.jsonio import load_spec

    spec = tmp_path / "full.json"
    spec.write_text(json.dumps({"kind": "complex_gauss", "digits": "full"}))
    rc = main(["build", "--spec", str(spec), "--delta", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    cloud = PointCloud.load(tmp_path / "cloud.bin")
    assert len(cloud) == 598
    assert np.all(np.hypot(cloud.points[:, 0] - 0.5, cloud.points[:, 1]) <= 0.5 + 1e-12)
    assert build_limit_cloud(load_spec(spec), 0.05).complete


def test_compare_pipeline_artifacts_and_schema(tmp_path):
    config = RunConfig(family="fp", params={"p": 1.0}, delta=1e-5, grid=10, out_dir=str(tmp_path))
    table, summary = run_pipeline(config)
    assert table.all_passed
    for name in ("cloud.bin", "cloud.csv", "curves.csv", "overlay.svg", "summary.json"):
        assert (tmp_path / name).exists()
    text = (tmp_path / "curves.csv").read_text()
    assert text.splitlines()[0] == "theta,formula,lower,upper,estimate"
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "docs" / "summary.schema.json").read_text())
    jsonschema.validate(json.loads((tmp_path / "summary.json").read_text()), schema)


def test_compare_reproducible_byte_for_byte(tmp_path):
    outs = []
    for sub in ("a", "b"):
        config = RunConfig(family="fp", params={"p": 1.0}, delta=1e-5, grid=8, out_dir=str(tmp_path / sub))
        run_pipeline(config)
        outs.append({
            name: (tmp_path / sub / name).read_bytes()
            for name in ("cloud.bin", "curves.csv", "overlay.svg", "summary.json")
        })
    assert outs[0] == outs[1]


# sha256 of the artifacts of `compare --family fp --params p=1.0 --delta 1e-5
# --grid 10`; any change to the cloud, the estimate or the summary shows here.
# Recorded once the cloud held one point in every occupied delta/2 cell
# (TestFixedPointCloud.test_one_point_per_occupied_cell): the earlier
# similarity builder left the cells of 1/100001, 1/50001, 1/25001, ... empty,
# 887 points where there are 893
GOLDEN_FP = {
    "cloud.bin": "e9008cde1d0d2ebec8e516d54065d06699949d6441af8bf13e35bf5297c12155",
    "curves.csv": "fe7282b838fcf1db55d85c7733ca4948501a2f754db6fe0493ddb4fc3252e841",
    "summary.json": "3cce881f5e6c0da6c4f1ffcd937fc9d7d750c3dc89b2c242af693a8845f34e0f",
}


# sha256 of the estimate's artifacts of `compare --family ctd-spaced --grid 16`,
# recorded with the per-call jump-table counting kernel: a cloud of
# continued-fraction branches, where fp pins one of similarities
GOLDEN_CTD_SPACED = {
    "curves.csv": "6d45c346704ec39b980a76e29e0ba5ee16a350cb17fbf2bb4830762a039d0d0b",
    "summary.json": "2edf393c4dd67de2f49010d2ad07611fd29e290d92dcf0919090f60de08033d6",
}


def test_compare_golden_digests(tmp_path, capsys):
    rc = main(["compare", "--family", "fp", "--params", "p=1.0", "--delta", "1e-5", "--grid", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_FP}
    assert digests == GOLDEN_FP


def test_compare_golden_digests_ctd_spaced(tmp_path, capsys):
    rc = main(["compare", "--family", "ctd-spaced", "--grid", "16", "--out", str(tmp_path)])
    assert rc == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_CTD_SPACED}
    assert digests == GOLDEN_CTD_SPACED


# sha256 of the artifacts of `compare --spec` on the gauss_digits document
# {"digits": [1, 2]} with `--grid 8`; it exits 1. The bounds are [h_lo, h_hi]
# at every node, from the spec's fixed points; both files were re-recorded
# when the transfer operator's enclosure, 8e-9 wide, replaced the word-sum one
GOLDEN_E12_SPEC = {
    "curves.csv": "5ea0d8bd4ecc29e1c8c37a6d069cdce14029f162df779470ea085b02175014c1",
    "summary.json": "866c28c1cd699a88266ce21be819507a1108979078f1919410d1d36326c74253",
}


def test_compare_golden_digests_spec(tmp_path, capsys):
    spec = tmp_path / "e12.json"
    spec.write_text(json.dumps({"kind": "gauss_digits", "digits": [1, 2]}))
    out = tmp_path / "out"
    assert main(["compare", "--spec", str(spec), "--grid", "8", "--out", str(out)]) == 1
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_E12_SPEC}
    assert digests == GOLDEN_E12_SPEC


def _columns(path: Path) -> dict[str, list[str]]:
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    return {name: [row.split(",")[k] for row in rows] for k, name in enumerate(names)}


def test_spec_gate_on_e12_is_the_dimension_enclosure(tmp_path):
    # a finite alphabet has finitely many fixed points, whose spectrum is 0,
    # so the paper's sandwich collapses to [h_lo, h_hi] at every node
    spec = tmp_path / "e12.json"
    spec.write_text(json.dumps({"kind": "gauss_digits", "digits": [1, 2]}))
    config = RunConfig(spec_path=str(spec), out_dir=str(tmp_path / "out"))
    table, summary = run_pipeline(config)
    h_lo, h_hi = summary["dimension"]["enclosure"]
    assert len(table.rows) == 64
    assert all(row.lower == h_lo for row in table.rows)
    # the envelope's weighted average may round h_hi by one unit in the last place
    assert all(abs(row.upper - h_hi) <= np.spacing(h_hi) for row in table.rows)
    columns = _columns(tmp_path / "out" / "curves.csv")
    assert set(columns["lower"]) == {f"{h_lo:.10g}"}
    assert set(columns["upper"]) == {f"{h_hi:.10g}"}
    last = table.rows[-1]
    assert last.theta == 0.9 and not last.passed
    assert last.estimate > last.upper + GATE_TOL
    assert not table.all_passed


@pytest.mark.parametrize("family,doc", [
    ("ctd-spaced", {"kind": "gauss_digits", "digits": {"set": "spaced", "p": 1.8}}),
    ("ctd-clustered", {"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": 0.5}}),
    ("dense-cf", {"kind": "gauss_digits", "digits": {"set": "full"}}),
    ("parabolic", {"kind": "renyi_parabolic", "digits": [2, 3]}),
], ids=["ctd-spaced", "ctd-clustered", "dense-cf", "parabolic"])
def test_spec_document_gives_its_familys_bounds(tmp_path, capsys, family, doc):
    # the bounds read h and the fixed points only, never the cloud, so a coarse delta will do
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    common = ["--delta", "1e-3", "--grid", "16"]
    assert main(["compare", "--family", family, *common, "--out", str(tmp_path / "family")]) in (0, 1)
    assert main(["compare", "--spec", str(spec), *common, "--out", str(tmp_path / "spec")]) in (0, 1)
    by_family = _columns(tmp_path / "family" / "curves.csv")
    by_spec = _columns(tmp_path / "spec" / "curves.csv")
    for name in ("theta", "lower", "upper"):
        assert by_spec[name] == by_family[name]


@pytest.mark.parametrize("digits,message", [("2x", "integers"), ("2.5", "integers"), ("3", "digit 2")])
def test_parabolic_digits_exit_2(tmp_path, capsys, digits, message):
    rc = main(["compare", "--family", "parabolic", "--params", f"digits={digits}", "--grid", "4",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "cloud.bin").exists()


def test_parabolic_digits_in_the_library():
    from ifsdim.families import make_family

    assert make_family("parabolic", {"digits": (2.0, 3)}).spec.meta["digits"] == [2, 3]
    assert make_family("backwards-cf", {"digits": [5, 2, 3]}).spec.meta["digits"] == [2, 3, 5]
    for digits in ((2,), (3, 4), (2, 3.5), ("2", 3), (True, 3), ()):
        with pytest.raises(ConfigurationError):
            make_family("parabolic", {"digits": digits})


def test_params_continue_a_list(tmp_path, capsys):
    # digits=2,3,5 gives [2.0, 3.0, 5.0]: the induced system of those digits
    assert _parse_params("digits=2,3,p=1.5") == {"digits": [2.0, 3.0], "p": 1.5}
    assert main(["build", "--family", "parabolic", "--params", "digits=2,3,5", "--delta", "1e-3",
                 "--out", str(tmp_path)]) == 0
    assert "PASS  containment" in capsys.readouterr().out
    assert (tmp_path / "cloud.bin").exists()


def test_leading_params_item_without_a_key_exits_2(tmp_path, capsys):
    assert main(["compare", "--family", "fp", "--params", "3,p=1", "--out", str(tmp_path)]) == 2
    assert "malformed --params entry '3'" in capsys.readouterr().err
    assert not (tmp_path / "cloud.bin").exists()


def test_list_where_a_number_is_wanted_exits_2(tmp_path, capsys):
    for command, out in (("compare", ["--out", str(tmp_path)]), ("dimension", []),
                         ("spectrum-formula", ["--out", str(tmp_path)])):
        assert main([command, "--family", "sharp", "--params", "p=1,2", *out]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "family parameter 'p' must be a number" in err
        assert "Traceback" not in err
    assert not (tmp_path / "cloud.bin").exists()


def _miscounted(diagnostic, k, by):
    """The node's diagnostic with the recorded count of its k-th scale moved by `by`."""
    scales = list(diagnostic.scales)
    scales[k] = dataclasses.replace(scales[k], count=scales[k].count + by)
    return dataclasses.replace(diagnostic, scales=tuple(scales))


@pytest.mark.parametrize("name,delta", [("fp", 1e-5), ("dense-cf", 1e-3)])
def test_spot_check_recounts_the_runs_own_counts(name, delta):
    family = make_family(name)
    cloud = _build_cloud(family, delta)
    report = assouad_spectrum_estimate(cloud, np.linspace(0.05, 0.9, 12))
    assert all(_oracle_spot_check(cloud, report, seed) for seed in range(8))
    # one recorded count off by one in every node: the check fails whichever nodes it takes
    tampered = dataclasses.replace(report, diagnostics=tuple(
        _miscounted(d, -1, 1) if d.scales else d for d in report.diagnostics))
    assert not any(_oracle_spot_check(cloud, tampered, seed) for seed in range(8))


def test_spot_check_recounts_planar_counts():
    spec = spec_from_dict({"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]})
    cloud = build_limit_cloud(spec, 1e-3)
    report = assouad_spectrum_estimate(cloud, np.linspace(0.1, 0.8, 6))
    assert _oracle_spot_check(cloud, report, 0)
    counted = next(d for d in report.diagnostics if d.scales)
    assert _oracle_spot_check(cloud, dataclasses.replace(report, diagnostics=(counted,)), 0)
    tampered = dataclasses.replace(report, diagnostics=(_miscounted(counted, 0, -1),))
    assert not _oracle_spot_check(cloud, tampered, 0)


def test_build_rejects_nonpositive_delta(tmp_path, capsys):
    # build validates its configuration as compare does; --delta 0 is not "unset"
    for delta in ("0", "-1e-5"):
        assert main(["build", "--family", "fp", "--params", "p=1", f"--delta={delta}", "--out", str(tmp_path)]) == 2
        assert "--delta must be positive" in capsys.readouterr().err
    assert not (tmp_path / "cloud.bin").exists()


def test_bad_gauss_digits_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    for digits in ([2.5, 3], "abc"):
        spec.write_text(json.dumps({"kind": "gauss_digits", "digits": digits}))
        assert main(["dimension", "--spec", str(spec)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_spectrum_estimate_subcommand(tmp_path, capsys):
    main(["build", "--family", "fp", "--params", "p=1", "--delta", "1e-5", "--out", str(tmp_path)])
    rc = main(["spectrum-estimate", "--cloud", str(tmp_path / "cloud.bin"), "--grid", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "estimate.csv").read_text().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 9


def _valid_blob(dim):
    """A to_bytes payload of three sorted, distinct points."""
    points = [0.1, 0.4, 0.7] if dim == 1 else [[0.0, 0.5], [0.0, 0.75], [0.5, 0.0]]
    return bytearray(PointCloud.from_points(points, 1e-3, dim).to_bytes())


def _patched(dim, offset, fmt, value):
    blob = _valid_blob(dim)
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def _reordered(dim, order):
    blob = _valid_blob(dim)
    points = np.frombuffer(bytes(blob[28:]), dtype="<f8").reshape(3, -1)
    return bytes(blob[:28]) + points[order].tobytes()


# malformed cloud.bin payloads; the header is magic, version, dim, delta, count
_MALFORMED_CLOUDS = {
    "truncated": lambda: bytes(_valid_blob(1)[:-5]),
    "header-only-part": lambda: bytes(_valid_blob(1)[:10]),
    "trailing-bytes": lambda: bytes(_valid_blob(1)) + b"\x00" * 8,
    "count-too-large": lambda: _patched(1, 20, "<Q", 4),
    "dim-0": lambda: _patched(1, 8, "<I", 0),
    "dim-3": lambda: _patched(1, 8, "<I", 3),
    "delta-zero": lambda: _patched(1, 12, "<d", 0.0),
    "delta-negative": lambda: _patched(1, 12, "<d", -1e-3),
    "delta-nan": lambda: _patched(1, 12, "<d", float("nan")),
    "delta-inf": lambda: _patched(1, 12, "<d", float("inf")),
    "nan-point": lambda: _patched(1, 36, "<d", float("nan")),
    "inf-point-2d": lambda: _patched(2, 44, "<d", float("inf")),
    "reversed-1d": lambda: _reordered(1, [2, 1, 0]),
    "repeated-1d": lambda: _reordered(1, [0, 1, 1]),
    "unsorted-2d": lambda: _reordered(2, [1, 0, 2]),
    "repeated-2d": lambda: _reordered(2, [0, 0, 2]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CLOUDS))
def test_malformed_cloud_exits_2(tmp_path, capsys, case):
    # a reversed cloud once gave an all-zero spectrum with exit 0, and a
    # truncated or non-finite one a raw traceback with exit 1
    path = tmp_path / "cloud.bin"
    path.write_bytes(_MALFORMED_CLOUDS[case]())
    assert main(["spectrum-estimate", "--cloud", str(path), "--grid", "8", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_valid_cloud_payloads_load():
    for dim in (1, 2):
        blob = bytes(_valid_blob(dim))
        assert PointCloud.from_bytes(blob).to_bytes() == blob


@pytest.mark.parametrize("argv", [
    ["build", "--family", "fp", "--params", "p=1", "--delta", "1e-4"],
    ["build", "--spec", "complex.json", "--delta", "1e-3"],
])
def test_built_cloud_loads_bit_for_bit(tmp_path, capsys, argv):
    (tmp_path / "complex.json").write_text(json.dumps({"kind": "complex_gauss",
                                                       "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    blob = (tmp_path / "cloud.bin").read_bytes()
    cloud = PointCloud.load(tmp_path / "cloud.bin")
    assert len(cloud) > 50
    assert cloud.to_bytes() == blob


@pytest.mark.parametrize("grid", ["-3", "0", "1"])
def test_spectrum_estimate_grid_is_validated(tmp_path, capsys, grid):
    # compare refuses a grid below 2 nodes, and so does spectrum-estimate
    (tmp_path / "cloud.bin").write_bytes(bytes(_valid_blob(1)))
    assert main(["spectrum-estimate", "--cloud", str(tmp_path / "cloud.bin"), "--grid", grid,
                 "--out", str(tmp_path / "out")]) == 2
    assert "--grid needs at least 2 nodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sha256 of the spectrum CSVs, recorded while both subcommands wrote
# their `theta,value` lines by hand
GOLDEN_SPECTRUM_CSVS = {
    "estimate.csv": "6cd1015aacc0b015f9945b348d2fafda256e618bf626e836111b4c1b86b31f01",
    "complex-cf-formula.csv": "96c3f973b260a0900de1e79e6180cfe559e82ef3556e9d0efa1cbec3d0f26836",
    "sharp-formula.csv": "f6d66ed5087f8ecda553a02a6b63aff01106008b085c933d4ff1c85154cea97e",
}


def test_spectrum_csv_golden_digests(tmp_path, capsys):
    assert main(["build", "--family", "fp", "--params", "p=1", "--delta", "1e-5", "--out", str(tmp_path)]) == 0
    assert main(["spectrum-estimate", "--cloud", str(tmp_path / "cloud.bin"), "--grid", "8",
                 "--out", str(tmp_path)]) == 0
    assert main(["spectrum-formula", "--family", "complex-cf", "--grid", "64", "--out", str(tmp_path)]) == 0
    assert main(["spectrum-formula", "--family", "sharp", "--params", "p=1.8,t=3.6,h=0.5", "--grid", "64",
                 "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SPECTRUM_CSVS}
    assert digests == GOLDEN_SPECTRUM_CSVS


# what each subcommand is given, and a value for every option one of them does not read
_BASE_ARGV = {
    "build": ["build", "--family", "fp"],
    "dimension": ["dimension", "--family", "fp"],
    "spectrum-formula": ["spectrum-formula", "--family", "fp"],
    "spectrum-estimate": ["spectrum-estimate", "--cloud", "cloud.bin"],
    "compare": ["compare", "--family", "fp"],
    "report": ["report"],
}
_VALUES = {"--spec": "spec.json", "--family": "fp", "--params": "p=1", "--delta": "1e-3", "--grid": "8",
           "--tol": "0.5", "--seed": "1"}
_NOT_READ = {
    "build": ("--grid", "--tol", "--seed"),
    "dimension": ("--delta", "--grid", "--out", "--seed"),
    "spectrum-formula": ("--spec", "--delta", "--tol", "--seed"),
    "spectrum-estimate": ("--spec", "--family", "--params", "--delta", "--tol", "--seed"),
    "compare": ("--tol",),
    "report": ("--spec", "--family", "--delta", "--grid", "--tol", "--seed"),
}


@pytest.mark.parametrize("command,option", [(c, o) for c, options in _NOT_READ.items() for o in options])
def test_option_a_subcommand_does_not_read_exits_2(tmp_path, capsys, command, option):
    # an option dropped without a word misleads: report --family would write
    # the sharp report, and compare --tol would relax the gate
    out = str(tmp_path / "out")
    argv = _BASE_ARGV[command] + [option, out if option == "--out" else _VALUES[option]]
    if "--out" not in argv and command != "dimension":
        argv += ["--out", out]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_source_messages(tmp_path, capsys):
    assert main(["build", "--out", str(tmp_path)]) == 2
    assert "either --spec or --family is required" in capsys.readouterr().err
    assert main(["dimension", "--spec", str(tmp_path / "absent.json")]) == 2
    assert "does not exist" in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match="either --spec or --family is required"):
        run_pipeline(RunConfig(out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_spectrum_formula_subcommand(tmp_path, capsys):
    rc = main(["spectrum-formula", "--family", "complex-cf", "--grid", "64",
               "--out", str(tmp_path), "--svg"])
    assert rc == 0
    assert (tmp_path / "complex-cf-formula.csv").exists()
    assert (tmp_path / "complex-cf-formula.svg").exists()


def test_report_subcommand(tmp_path, capsys):
    rc = main(["report", "--params", "p=1.8,h=0.5", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "report.svg").read_text()
    assert svg.count("<polyline") == 3


@pytest.mark.parametrize("params", ["p=abc", "h=abc", "p=1,2"])
def test_report_bad_params_exit_2(tmp_path, capsys, params):
    assert main(["report", "--params", params, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "must be a number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", ["h=0", "h=0.0,p=2"])
def test_report_h_zero_exits_2(tmp_path, capsys, params):
    # the third curve has t = p + 1/h; h is checked before the division
    assert main(["report", "--params", params, "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSvg:
    def test_empty_list_is_error(self):
        with pytest.raises(Exception):
            emit_svg([])

    def test_single_constant_curve(self):
        curve = SpectrumCurve(np.array([0.1, 0.9]), np.array([0.5, 0.5]), "formula")
        svg = emit_svg([curve])
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_mismatched_grids_resampled(self):
        a = SpectrumCurve(np.array([0.1, 0.5]), np.array([0.2, 0.4]), "formula")
        b = SpectrumCurve(np.array([0.2, 0.9]), np.array([0.3, 0.8]), "estimate")
        out = resample_to_union_grid([a, b])
        assert np.array_equal(out[0].thetas, out[1].thetas)
        assert out[0].value_at(0.3) == pytest.approx(0.3)

    def test_deterministic_bytes(self):
        curve = SpectrumCurve(np.array([0.1, 0.9]), np.array([0.5, 0.7]), "estimate")
        assert emit_svg([curve]) == emit_svg([curve])


def test_build_fails_validation_with_exit_1(tmp_path):
    spec = tmp_path / "overlap.json"
    spec.write_text(json.dumps({
        "kind": "similarity_list",
        "maps": [{"ratio": 0.5, "offset": 0.0}, {"ratio": 0.5, "offset": 0.25}],
    }))
    rc = main(["build", "--spec", str(spec), "--delta", "1e-3", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_pipeline_failure_names_the_stage(tmp_path, capsys):
    # out-of-range family parameters fail in the configuration stage
    rc = main(["compare", "--family", "sharp", "--params", "p=1.8,t=2.0,h=0.5",
               "--grid", "6", "--out", str(tmp_path)])
    assert rc == 2
    assert "[stage configuration]" in capsys.readouterr().err
