import dataclasses
import errno
import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ifsdim import CloudSizeError, ConfigurationError, DomainError, cli
from ifsdim import cloud as cloud_module
from ifsdim.cli import GATE_TOL, RunConfig, _build_cloud, _oracle_spot_check, _parse_params, _Stage, main, run_pipeline
from ifsdim.cloud import PointCloud, WriteBehind, build_limit_cloud
from ifsdim import estimator
from ifsdim.estimator import assouad_spectrum_estimate
from ifsdim.families import make_family
from ifsdim.jsonio import spec_from_dict
from ifsdim.spectra import SpectrumCurve
from ifsdim.svgplot import emit_svg

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_similarity_list_below_its_width_has_not_converged(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "similarity_list", "maps": [
        {"ratio": 0.3, "offset": 0.0}, {"ratio": 0.3, "offset": 0.7}]}))
    assert main(["dimension", "--spec", str(spec), "--tol", "1e-20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = payload["enclosure"]
    assert payload["method"] == "exact_similarity"
    assert 0.0 < hi - lo < 1e-13 and payload["converged"] is False
    assert main(["dimension", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-9"])
def test_dimension_rejects_a_tolerance_that_is_not_positive(tol, capsys):
    assert main(["dimension", "--family", "dense-cf", f"--tol={tol}"]) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


def test_atomic_write_in_slices(tmp_path, monkeypatch):
    from ifsdim import cloud

    monkeypatch.setattr(cloud, "_WRITE_CHUNK", 3)
    for name, data in (("a.txt", "x\n0.25\n0.5\n1e-07\n"), ("b.bin", bytes(range(10))), ("c.txt", ""),
                       ("d.txt", ["x\n", "0.25\n0.5\n", "", "1e-07\n"])):
        cloud.atomic_write(tmp_path / name, iter(data) if isinstance(data, list) else data)
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
    assert len(cloud) == 619
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


# sha256 of all five artifacts of the seven default `compare` runs.  The
# t=2.8 sharp, ctd-clustered and parabolic rows were recorded with the
# netting walk that confirmed a prefix of each block per round, before it
# followed the walk's successors through the block: the walks these builds
# take have the longest sparse stretches.  The other four were recorded
# with the per-pair 1-D counting path that the batched one replaced
GOLDEN_DEFAULT_COMPARES = {
    "sharp-t3.6": (["sharp", "--params", "p=1.8,t=3.6,h=0.5"], 1, {
        "cloud.bin": "2fbb909cbd842ba3d990ca8814d4b68cab77bf16dfc188613e00c8f2df5e2067",
        "cloud.csv": "6b470517aa9fb6f8f58d1c09fbf5433fa034d7d55ab1f3d8775123b5dcb49e15",
        "curves.csv": "c8b721a2aa11d7b4d86785fcc0a7183bacadcd075c8ae67463299dea2206ff4a",
        "overlay.svg": "84944ce2a0bf3c3bc34dc1f745dc11eff5a1ea92429a654027019895c36732d7",
        "summary.json": "716697e10e4de9af220c12a0a3d1e5fb974c19de8ae9003e8a6e9ecc39b8c239",
    }),
    "sharp": (["sharp", "--params", "p=1.8,t=2.8,h=0.5"], 0, {
        "cloud.bin": "9e486bacf69c3bb0f7b36c243674e3dfa6d171ed744c561420ba2988076343dd",
        "cloud.csv": "a509d3ab36f6635b307ab310c4c0e31994dc883b40352a2ac251da8853e62aab",
        "curves.csv": "6e1945c75df819c104f72e00548624a206c22679395719de0b9b3c337ae4fb16",
        "overlay.svg": "3e9726f327f196946df63b506221ae46d056f015a41568fd044d396e70b264af",
        "summary.json": "b4ad53f3a60a7af3dd42da254a21a859d704e022923f98ba37a7162dcb419122",
    }),
    "fp": (["fp"], 0, {
        "cloud.bin": "d3e30543f582b07a6e79f94d4494ed6c680c3652fc4a78ce68a82d0942a1a6d4",
        "cloud.csv": "4e40cacbf54525d8be5fc5dff208bd3f60dcadf781dea2460a8cac0fb1511ed8",
        "curves.csv": "196499793e7c600d41abad5fd36e4bc271b966feea3864bf0031015daef3ffac",
        "overlay.svg": "4a72f46dbea641619fe59d04e95ba2ef3be3fdd8c06d0c2e8cd8a4bf1c1ee3fb",
        "summary.json": "9b176982d5e98f29843e4366d9134eb8e5e0ac9e48e7f8433d41ec2e8d743c0e",
    }),
    "ctd-spaced": (["ctd-spaced"], 1, {
        "cloud.bin": "1902e5ea38b52a83422a09a532468c2ecf7a1bfca25afd6c58a20c312b515206",
        "cloud.csv": "8a1eed3da2b44854de70f2abf8b2fd5e5b87152e05d823a500db3497a845f2f7",
        "curves.csv": "aec65cec09f4850d81df2dd13b131da6af5ab639ae90b4661f6093399cb41d97",
        "overlay.svg": "1dc2f7b2a361dc0b3dac43ea927d5573a0860b28856b0f529e83295c77647b1d",
        "summary.json": "5073a7cd265a8da1360b042491bf272fbfbf5d275e0de6a59e2ea98e39e29232",
    }),
    "dense-cf": (["dense-cf"], 1, {
        "cloud.bin": "303dda2f9701f1f5ca9fd0ac59001f1439be5ccaeb2708a83706005cac11f6cf",
        "cloud.csv": "5506c146b1d6925b391ca83c53fe2e3ddbe561ad11f0057f643cfa973aaab6df",
        "curves.csv": "450198eb223f4b1866faae707c4730fdfa7532cc6263634b95d13910e1b9819f",
        "overlay.svg": "ba465d51e01a1abfa7520a4d62b2dc0a734de11dc5e54472ce78ffb13f22592e",
        "summary.json": "fbc240cb53492dfad5e179d495295bbd34a5dd188b06abea683de71db87596ad",
    }),
    "ctd-clustered": (["ctd-clustered"], 1, {
        "cloud.bin": "3467a64d790341f1b6069a9e5f055d5bd8fe05b35c94354577ae0864a394434c",
        "cloud.csv": "7ab57678d0ad779610cddceb241ca94164cb93740f7d1ab247cbe3bdeafb37d8",
        "curves.csv": "9c15ede6ab6991c8a8521b913cbe873ac6f18c1024de7234deaa0c1c680414ba",
        "overlay.svg": "594867a3a23199258c464d64e0eb626106977190c5536637de867403013bd74f",
        "summary.json": "8780ab8c4bac9fc2a88c8ef6d1fca0c71f2979104fb825d70d806a39980c26b2",
    }),
    "parabolic": (["parabolic"], 0, {
        "cloud.bin": "09b7e2d7d636fbe7c51f10aaa52fbb680f5f0dd60c5b934cae0196840af9c21e",
        "cloud.csv": "97cfa954614591938a87bbfa77691e9d594bd126b3efdfdd8dd501830ee173d0",
        "curves.csv": "04d4dddfd479f61b5ec875ddf0544a63e6a626ab01a84a0d3a0a1bbfccecf5b7",
        "overlay.svg": "ee8a30c12e25ea427290c59ed775d6b071b48ca9cad4df46dfb408b765734d2c",
        "summary.json": "0a308575dcb0c0eb20a04c2cd9ca3f45d164f277be6c4ad6f0f541a05a669dc7",
    }),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_DEFAULT_COMPARES))
def test_default_compare_golden_digests(tmp_path, capsys, family):
    args, code, golden = GOLDEN_DEFAULT_COMPARES[family]
    assert main(["compare", "--family", *args, "--out", str(tmp_path)]) == code
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden


@pytest.fixture
def forked(monkeypatch):
    """Every WriteBehind forks, on any machine that has os.fork; the pids
    of the children forked are collected in the list returned."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(cloud_module, "WRITE_BEHIND_POINTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_csv_keeps_the_golden_digests(tmp_path, capsys, forked):
    args, code, golden = GOLDEN_DEFAULT_COMPARES["fp"]
    assert main(["compare", "--family", *args, "--out", str(tmp_path)]) == code
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden
    assert len(forked) == 1 and sorted(p.name for p in tmp_path.iterdir()) == sorted(golden)
    _assert_no_child_left()


def test_large_compare_clouds_fork_and_small_ones_do_not():
    sizes = {"fp": 2827, "sharp-t3.6": 6480, "sharp": 8487, "ctd-spaced": 5383, "dense-cf": 3140,
             "ctd-clustered": 253698, "parabolic": 86461}
    assert sorted(GOLDEN_DEFAULT_COMPARES) == sorted(sizes)
    assert {name for name, n in sizes.items() if n >= cloud_module.WRITE_BEHIND_POINTS} == {"ctd-clustered",
                                                                                        "parabolic"}


@pytest.mark.parametrize("failure", [DomainError, KeyboardInterrupt])
def test_run_failing_after_the_fork_leaves_nothing(tmp_path, capsys, monkeypatch, forked, failure):
    out = tmp_path / "new" / "out"

    def estimate(cloud, thetas):
        # fail once the child has written its file and exited, unreaped
        os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)
        raise failure("estimate failed")

    monkeypatch.setattr(cli, "assouad_spectrum_estimate", estimate)
    if failure is DomainError:
        assert main(["compare", "--family", "fp", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: [stage estimate] estimate failed\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--family", "fp", "--out", str(out)])
    assert len(forked) == 1
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


_KILLED_IN_THE_BLOCK = """
import os, sys
from ifsdim import cli, cloud

# every WriteBehind forks, as under the forked fixture
cloud.WRITE_BEHIND_POINTS = 0
os.sched_getaffinity = lambda pid: {0, 1}
fork, children = os.fork, []

def forking():
    pid = fork()
    if pid:
        children.append(pid)
    return pid

def estimate(cloud, thetas):
    # once the child has written its file and exited, say so and wait
    os.waitid(os.P_PID, children[0], os.WEXITED | os.WNOWAIT)
    print("written", flush=True)
    sys.stdin.read()

os.fork = forking
cli.assouad_spectrum_estimate = estimate
cli.main(["compare", "--family", "fp", "--out", sys.argv[1]])
"""


def test_compare_killed_in_the_write_behind_block_leaves_nothing(tmp_path):
    out, tmp = tmp_path / "new" / "out", tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-c", _KILLED_IN_THE_BLOCK, str(out)], env=env, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as run:
        assert run.stdout.readline() == "written\n"
        run.kill()
    assert run.returncode == -signal.SIGKILL
    # neither the out directory nor a named temporary file anywhere
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tmp"] and list(tmp.iterdir()) == []


@pytest.mark.parametrize("fork", [False, True], ids=["inline", "forked"])
def test_csv_that_cannot_be_opened_exits_2(tmp_path, capsys, request, fork):
    # a directory in the way fails the open even for root
    tmp = tmp_path / "out" / "cloud.csv.tmp"
    tmp.mkdir(parents=True)
    pids = request.getfixturevalue("forked") if fork else []
    assert main(["compare", "--family", "fp", "--out", str(tmp_path / "out")]) == 2
    # the line of the open in atomic_write, without a child as with one
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp}'\n"
    assert len(pids) == fork and tmp.is_dir() and not (tmp_path / "out" / "cloud.csv").exists()
    _assert_no_child_left()


def test_failed_compare_leaves_no_earlier_summary(tmp_path, capsys, monkeypatch):
    # a run that stops after cloud.bin must not pair it with an earlier
    # run's summary.json
    (tmp_path / "summary.json").write_text("{}\n")

    def emit(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "emit_svg", emit)
    assert main(["compare", "--family", "fp", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (tmp_path / "cloud.bin").exists() and not (tmp_path / "summary.json").exists()


def test_write_behind_writes_inline_when_its_child_fails(tmp_path, forked):
    parent = os.getpid()

    def pieces():
        if os.getpid() != parent:
            raise MemoryError("the child fails")
        yield from ("x\n", "0.25\n")

    with WriteBehind(tmp_path / "b.csv", pieces, 1) as behind:
        behind.publish()
    assert len(forked) == 1 and (tmp_path / "b.csv").read_text() == "x\n0.25\n"
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]
    _assert_no_child_left()


def test_write_behind_writes_inline_when_fork_fails(tmp_path, monkeypatch, forked):
    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(DomainError):
        with WriteBehind(tmp_path / "b.csv", lambda: iter(["x\n"]), 1) as behind:
            raise DomainError("the estimate failed")
    assert list(tmp_path.iterdir()) == [] and behind.file.closed
    with WriteBehind(tmp_path / "b.csv", lambda: iter(["x\n"]), 1) as behind:
        behind.publish()
    assert (tmp_path / "b.csv").read_text() == "x\n"


def test_write_behind_writes_inline_when_its_temporary_file_fails(tmp_path, capsys, monkeypatch, forked):
    def temporary_file():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    args, code, golden = GOLDEN_DEFAULT_COMPARES["fp"]
    assert main(["compare", "--family", *args, "--out", str(tmp_path)]) == code
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden and forked == []


def test_write_behind_left_early_leaves_nothing(tmp_path, forked):
    with pytest.raises(OSError):
        with WriteBehind(tmp_path / "b.csv", lambda: iter(["x\n"]), 1) as behind:
            raise OSError("a write before this file's failed")
    assert len(forked) == 1 and list(tmp_path.iterdir()) == [] and behind.file.closed
    _assert_no_child_left()


def _imports_numpy_ma(work: str) -> bool:
    """Whether a fresh interpreter has imported numpy.ma after running work."""
    script = f"import sys\n{work}\nprint('numpy.ma' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return run.stdout.splitlines()[-1] == "True"


def test_compare_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 10 ms in a fresh
    # interpreter; a 1-D compare dedupes its cloud and theta grid without it
    assert not _imports_numpy_ma("from ifsdim.cli import main\n"
                                 f"main(['compare', '--family', 'fp', '--out', {str(tmp_path)!r}])")


def test_planar_build_does_not_import_numpy_ma():
    # the planar cloud is deduped by rows without np.unique(axis=0)
    doc = {"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1], [3, 0]]}
    assert not _imports_numpy_ma("from ifsdim import build_limit_cloud, spec_from_dict\n"
                                 f"build_limit_cloud(spec_from_dict({doc!r}), 1e-5)")


@pytest.mark.parametrize("args", [["--family", "ctd-spaced", "--params", "p=nan"],
                                  ["--family", "ctd-spaced", "--params", "p=inf"],
                                  ["--family", "ctd-spaced", "--params", "p=9"],
                                  ["--spec", "spec.json"]], ids=["nan", "inf", "past-int64", "spec-infinity"])
def test_spaced_exponent_out_of_range_exits_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text('{"kind": "gauss_digits", "digits": {"set": "spaced", "p": Infinity}}')
    assert main(["dimension", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error:") and captured.err.count("\n") == 1


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

    # the parabolic digit 2 induces the tail; the others are its branches
    assert [b for b, _ in make_family("parabolic", {"digits": (2.0, 3)}).spec.tail.branches] == [3]
    assert [b for b, _ in make_family("backwards-cf", {"digits": [5, 2, 3]}).spec.tail.branches] == [3, 5]
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
    for delta in ("0", "-1e-5", "nan", "inf"):
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


@pytest.mark.parametrize("points, dim", [([-1e200, 0.0, 1e200], 1), ([[-1e200, 0.0], [0.0, 1.0], [1e200, 2.0]], 2)],
                         ids=["1d", "2d"])
def test_cell_ids_that_overflow_exit_2(tmp_path, capsys, monkeypatch, points, dim):
    # at delta = 1e-200 the cell ids floor(p / r) of points at 1e200 are
    # infinite: the 1-D net once raised OverflowError with exit 1, and the
    # planar squares cast them to garbage and exited 0 with all-zero estimates
    counted = []
    monkeypatch.setattr(estimator, "_extreme_counts", lambda *args: counted.append(args))
    path = tmp_path / "cloud.bin"
    PointCloud.from_points(points, 1e-200, dim).save(path)
    assert main(["spectrum-estimate", "--cloud", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "cell ids overflow" in captured.err
    assert counted == [] and not (tmp_path / "out").exists()


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


# sha256 of the closed-form artifacts at default parameters, recorded while
# each family wrote its own closed form and report built the three sharp
# systems to read theirs; the curves must not move by a bit
GOLDEN_FORMULA_ARTIFACTS = {
    ("report",): {
        "report-curves.csv": "0710257f9905fe94940cd0744a440215a6092b4b9ef62d7579f0c72f0d95a40c",
        "report.svg": "faf75ea9d09ab12a97afa30dac62a045c4929e6df8855deb5d0d7788893e231c",
    },
    ("spectrum-formula", "--family", "sharp", "--svg"): {
        "sharp-formula.csv": "282d1de7137b4f184cd473adf788e89720c7150e2a3c77aeaa318eb836694687",
        "sharp-formula.svg": "34492c6e11eee2979cd938498a57c52e81bbbbac84c562365e08f6e43be67cad",
    },
    ("spectrum-formula", "--family", "fp", "--svg"): {
        "fp-formula.csv": "498d1d887b66b4f975a2e756172672df53a14402d2993e587e366e249d3281c7",
        "fp-formula.svg": "91e75100fee467052da79c8acdb4899f6ee740e15b1900e017d52107cf5cc5d3",
    },
    ("spectrum-formula", "--family", "complex-cf", "--svg"): {
        "complex-cf-formula.csv": "96c3f973b260a0900de1e79e6180cfe559e82ef3556e9d0efa1cbec3d0f26836",
        "complex-cf-formula.svg": "642013432aadd3a24522f5826fb797fa397b236a8047ddc75eba497b61c0e2e9",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_FORMULA_ARTIFACTS), ids=" ".join)
def test_formula_artifacts_golden_digests(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    golden = GOLDEN_FORMULA_ARTIFACTS[argv]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden


def test_report_needs_no_system_of_the_sharp_family(tmp_path, capsys):
    # no cutoff solves the dimension equation for the three systems at
    # h = 0.505, yet every curve is defined
    assert main(["report", "--params", "p=1,h=0.505", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.svg").read_text().count("<polyline") == 3


@pytest.mark.parametrize("params, columns", [
    ("p=1,h=0.505", ["t=p+1=2", "t=2p=2", "t=2.9802"]),
    ("p=1,h=0.6", ["t=p+1=2", "t=2p=2", "t=2.66667"]),
    # h = 1/p puts t = p + 1/h on t = 2p
    ("p=2,h=0.5", ["t=3", "t=2p=4", "t=p+1/h=4"]),
])
def test_report_curves_of_one_t_keep_their_columns(tmp_path, capsys, params, columns):
    # at p = 1 the curves t = p+1 and t = 2p are both t=2; each keeps a
    # column of the CSV and a legend entry of the SVG
    assert main(["report", "--params", params, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "report-curves.csv").read_text().splitlines()
    assert rows[0].split(",") == ["theta", *columns]
    assert all(len(row.split(",")) == 4 for row in rows)
    svg = (tmp_path / "report.svg").read_text()
    assert svg.count("<polyline") == 3
    assert re.findall(r">(t=[^<]*)</text>", svg) == columns


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

    def test_deterministic_bytes(self):
        curve = SpectrumCurve(np.array([0.1, 0.9]), np.array([0.5, 0.7]), "estimate")
        assert emit_svg([curve]) == emit_svg([curve])


@pytest.mark.parametrize("command", ["build", "dimension", "compare"])
def test_branch_leaving_the_seed_interval_exits_2_everywhere(tmp_path, capsys, command):
    # x -> x / 2 + 0.7 maps [0, 1] onto [0.7, 1.2]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": 0.7}]}))
    out = [] if command == "dimension" else ["--out", str(tmp_path / "out")]
    assert main([command, "--spec", str(path)] + out) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "a branch maps the seed domain outside itself" in err
    assert not (tmp_path / "out" / "cloud.bin").exists()


def test_stage_keeps_a_cloud_size_error_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"\[stage build\] projected cloud size 7 exceeds"):
        with _Stage("build"):
            raise CloudSizeError(7, 5)


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
