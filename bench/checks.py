"""Correctness checks run after each operation, outside its time.

Every check compares the program's output with a value computed apart
(refs.py) or with a property the output must have; none compares with a
stored copy of an earlier output.  ``check`` returns the named checks
with their outcome, plus what run.py reports: the enclosure width and,
for ``compare``, the sha256 of each artifact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

import numpy as np

import refs
from workloads import COMPARE_TOL, COVER_QUERIES, DIMENSION_SYSTEMS, ESTIMATE_NODES, PLANAR_TOL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = ("cloud.bin", "curves.csv", "overlay.svg", "summary.json")

#: allowance for the collocation value's own rounding error (about 1e-15)
COLLOCATION_SLACK = 1e-12

# finite truncations whose collocation value bounds a system from below
_TRUNCATIONS = {
    "ctd-spaced": lambda p: refs.gauss_branches(refs.spaced_digits(p["p"], 200)),
    "ctd-clustered": lambda p: refs.gauss_branches(refs.clustered_digits(p["alpha"], 12)),
    "dense-cf": lambda p: refs.gauss_branches(range(2, 1001)),
}


def _params(text: str | None) -> dict:
    return {k: float(v) for k, v in (item.split("=") for item in text.split(","))} if text else {}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# compare


def _estimator_counts_ok(report, reference) -> bool:
    """Every count behind the estimate (the extreme count at each scale,
    with its centre) equals the benchmark's own count at that centre."""
    scales = [s for node in report.diagnostics for s in node.scales]
    return bool(scales) and all(s.count == reference(s.center, s.R, s.r) for s in scales)


def _read_curves(path: str) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in fh if line.strip()]


def _curves_within_bounds(rows: list[dict], ambient: int) -> bool:
    for row in rows:
        est = row["estimate"]
        if not math.isfinite(est):
            continue  # invalid node
        if not (row["lower"] - COMPARE_TOL <= est <= row["upper"] + COMPARE_TOL and 0.0 <= est <= ambient):
            return False
    return bool(rows)


def _check_compare(entry: dict, exit_code: int, rng_key) -> dict:
    from jsonschema import Draft202012Validator

    from ifsdim import (
        PointCloud,
        assouad_spectrum_estimate,
        build_fixed_point_cloud,
        build_limit_cloud,
        cover_count_1d,
    )
    from ifsdim.families import make_family

    out = entry["argv"][entry["argv"].index("--out") + 1]
    path = {name: os.path.join(out, name) for name in ARTIFACTS}
    with open(path["summary.json"]) as fh:
        summary = json.load(fh)
    with open(os.path.join(ROOT, "docs", "summary.schema.json")) as fh:
        schema = json.load(fh)

    family = make_family(entry["family"], _params(entry["params"]))
    build = build_fixed_point_cloud if family.cloud_kind == "fixed_points" else build_limit_cloud
    built = build(family.spec, family.default_delta)
    saved = PointCloud.load(path["cloud.bin"])
    pts = saved.points
    lo, hi = family.spec.domain

    listed = pts.tolist()
    rng = np.random.default_rng(rng_key)
    cover_ok = True
    for q in range(COVER_QUERIES):
        i = int(rng.integers(len(listed)))
        center = listed[i]
        if q % 2:
            # r from a gap between cloud points, so that interval ends land
            # on points and the closed-interval convention is exercised
            j = min(i + int(rng.integers(1, 50)), len(listed) - 1)
            r = (listed[j] - listed[i]) / 2.0 or 1e-9
            R = r * 10.0 ** rng.uniform(0.3, 2.5)
        else:
            R = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
            r = R * 10.0 ** -rng.uniform(0.3, 2.5)
        cover_ok &= cover_count_1d(saved, center, R, r) == refs.greedy_cover_count(listed, center, R, r)

    # re-estimate a few seeded valid nodes on the saved cloud: the values
    # must match curves.csv, and the counts behind them the greedy sweep
    rows = _read_curves(path["curves.csv"])
    valid = [i for i, row in enumerate(rows) if math.isfinite(row["estimate"])]
    picked = sorted(rng.choice(valid, size=min(ESTIMATE_NODES, len(valid)), replace=False).tolist())
    report = assouad_spectrum_estimate(saved, [summary["theta_grid"][i] for i in picked])
    reproduced = all(abs(v - rows[i]["estimate"]) <= 1e-9 * max(1.0, abs(v))
                     for i, v in zip(picked, report.curve.values.tolist()))

    enc_lo, enc_hi = summary["dimension"]["enclosure"]
    checks = {
        "exit_code": exit_code == 0,
        "enclosure_ordered": enc_lo <= enc_hi,
        "summary_schema": not any(True for _ in Draft202012Validator(schema).iter_errors(summary)),
        "cloud_equals_built": (saved.ambient_dim == built.ambient_dim and saved.delta == built.delta
                               and np.array_equal(pts, built.points)),
        "cloud_sorted_unique": bool(np.all(np.diff(pts) > 0)),
        "cloud_in_domain": bool(len(pts) and lo <= pts[0] and pts[-1] <= hi),
        "cloud_count": len(pts) == summary["cloud_points"],
        "cover_count_1d": cover_ok,
        "estimate_reproduced": bool(picked) and reproduced,
        "estimator_counts": _estimator_counts_ok(
            report, lambda c, R, r: refs.greedy_cover_count(listed, float(c), R, r)),
        "curves_within_bounds": _curves_within_bounds(rows, family.spec.ambient_dim),
    }
    sha = {name: _sha256(p) for name, p in path.items()}
    shutil.rmtree(out)
    return {"checks": checks, "width": enc_hi - enc_lo, "sha256": sha,
            "info": {"exit": exit_code, "cloud_points": len(pts)}}


# ---------------------------------------------------------------------------
# dimension


def _check_enclosure(name: str, spec, result) -> dict:
    from ifsdim import finiteness_parameter

    lo, hi = result.enclosure
    how = dict(DIMENSION_SYSTEMS)[name]
    checks = {"enclosure_ordered": lo <= hi}
    if name == "e12":
        checks["contains_published"] = lo <= refs.E12_DIMENSION <= hi
        checks["collocation_selftest"] = refs.self_test() < 1e-13
    elif name in ("e23", "e2345"):
        value = refs.collocation_dimension(refs.gauss_branches(how["digits"]))
        checks["contains_collocation"] = lo - COLLOCATION_SLACK <= value <= hi + COLLOCATION_SLACK
    elif name == "renyi23":
        value = refs.collocation_dimension(refs.induced_renyi_branches([b for b in how["digits"] if b != 2], 2000))
        checks["upper_above_truncation"] = hi >= value
    elif name in _TRUNCATIONS:
        value = refs.collocation_dimension(_TRUNCATIONS[name](how[1]))
        checks["upper_above_truncation"] = hi >= value
    elif name == "complex-finite":
        s_lo, s_hi = refs.complex_first_level_bracket(how["digits"])
        checks["inside_first_level_bracket"] = s_lo - COLLOCATION_SLACK <= lo and hi <= s_hi + COLLOCATION_SLACK
    elif name == "complex-full":
        half = refs.COMPLEX_CF_HALF_WIDTH
        checks["meets_published"] = lo <= refs.COMPLEX_CF_DIMENSION + half and hi >= refs.COMPLEX_CF_DIMENSION - half
    elif name == "sharp":
        checks["contains_prescribed_h"] = lo <= how[1]["h"] <= hi
    checks["lower_above_finiteness"] = lo >= finiteness_parameter(spec)
    return {"checks": checks, "width": hi - lo}


# ---------------------------------------------------------------------------
# planar


def _check_planar(name: str, inputs: dict, result, state: dict, rng_key) -> dict:
    from ifsdim import cover_count_2d

    if name == "build":
        pts = result.points
        return {"checks": {
            "cloud_in_seed_disc": bool(np.all(np.hypot(pts[:, 0] - 0.5, pts[:, 1]) <= 0.5 + 1e-12)),
            "cloud_unique": len(np.unique(pts, axis=0)) == len(pts) > 0,
            "cloud_complete": bool(result.complete),
        }, "info": {"cloud_points": len(pts)}}
    if name == "dimension":
        return _check_enclosure("complex-finite", inputs["spec"], result)
    cloud = state["cloud"]
    listed = [tuple(p) for p in cloud.points.tolist()]
    rng = np.random.default_rng(rng_key)
    cover_ok = True
    for _ in range(COVER_QUERIES):
        x, y = listed[int(rng.integers(len(listed)))]
        R = 10.0 ** rng.uniform(-3.0, math.log10(0.5))
        r = R * 10.0 ** -rng.uniform(0.3, 2.0)
        cover_ok &= cover_count_2d(cloud, complex(x, y), R, r) == refs.mesh_cell_count(listed, complex(x, y), R, r)
    lo, hi = state["dimension"].enclosure
    values = [v for v in result.curve.values.tolist() if math.isfinite(v)]
    return {"checks": {
        "cover_count_2d": cover_ok,
        "estimator_counts": _estimator_counts_ok(
            result, lambda c, R, r: refs.mesh_cell_count(listed, complex(*c), R, r)),
        "estimate_in_range": bool(values) and all(0.0 <= v <= 2.0 for v in values),
        "spectrum_near_dimension": all(lo - PLANAR_TOL <= v <= hi + PLANAR_TOL for v in values),
    }, "info": {"estimate": [round(v, 4) for v in result.curve.values.tolist()]}}


def check(workload: str, name: str, inputs: dict, result, state: dict, rng_key) -> dict:
    if workload.startswith("compare"):
        return _check_compare(inputs[name], result, rng_key)
    if workload == "dimension":
        return _check_enclosure(name, inputs[name], result)
    return _check_planar(name, inputs, result, state, rng_key)
