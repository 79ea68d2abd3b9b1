"""Command-line interface and the build/measure/compare pipeline.

Subcommands: build, dimension, spectrum-formula, spectrum-estimate,
compare, report.  Exit codes follow the CI contract: 0 on success,
1 when a comparison fails its tolerance, 2 on configuration errors.
All file writes are atomic (write to a temporary name, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cifs import CifsSpec, validate_cifs
from .cloud import PointCloud, build_fixed_point_cloud, build_limit_cloud
from .errors import ConfigurationError, DomainError
from .estimator import (
    assouad_dimension_estimate,
    assouad_spectrum_estimate,
    box_dimension_estimate,
    cover_count_1d,
    exhaustive_cover_count_1d,
)
from .families import Family, make_family
from .jsonio import load_spec
from .pressure import finiteness_parameter, hausdorff_dimension
from .spectra import (
    SpectrumCurve,
    curve_from_formula,
    default_theta_grid,
    lower_bound_curve,
    phase_transition,
    slope_discontinuities,
    upper_envelope,
)
from .svgplot import emit_svg, resample_to_union_grid

#: characters (or bytes) per write in _atomic_write
_WRITE_CHUNK = 1 << 20


@dataclass
class RunConfig:
    spec_path: str | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    delta: float | None = None
    grid: int = 64
    theta_min: float = 0.05
    theta_max: float = 0.9
    tol: float = 0.07
    out_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        if self.delta is not None and self.delta <= 0:
            raise ConfigurationError("--delta must be positive")
        if self.grid < 2:
            raise ConfigurationError("--grid needs at least 2 nodes")
        if self.tol <= 0:
            raise ConfigurationError("--tol must be positive")


@dataclass(frozen=True)
class ComparisonRow:
    theta: float
    lower: float
    upper: float
    formula: float
    estimate: float
    passed: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    max_deviation: float
    phase_transitions: tuple[float, ...]
    all_passed: bool


def _atomic_write(path: Path, data: str | bytes | Iterable[str]) -> None:
    """Write text, bytes or text pieces to path through a temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    pieces = [data] if isinstance(data, (str, bytes)) else data
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        # a slice at a time: writing text whole encodes a full copy of it
        for piece in pieces:
            for start in range(0, len(piece), _WRITE_CHUNK):
                fh.write(piece[start : start + _WRITE_CHUNK])
    os.replace(tmp, path)


def _parse_params(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigurationError(f"malformed --params entry {item!r}; expected key=value")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            out[key.strip()] = value.strip()
    return out


def _resolve_system(config: RunConfig) -> tuple[CifsSpec | None, Family | None]:
    """The system named by --family, else the one in the --spec file."""
    if config.family is not None:
        fam = make_family(config.family, config.params)
        return fam.spec, fam
    if config.spec_path is None:
        raise ConfigurationError("either --spec or --family is required")
    if not Path(config.spec_path).exists():
        raise ConfigurationError(f"spec file {config.spec_path} does not exist")
    return load_spec(config.spec_path), None


def _build_cloud(spec: CifsSpec, family: Family | None, delta: float | None) -> PointCloud:
    """The family's kind of cloud at delta, or at its default delta (1e-6 for a spec file)."""
    if delta is None:
        delta = family.default_delta if family else 1e-6
    if family is not None and family.cloud_kind == "fixed_points":
        return build_fixed_point_cloud(spec, delta)
    return build_limit_cloud(spec, delta)


def _curves_csv(curves: dict[str, SpectrumCurve]) -> str:
    names = list(curves)
    grid = curves[names[0]].thetas
    lines = ["theta," + ",".join(names)]
    for i, theta in enumerate(grid):
        row = [f"{theta:.10g}"] + [f"{curves[n].values[i]:.10g}" for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _oracle_spot_check(seed: int, cases: int = 200) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 40))
        pts = np.sort(rng.random(n))
        r = float(rng.uniform(0.01, 0.3))
        cloud = PointCloud.from_points(pts, 1e-9, 1)
        greedy = cover_count_1d(cloud, 0.5, 0.6, r)
        lo = np.searchsorted(cloud.points, -0.1)
        hi = np.searchsorted(cloud.points, 1.1)
        exact = exhaustive_cover_count_1d(cloud.points[lo:hi], r)
        if greedy != exact:
            return False
    return True


class _Stage:
    """Prefixes any failure with the pipeline stage that raised it."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, (ConfigurationError, DomainError)):
            raise type(exc)(f"[stage {self.name}] {exc}") from exc
        return False


def run_pipeline(config: RunConfig) -> tuple[ComparisonTable, dict]:
    """Build the cloud, evaluate formulas and bounds, estimate, compare.

    Writes cloud.bin, curves.csv, overlay.svg and summary.json into the
    output directory and returns the comparison table plus the summary.
    """
    config.validate()

    with _Stage("configuration"):
        spec, family = _resolve_system(config)
        thetas = np.linspace(config.theta_min, config.theta_max, config.grid)
        if family is not None and family.spec is None:
            raise ConfigurationError(f"family {family.name!r} has no buildable system; use spectrum-formula")

    with _Stage("dimension"):
        h_lo, h_hi = (family.dimension_enclosure() if family else hausdorff_dimension(spec).enclosure)
        h_mid = 0.5 * (h_lo + h_hi)

    with _Stage("build"):
        cloud = _build_cloud(spec, family, config.delta)
    with _Stage("estimate"):
        report = assouad_spectrum_estimate(cloud, thetas)
    estimate = report.curve

    # the paper's sandwich from h and the fixed points' spectrum, whose
    # theta -> 0 end is their upper box dimension
    spectrum_p = spec.fixed_point_spectrum
    lower = lower_bound_curve(thetas, spectrum_p, h_lo)
    upper = upper_envelope(thetas, spectrum_p, max(h_hi, spectrum_p(0.0)))

    formula = None
    if family is not None and family.formula is not None:
        try:
            formula = curve_from_formula(lambda th: family.formula(h_mid, th), thetas)
        except DomainError:
            formula = None  # measured dimension outside the formula's domain

    rows = []
    devs = []
    for i, theta in enumerate(thetas):
        est = float(estimate.values[i])
        f_val = float(formula.values[i]) if formula is not None else float("nan")
        sandwich = lower.values[i] - config.tol <= est <= upper.values[i] + config.tol
        dev_ok = True
        if formula is not None and np.isfinite(est):
            devs.append(abs(est - f_val))
            dev_ok = abs(est - f_val) <= config.tol
        rows.append(ComparisonRow(float(theta), float(lower.values[i]), float(upper.values[i]),
                                  f_val, est, bool(sandwich and dev_ok)))
    max_dev = float(max(devs)) if devs else float("nan")

    transitions = [phase_transition(estimate).theta]
    if formula is not None:
        transitions.append(phase_transition(formula).theta)
    table = ComparisonTable(tuple(rows), max_dev, tuple(transitions), all(r.passed for r in rows))

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud.save(out / "cloud.bin")
    _atomic_write(out / "cloud.csv", cloud.csv_blocks())
    curves = {"lower": lower, "upper": upper, "estimate": estimate}
    if formula is not None:
        curves = {"formula": formula, **curves}
    _atomic_write(out / "curves.csv", _curves_csv(curves))
    for name, curve in curves.items():
        curve.metadata["label"] = name
    svg = emit_svg(list(curves.values()), value_max=float(spec.ambient_dim))
    _atomic_write(out / "overlay.svg", svg)

    summary = {
        "version": __version__,
        "family": family.name if family else None,
        "spec_digest": spec.digest(),
        "delta": cloud.delta,
        "cloud_points": len(cloud),
        "cloud_complete": bool(cloud.complete),
        "dimension": {"value": h_mid, "enclosure": [h_lo, h_hi]},
        "finiteness_parameter": finiteness_parameter(spec),
        "theta_grid": [float(t) for t in thetas],
        "max_deviation": None if not devs else max_dev,
        "phase_transitions": [float(t) for t in transitions],
        "tolerance": config.tol,
        "oracle_check": _oracle_spot_check(config.seed),
        "passed": table.all_passed,
    }
    _atomic_write(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return table, summary


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    config = _config_from(args)
    config.validate()
    spec, family = _resolve_system(config)
    if spec is None:
        raise ConfigurationError("this family has no buildable system")
    report = validate_cifs(spec)
    print(report)
    if not report.ok:
        return 1
    cloud = _build_cloud(spec, family, config.delta)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud.save(out / "cloud.bin")
    _atomic_write(out / "cloud.csv", cloud.csv_blocks())
    print(f"cloud: {len(cloud)} points at delta={cloud.delta:g} -> {out / 'cloud.bin'}")
    return 0


def _cmd_dimension(args) -> int:
    config = _config_from(args)
    spec, family = _resolve_system(config)
    if spec is None:
        raise ConfigurationError("this family has no system; its dimension is an input parameter")
    result = hausdorff_dimension(spec, args.tol)
    payload = {
        "h": result.value,
        "enclosure": list(result.enclosure),
        "method": result.method,
        "converged": result.converged,
        "finiteness_parameter": finiteness_parameter(spec),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_spectrum_formula(args) -> int:
    config = _config_from(args)
    if config.family is None:
        raise ConfigurationError("spectrum-formula needs --family")
    family = make_family(config.family, config.params)
    if family.h_known is not None:
        h = family.h_known
    else:
        h_lo, h_hi = family.dimension_enclosure()
        h = 0.5 * (h_lo + h_hi)
    thetas = default_theta_grid(config.grid)
    curve = curve_from_formula(lambda th: family.formula(h, th), thetas)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / f"{config.family}-formula.csv", _curves_csv({"value": curve}))
    if args.svg:
        curve.metadata["label"] = config.family
        _atomic_write(out / f"{config.family}-formula.svg", emit_svg([curve]))
    kinks = slope_discontinuities(curve)
    print(f"h = {h:.6g}; phase transition rho = {phase_transition(curve).theta:.6g}; kinks at {kinks}")
    print(f"wrote {out / (config.family + '-formula.csv')}")
    return 0


def _cmd_spectrum_estimate(args) -> int:
    config = _config_from(args)
    cloud = PointCloud.load(args.cloud)
    thetas = np.linspace(config.theta_min, config.theta_max, config.grid)
    report = assouad_spectrum_estimate(cloud, thetas)
    box = box_dimension_estimate(cloud)
    assouad = assouad_dimension_estimate(cloud)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "estimate.csv", _curves_csv({"value": report.curve}))
    print(f"box = {box.value:.4f}; assouad = {assouad.value:.4f}; wrote {out / 'estimate.csv'}")
    return 0


def _cmd_compare(args) -> int:
    config = _config_from(args)
    table, summary = run_pipeline(config)
    print(f"max |estimate - formula| = {table.max_deviation:.4f}" if np.isfinite(table.max_deviation)
          else "no closed form available; sandwich only")
    print(f"phase transitions: {[round(t, 5) for t in table.phase_transitions]}")
    print(f"passed: {table.all_passed}")
    return 0 if table.all_passed else 1


def _cmd_report(args) -> int:
    config = _config_from(args)
    p = config.params.get("p", 1.8)
    h = config.params.get("h", 0.5)
    thetas = default_theta_grid(max(config.grid, 256))
    curves = []
    for t in (p + 1.0, 2.0 * p, p + 1.0 / h):
        fam = make_family("sharp", {"p": p, "t": t, "h": h})
        curve = curve_from_formula(lambda th: fam.formula(h, th), thetas)
        curve.metadata["label"] = f"t={t:g}"
        curves.append(curve)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    named = {c.metadata["label"]: c for c in curves}
    _atomic_write(out / "report-curves.csv", _curves_csv(named))
    _atomic_write(out / "report.svg", emit_svg(resample_to_union_grid(curves)))
    for c in curves:
        print(f"{c.metadata['label']}: kinks at {[round(k, 5) for k in slope_discontinuities(c)]}")
    print(f"wrote {out / 'report.svg'}")
    return 0


def _config_from(args) -> RunConfig:
    return RunConfig(
        spec_path=getattr(args, "spec", None),
        family=getattr(args, "family", None),
        params=_parse_params(getattr(args, "params", None)),
        delta=getattr(args, "delta", None),
        grid=getattr(args, "grid", 64),
        tol=RunConfig.tol if getattr(args, "tol", None) is None else args.tol,
        out_dir=getattr(args, "out", "out"),
        seed=getattr(args, "seed", 0),
    )


def _add_common(sub, cloud_arg=False):
    sub.add_argument("--spec", help="path to a JSON system description")
    sub.add_argument("--family", help="named example family")
    sub.add_argument("--params", help="family parameters as k=v,k=v")
    sub.add_argument("--delta", type=float, help="cloud resolution")
    sub.add_argument("--grid", type=int, default=64, help="theta grid size")
    sub.add_argument("--tol", type=float,
                     help="comparison tolerance (default 0.07); for dimension, the enclosure width")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="seed for oracle spot checks")
    if cloud_arg:
        sub.add_argument("--cloud", required=True, help="point-cloud binary file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsdim",
        description="dimension theory of infinitely generated conformal IFS limit sets",
    )
    parser.add_argument("--version", action="version", version=f"ifsdim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("build", help="validate a system and write its point cloud"))
    _add_common(subs.add_parser("dimension", help="Hausdorff dimension with certified enclosure"))
    p = subs.add_parser("spectrum-formula", help="closed-form spectrum as CSV (and SVG)")
    _add_common(p)
    p.add_argument("--svg", action="store_true", help="also write an SVG rendering")
    _add_common(subs.add_parser("spectrum-estimate", help="covering-count spectrum of a cloud"), cloud_arg=True)
    _add_common(subs.add_parser("compare", help="formula vs bounds vs estimate, with artifacts"))
    _add_common(subs.add_parser("report", help="overlay of the three tail regimes"))
    return parser


_COMMANDS = {
    "build": _cmd_build,
    "dimension": _cmd_dimension,
    "spectrum-formula": _cmd_spectrum_formula,
    "spectrum-estimate": _cmd_spectrum_estimate,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
