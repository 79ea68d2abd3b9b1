"""Command-line interface and the build/measure/compare pipeline.

Subcommands: build, dimension, spectrum-formula, spectrum-estimate,
compare, report.  Each takes only the options its handler reads
(``_SUBCOMMANDS``); any other option exits 2 from argparse.  Exit codes
follow the CI contract: 0 on success, 1 when a comparison fails its
tolerance, 2 on configuration errors.  The ``compare`` gate tolerance
(``GATE_TOL``) and the theta range of ``compare`` and
``spectrum-estimate`` (``THETA_RANGE``) are fixed.  All file writes are
atomic (write to a temporary name, then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cifs import require_inside, validate_cifs
from .cloud import PointCloud, WriteBehind, atomic_write, build_fixed_point_cloud, build_limit_cloud
from .errors import ConfigurationError, DomainError
from .estimator import (
    EstimateReport,
    assouad_dimension_estimate,
    assouad_spectrum_estimate,
    box_dimension_estimate,
    cover_count_1d,
    cover_count_2d,
)
from .families import Family, _get, make_family
from .jsonio import load_spec
from .pressure import finiteness_parameter, hausdorff_dimension
from .spectra import (
    SpectrumCurve,
    curve_from_formula,
    default_theta_grid,
    lower_bound_curve,
    phase_transition,
    sharp_family_spectrum,
    slope_discontinuities,
    upper_envelope,
)
from .svgplot import emit_svg

#: the spot check recounts at most this many estimate nodes, and at most
#: this many cover intervals (or squares) over all of them: a scalar
#: recount costs about 1.3 us per interval, and one low-theta node of a
#: 254k-point cloud records 80k
_SPOT_NODES = 4
_SPOT_BUDGET = 8192

#: the theta nodes of compare and spectrum-estimate span this range
THETA_RANGE = (0.05, 0.9)

#: compare passes a node whose estimate lies within this of the bound
#: envelope and, where there is one, of the closed form
GATE_TOL = 0.07

#: the nodes of report's default_theta_grid
_REPORT_GRID = 256


@dataclass
class RunConfig:
    spec_path: str | None = None
    family: str | None = None
    params: dict = field(default_factory=dict)
    delta: float | None = None
    grid: int = 64
    out_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ConfigurationError(f"--delta must be positive and finite, got {self.delta}")
        if self.grid < 2:
            raise ConfigurationError("--grid needs at least 2 nodes")


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


def _parse_params(text: str | None) -> dict:
    """k=v,k=v as numbers or strings; an item without '=' continues the
    previous key's value as a list, so digits=2,3 gives [2.0, 3.0]."""
    values: dict[str, list] = {}
    key = None
    for item in (text or "").split(","):
        if not item:
            continue
        if "=" in item:
            key, item = item.split("=", 1)
            key = key.strip()
            values[key] = []
        elif key is None:
            raise ConfigurationError(f"malformed --params entry {item!r}; expected key=value")
        try:
            values[key].append(float(item))
        except ValueError:
            values[key].append(item.strip())
    return {k: v[0] if len(v) == 1 else v for k, v in values.items()}


def _resolve_system(config: RunConfig) -> Family:
    """The family named by --family, else the system in the --spec file
    as a family without a name or a closed form."""
    if config.family is not None:
        return make_family(config.family, config.params)
    if config.spec_path is None:
        raise ConfigurationError("either --spec or --family is required")
    if not Path(config.spec_path).exists():
        raise ConfigurationError(f"spec file {config.spec_path} does not exist")
    return Family(None, load_spec(config.spec_path), None)


def _build_cloud(family: Family, delta: float | None) -> PointCloud:
    """The family's kind of cloud at delta, or at its default delta."""
    if delta is None:
        delta = family.default_delta
    if family.cloud_kind == "fixed_points":
        return build_fixed_point_cloud(family.spec, delta)
    return build_limit_cloud(family.spec, delta)


def _curves_csv(curves: dict[str, SpectrumCurve]) -> str:
    names = list(curves)
    grid = curves[names[0]].thetas
    lines = ["theta," + ",".join(names)]
    for i, theta in enumerate(grid):
        row = [f"{theta:.10g}"] + [f"{curves[n].values[i]:.10g}" for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _oracle_spot_check(cloud: PointCloud, report: EstimateReport, seed: int) -> bool:
    """Recount every scale of up to _SPOT_NODES estimate nodes with the scalar
    cover count; true when each recount equals the recorded count.  The nodes
    are taken in an order drawn from seed, skipping any whose counts would
    take the total past _SPOT_BUDGET."""
    # the standard library's generator is loaded already; importing
    # numpy.random here would raise the run's peak memory
    order = list(range(len(report.diagnostics)))
    random.Random(seed).shuffle(order)
    budget, picked = _SPOT_BUDGET, []
    for k in order:
        scales = report.diagnostics[k].scales
        cost = sum(s.count for s in scales)
        if scales and cost <= budget and len(picked) < _SPOT_NODES:
            picked.append(scales)
            budget -= cost
    count = cover_count_2d if cloud.ambient_dim == 2 else cover_count_1d
    return all(count(cloud, s.center, s.R, s.r) == s.count for scales in picked for s in scales)


class _Stage:
    """Prefixes any failure with the pipeline stage that raised it."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, (ConfigurationError, DomainError)):
            # the base class: a subclass such as CloudSizeError takes other arguments
            kind = DomainError if isinstance(exc, DomainError) else ConfigurationError
            raise kind(f"[stage {self.name}] {exc}") from exc
        return False


def run_pipeline(config: RunConfig) -> tuple[ComparisonTable, dict]:
    """Build the cloud, evaluate formulas and bounds, estimate, compare.

    Writes cloud.bin, cloud.csv, curves.csv, overlay.svg and summary.json
    into the output directory and returns the comparison table plus the
    summary.  A large cloud's cloud.csv is formatted by a forked child
    into an unnamed temporary file while the estimate runs, and copied
    into place with the other files (cloud.WriteBehind); until then the
    run has named no file, so a run killed before it leaves nothing.
    """
    config.validate()

    with _Stage("configuration"):
        family = _resolve_system(config)
        spec = family.spec
        thetas = np.linspace(*THETA_RANGE, config.grid)
        if spec is None:
            raise ConfigurationError(f"family {family.name!r} has no buildable system; use spectrum-formula")

    with _Stage("dimension"):
        h_lo, h_hi = family.dimension_enclosure()
        h_mid = 0.5 * (h_lo + h_hi)

    with _Stage("build"):
        cloud = _build_cloud(family, config.delta)
    out = Path(config.out_dir)
    with WriteBehind(out / "cloud.csv", cloud.csv_blocks, len(cloud)) as cloud_csv:
        with _Stage("estimate"):
            report = assouad_spectrum_estimate(cloud, thetas)
        estimate = report.curve

        # the paper's sandwich from h and the fixed points' spectrum, whose
        # theta -> 0 end is their upper box dimension
        spectrum_p = spec.fixed_point_spectrum
        lower = lower_bound_curve(thetas, spectrum_p, h_lo)
        upper = upper_envelope(thetas, spectrum_p, max(h_hi, spectrum_p(0.0)))

        formula = None
        if family.formula is not None:
            try:
                formula = curve_from_formula(lambda th: family.formula(h_mid, th), thetas)
            except DomainError:
                formula = None  # measured dimension outside the formula's domain

        rows = []
        devs = []
        for i, theta in enumerate(thetas):
            est = float(estimate.values[i])
            f_val = float(formula.values[i]) if formula is not None else float("nan")
            sandwich = lower.values[i] - GATE_TOL <= est <= upper.values[i] + GATE_TOL
            dev_ok = True
            if formula is not None and np.isfinite(est):
                devs.append(abs(est - f_val))
                dev_ok = abs(est - f_val) <= GATE_TOL
            rows.append(ComparisonRow(float(theta), float(lower.values[i]), float(upper.values[i]),
                                      f_val, est, bool(sandwich and dev_ok)))
        max_dev = float(max(devs)) if devs else float("nan")

        transitions = [phase_transition(estimate).theta]
        if formula is not None:
            transitions.append(phase_transition(formula).theta)
        table = ComparisonTable(tuple(rows), max_dev, tuple(transitions), all(r.passed for r in rows))

        out.mkdir(parents=True, exist_ok=True)
        # summary.json is written last: an earlier run's must not stand
        # beside this run's files if this run stops before it
        (out / "summary.json").unlink(missing_ok=True)
        cloud.save(out / "cloud.bin")
        cloud_csv.publish()
    curves = {"lower": lower, "upper": upper, "estimate": estimate}
    if formula is not None:
        curves = {"formula": formula, **curves}
    atomic_write(out / "curves.csv", _curves_csv(curves))
    for name, curve in curves.items():
        curve.metadata["label"] = name
    svg = emit_svg(list(curves.values()), value_max=float(spec.ambient_dim))
    atomic_write(out / "overlay.svg", svg)

    summary = {
        "version": __version__,
        "family": family.name,
        "spec_digest": spec.digest(),
        "delta": cloud.delta,
        "cloud_points": len(cloud),
        "cloud_complete": bool(cloud.complete),
        "dimension": {"value": h_mid, "enclosure": [h_lo, h_hi]},
        "finiteness_parameter": finiteness_parameter(spec),
        "theta_grid": [float(t) for t in thetas],
        "max_deviation": None if not devs else max_dev,
        "phase_transitions": [float(t) for t in transitions],
        "tolerance": GATE_TOL,
        "oracle_check": _oracle_spot_check(cloud, report, config.seed),
        "passed": table.all_passed,
    }
    atomic_write(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return table, summary


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    config = _config_from(args)
    config.validate()
    family = _resolve_system(config)
    if family.spec is None:
        raise ConfigurationError("this family has no buildable system")
    report = validate_cifs(family.spec)
    print(report)
    # a pole or an image outside the seed domain is a configuration error,
    # as in dimension and compare; the other axiom failures exit 1
    require_inside(family.spec, family.spec.first_maps())
    if not report.ok:
        return 1
    cloud = _build_cloud(family, config.delta)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud.save(out / "cloud.bin")
    atomic_write(out / "cloud.csv", cloud.csv_blocks())
    print(f"cloud: {len(cloud)} points at delta={cloud.delta:g} -> {out / 'cloud.bin'}")
    return 0


def _cmd_dimension(args) -> int:
    spec = _resolve_system(_config_from(args)).spec
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
    h_lo, h_hi = family.dimension_enclosure()
    h = 0.5 * (h_lo + h_hi)
    thetas = default_theta_grid(config.grid)
    curve = curve_from_formula(lambda th: family.formula(h, th), thetas)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / f"{config.family}-formula.csv", _curves_csv({"value": curve}))
    if args.svg:
        curve.metadata["label"] = config.family
        atomic_write(out / f"{config.family}-formula.svg", emit_svg([curve]))
    kinks = slope_discontinuities(curve)
    print(f"h = {h:.6g}; phase transition rho = {phase_transition(curve).theta:.6g}; kinks at {kinks}")
    print(f"wrote {out / (config.family + '-formula.csv')}")
    return 0


def _cmd_spectrum_estimate(args) -> int:
    config = _config_from(args)
    config.validate()
    cloud = PointCloud.load(args.cloud)
    thetas = np.linspace(*THETA_RANGE, config.grid)
    report = assouad_spectrum_estimate(cloud, thetas)
    box = box_dimension_estimate(cloud)
    assouad = assouad_dimension_estimate(cloud)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "estimate.csv", _curves_csv({"value": report.curve}))
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
    p = _get(config.params, "p", 1.8)
    h = _get(config.params, "h", 0.5)
    thetas = default_theta_grid(_REPORT_GRID)

    def labelled(t: float) -> SpectrumCurve:
        curve = curve_from_formula(lambda th: sharp_family_spectrum(p, t, h, th), thetas)
        curve.metadata["label"] = f"t={t:g}"
        return curve

    # the t = p + 1 curve, evaluated first, rejects h outside (1/(1+p), 1)
    # before 1/h is taken
    curves = [labelled(p + 1.0), labelled(2.0 * p), labelled(p + 1.0 / h)]
    labels = [c.metadata["label"] for c in curves]
    for curve, form, label in zip(curves, ("p+1", "2p", "p+1/h"), labels):
        # curves of one t, such as t = p+1 and t = 2p at p = 1, name their form
        if labels.count(label) > 1:
            curve.metadata["label"] = label.replace("t=", f"t={form}=")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    named = {c.metadata["label"]: c for c in curves}
    atomic_write(out / "report-curves.csv", _curves_csv(named))
    atomic_write(out / "report.svg", emit_svg(curves))
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
        out_dir=getattr(args, "out", "out"),
        seed=getattr(args, "seed", 0),
    )


#: each option's argparse settings
_OPTIONS = {
    "--spec": dict(help="path to a JSON system description"),
    "--family": dict(help="named example family"),
    "--params": dict(help="family parameters as k=v,k=v"),
    "--delta": dict(type=float, help="cloud resolution"),
    "--grid": dict(type=int, default=64, help="theta grid size"),
    "--tol": dict(type=float, help="enclosure width that counts as converged "
                                   "(default 1e-9 for similarity systems, 1e-4 otherwise)"),
    "--out": dict(default="out", help="output directory"),
    "--seed": dict(type=int, default=0, help="seed choosing the estimate nodes the spot check recounts"),
    "--cloud": dict(required=True, help="point-cloud binary file"),
    "--svg": dict(action="store_true", help="also write an SVG rendering"),
}

#: subcommand -> (handler, help, the options the handler reads)
_SUBCOMMANDS = {
    "build": (_cmd_build, "validate a system and write its point cloud",
              ("--spec", "--family", "--params", "--delta", "--out")),
    "dimension": (_cmd_dimension, "Hausdorff dimension with certified enclosure",
                  ("--spec", "--family", "--params", "--tol")),
    "spectrum-formula": (_cmd_spectrum_formula, "closed-form spectrum as CSV (and SVG)",
                         ("--family", "--params", "--grid", "--out", "--svg")),
    "spectrum-estimate": (_cmd_spectrum_estimate, "covering-count spectrum of a cloud",
                          ("--cloud", "--grid", "--out")),
    "compare": (_cmd_compare, "formula vs bounds vs estimate, with artifacts",
                ("--spec", "--family", "--params", "--delta", "--grid", "--out", "--seed")),
    "report": (_cmd_report, "overlay of the three tail regimes", ("--params", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifsdim",
        description="dimension theory of infinitely generated conformal IFS limit sets",
    )
    parser.add_argument("--version", action="version", version=f"ifsdim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _SUBCOMMANDS[args.command][0](args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
