"""Closed-form Assouad spectra, bound envelopes and their diagnostics.

Every formula here is elementary arithmetic in the scale parameter
theta.  Curves are sampled on a strictly increasing grid inside (0,1);
the quasi-Assouad value of a sampled curve is read from its last node,
and the phase transition is the first theta at which the curve reaches
that value.

The bounds take the fixed-point spectrum as a SpectrumLike: a callable
that receives a numpy array of phi (of any shape) and returns an array
of the same shape; a scalar return broadcasts.  The envelope is then one
array pass over the whole (theta, phi) grid.  ``compare`` passes
``CifsSpec.fixed_point_spectrum``, and the spectrum at theta = 0, the
upper box dimension of the fixed points, enters the envelope's box term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_GRID = 1024
GRID_CLIP = 1e-3

#: maximisation of the envelope integrand over phi: coarse grid then
#: golden-section polish; the polish tolerance is tight enough that a
#: kink maximiser costs less than 1e-12 in value
PHI_GRID = 512
PHI_TOL = 1e-12

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def default_theta_grid(n: int = DEFAULT_GRID) -> np.ndarray:
    """Uniform grid of n nodes on [GRID_CLIP, 1 - GRID_CLIP]."""
    if n < 2:
        raise DomainError("theta grid needs at least two nodes")
    return np.linspace(GRID_CLIP, 1.0 - GRID_CLIP, n)


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled map theta -> dimension value with provenance."""

    thetas: np.ndarray
    values: np.ndarray
    provenance: str  # formula | lower_bound | upper_bound | estimate
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if th.shape != vals.shape or th.ndim != 1:
            raise DomainError("curve grid and values must be 1-D arrays of equal length")
        if np.any(np.diff(th) <= 0):
            raise DomainError("theta grid must be strictly increasing")
        if th[0] <= 0.0 or th[-1] >= 1.0:
            raise DomainError("theta grid must lie inside (0, 1)")
        finite = vals[np.isfinite(vals)]
        if self.provenance == "formula" and np.any(np.diff(finite) < -1e-12):
            raise DomainError("a closed-form spectrum must be non-decreasing")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", vals)

    def value_at(self, theta: float) -> float:
        return float(np.interp(theta, self.thetas, self.values))

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


@dataclass(frozen=True)
class ThreeParamForm:
    """Spectrum determined by box dimension, quasi-Assouad dimension and rho."""

    ubox: float
    qa: float
    rho: float

    def __post_init__(self):
        if self.ubox > self.qa + 1e-12:
            raise DomainError("box dimension cannot exceed the quasi-Assouad dimension")
        if self.qa > 0 and not (1.0 - self.ubox / self.qa - 1e-9 <= self.rho <= 1.0 + 1e-12):
            raise DomainError(f"phase transition {self.rho} outside [1 - ubox/qa, 1]")


@dataclass(frozen=True)
class BoundEnvelope:
    lower: SpectrumCurve
    upper: SpectrumCurve

    def __post_init__(self):
        if not np.array_equal(self.lower.thetas, self.upper.thetas):
            raise DomainError("envelope curves must share a grid")
        if np.any(self.lower.values > self.upper.values + 1e-9):
            raise DomainError("lower envelope exceeds upper envelope")


SpectrumLike = Callable[[np.ndarray], "np.ndarray | float"]


def float_or_array(vals: np.ndarray) -> "float | np.ndarray":
    """A 0-d result as a Python float, any other as the array itself."""
    return float(vals) if vals.ndim == 0 else vals


def _unit_thetas(theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if not (0.0 <= th.min(initial=0.0) and th.max(initial=1.0) <= 1.0):  # a NaN fails both
        raise DomainError(f"theta must be in [0,1], got {th[~((0.0 <= th) & (th <= 1.0))].flat[0]}")
    return th


def _spectrum_eval(spectrum_p: SpectrumLike, phi: np.ndarray) -> np.ndarray:
    """The spectrum at every entry of phi, as an array of phi's shape."""
    return np.broadcast_to(np.asarray(spectrum_p(phi), dtype=float), np.shape(phi))


# ---------------------------------------------------------------------------
# the weighted-average bound and its envelope


def f_value(theta, phi, spectrum_p: SpectrumLike, ubox_f: float) -> "float | np.ndarray":
    """Weighted average of the fixed-point spectrum at phi and the box dimension.

    Interpolates the covering cost of cylinders at intermediate sizes;
    at phi = theta it returns the fixed-point spectrum, at phi = 1 the
    box dimension.  theta and phi broadcast against each other; scalars
    give a float.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    bad_theta = ~((0.0 < theta) & (theta < 1.0))
    if np.any(bad_theta):
        raise DomainError(f"theta must be in (0,1), got {theta[bad_theta].flat[0]}")
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    bad_phi = (phi_b < theta_b - 1e-15) | (phi_b > 1.0 + 1e-15)
    if np.any(bad_phi):
        raise DomainError(f"phi must lie in [theta, 1], got phi={phi_b[bad_phi].flat[0]}, "
                          f"theta={theta_b[bad_phi].flat[0]}")
    phi = np.minimum(np.maximum(phi, theta), 1.0)
    spectrum_at_phi = _spectrum_eval(spectrum_p, phi)
    inv_theta = 1.0 / theta
    inv_phi = 1.0 / phi
    vals = ((inv_phi - 1.0) * spectrum_at_phi + (inv_theta - inv_phi) * ubox_f) / (inv_theta - 1.0)
    return float_or_array(vals)


def upper_envelope(thetas: Sequence[float], spectrum_p: SpectrumLike, ubox_f: float) -> SpectrumCurve:
    """Pointwise maximum of f over phi in [theta, 1].

    For every theta at once: the best of PHI_GRID nodes on [theta, 1],
    then a golden-section polish on the two grid steps around it until
    the bracket is PHI_TOL wide.
    """
    th = np.asarray(thetas, dtype=float)
    rows = np.arange(len(th))
    phis = np.linspace(th, 1.0, PHI_GRID, axis=1)
    vals = f_value(th[:, None], phis, spectrum_p, ubox_f)
    k = np.argmax(vals, axis=1)
    best = vals[rows, k]
    a = phis[rows, np.maximum(k - 1, 0)]
    b = phis[rows, np.minimum(k + 1, PHI_GRID - 1)]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = f_value(th, c, spectrum_p, ubox_f)
    fd = f_value(th, d, spectrum_p, ubox_f)
    # one golden step per still-open bracket and round, keeping its
    # evaluation order, so every row ends where a scalar search would
    active = rows[b - a > PHI_TOL]
    while len(active):
        left = fc[active] >= fd[active]
        down, up = active[left], active[~left]  # rows whose b moves down to d / a moves up to c
        b[down], d[down], fd[down] = d[down], c[down], fc[down]
        c[down] = b[down] - _INV_GOLDEN * (b[down] - a[down])
        a[up], c[up], fc[up] = c[up], d[up], fd[up]
        d[up] = a[up] + _INV_GOLDEN * (b[up] - a[up])
        fx = f_value(th[active], np.where(left, c[active], d[active]), spectrum_p, ubox_f)
        fc[down], fd[up] = fx[left], fx[~left]
        active = active[b[active] - a[active] > PHI_TOL]
    # max(best, fc, fd) as Python takes it: a NaN best stays, a NaN challenger loses
    best = np.where(fc > best, fc, best)
    best = np.where(fd > best, fd, best)
    return SpectrumCurve(th, best, "upper_bound", {"ubox_f": ubox_f})


def lower_bound_curve(thetas: Sequence[float], spectrum_p: SpectrumLike, h: float) -> SpectrumCurve:
    """Pointwise maximum of the Hausdorff dimension and the fixed-point spectrum."""
    th = np.asarray(thetas, dtype=float)
    s = _spectrum_eval(spectrum_p, th)
    # a NaN spectrum node gives h, as max(h, nan) does
    return SpectrumCurve(th, np.where(s > h, s, h), "lower_bound", {"h": h})


def bound_envelope(thetas: Sequence[float], spectrum_p: SpectrumLike, h: float,
                   ubox_p: float) -> BoundEnvelope:
    """Sandwich bounds for a limit set with fixed-point spectrum spectrum_p."""
    ubox_f = max(h, ubox_p)
    return BoundEnvelope(
        lower_bound_curve(thetas, spectrum_p, h),
        upper_envelope(thetas, spectrum_p, ubox_f),
    )


# ---------------------------------------------------------------------------
# closed forms


def three_param_eval(form: ThreeParamForm, theta) -> "float | np.ndarray":
    """Value of the three-parameter spectrum at theta (a float or an array)."""
    th = _unit_thetas(theta)
    if form.ubox == form.qa or form.rho == 0.0:
        return float_or_array(np.full(th.shape, form.ubox if form.ubox == form.qa else form.qa))
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = (1.0 - form.rho) * th / ((1.0 - th) * form.rho) * (form.qa - form.ubox)
        vals = np.where(th >= 1.0, form.qa, np.minimum(form.ubox + rise, form.qa))
    return float_or_array(vals)


def fp_spectrum(p: float, theta) -> "float | np.ndarray":
    """Spectrum of the decreasing sequence i^(-p), at a float or an array of theta."""
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    th = _unit_thetas(theta)
    with np.errstate(divide="ignore"):  # theta = 1 gives 1/0 = inf, capped to 1
        return float_or_array(np.minimum(1.0 / ((1.0 + p) * (1.0 - th)), 1.0))


def null_spectrum(theta) -> "float | np.ndarray":
    """Spectrum of a finite set or a geometric sequence: 0 at every theta."""
    return float_or_array(np.zeros_like(_unit_thetas(theta)))


def sharp_family_spectrum(p: float, t: float, h: float, theta: float) -> float:
    """Three-case spectrum of the polynomial-offset families.

    The case is selected by the tail exponent: at t = p + 1 the upper
    bound is attained, for t >= p + 1/h the lower bound is attained,
    and in between the spectrum has two phase transitions.
    """
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    if t < p + 1.0 - 1e-12:
        raise DomainError(f"tail exponent must satisfy t >= p + 1, got {t}")
    if not (1.0 / (1.0 + p) < h < 1.0):
        raise DomainError(f"h must lie in (1/(1+p), 1) = ({1.0/(1.0+p):.4g}, 1), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0:
        return 1.0
    rho = p / (1.0 + p)
    if t >= p + 1.0 / h:
        kink = (h + h * p - 1.0) / (h * (1.0 + p))
        if theta <= kink:
            return h
        if theta < rho:
            return 1.0 / ((1.0 + p) * (1.0 - theta))
        return 1.0
    if t > p + 1.0:
        kink = (h + h * p - 1.0) * p / ((1.0 + p) * (h * t - 1.0))
        if theta <= kink:
            return h + theta / (p * (1.0 - theta)) * (1.0 - h * (t - p))
        if theta < rho:
            return 1.0 / ((1.0 + p) * (1.0 - theta))
        return 1.0
    if theta < rho:
        return h + theta / (p * (1.0 - theta)) * (1.0 - h)
    return 1.0


def ctd_spaced_spectrum(p: float, h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with digits spaced like n^p."""
    if p <= 1.0:
        raise DomainError(f"spaced digit sets need p > 1, got {p}")
    if not (1.0 / (p + 1.0) < h < 1.0 / p):
        raise DomainError(f"h must lie in (1/(p+1), 1/p) = ({1.0/(p+1.0):.4g}, {1.0/p:.4g}), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0:
        return 1.0
    rho = p / (1.0 + p)
    kink = (h + h * p - 1.0) * p / ((1.0 + p) * (2.0 * p * h - 1.0))
    if theta <= kink:
        return h + theta / (p * (1.0 - theta)) * (1.0 - h * p)
    if theta < rho:
        return 1.0 / ((1.0 + p) * (1.0 - theta))
    return 1.0


def ctd_clustered_spectrum(alpha: float, h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with digit blocks [2^k, 2^k + 2^(k alpha)]."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    if h < alpha / 2.0:
        raise DomainError(f"h must be at least the finiteness parameter alpha/2 = {alpha/2.0}, got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    rho = 1.0 - alpha / 2.0
    if theta >= rho:
        return 1.0
    return h + alpha * theta / ((1.0 - theta) * (2.0 - alpha)) * (1.0 - h)


def dense_cf_spectrum(h: float, theta: float) -> float:
    """Spectrum of continued-fraction sets with full-density digit sets."""
    if h < 0.5:
        raise DomainError(f"full-density digit sets force h >= 1/2, got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 0.5:
        return 1.0
    return h + theta / (1.0 - theta) * (1.0 - h)


def complex_cf_spectrum(h: float, theta: float) -> float:
    """Spectrum of the full complex continued-fraction set, h supplied by the caller."""
    if not (1.0 <= h <= 2.0):
        raise DomainError(f"h must lie in [1, 2], got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 0.5:
        return 2.0
    return h + theta / (1.0 - theta) * (2.0 - h)


def parabolic_spectrum(q: float, h: float, theta: float) -> float:
    """Spectrum of a parabolic attractor with tangency exponent q at its fixed point."""
    if q <= 0:
        raise DomainError(f"q must be positive, got {q}")
    if not (0.0 < h < 1.0):
        raise DomainError(f"h must be in (0,1), got {h}")
    if not (0.0 <= theta <= 1.0):
        raise DomainError(f"theta must be in [0,1], got {theta}")
    if theta >= 1.0 / (1.0 + q):
        return 1.0
    return h + q * theta / (1.0 - theta) * (1.0 - h)


def backwards_cf_spectrum(h: float, theta: float) -> float:
    """Spectrum of backwards continued-fraction sets (parabolic with q = 1)."""
    return parabolic_spectrum(1.0, h, theta)


def assouad_dimension_formula(h: float, dim_a_p: float) -> float:
    """Assouad dimension of the limit set from h and the fixed-point set."""
    return max(h, dim_a_p)


def quasi_assouad_formula(h: float, qa_p: float) -> float:
    """Quasi-Assouad dimension of the limit set from h and the fixed-point set."""
    return max(h, qa_p)


def porosity_threshold_check(value: float, ambient_dim: int) -> bool:
    """A set is porous exactly when its Assouad dimension is below the ambient one."""
    return value < ambient_dim


def curve_from_formula(fn: Callable[[float], float], thetas: Sequence[float] | None = None,
                       provenance: str = "formula", **metadata) -> SpectrumCurve:
    th = default_theta_grid() if thetas is None else np.asarray(thetas, dtype=float)
    vals = np.array([fn(t) for t in th])
    return SpectrumCurve(th, vals, provenance, dict(metadata))


# ---------------------------------------------------------------------------
# curve diagnostics


@dataclass(frozen=True)
class PhaseTransition:
    theta: float
    qa: float
    ambiguous: bool = False


def phase_transition(curve: SpectrumCurve, tol: float = 1e-9) -> PhaseTransition:
    """First theta at which the curve reaches its quasi-Assouad value.

    A non-monotone (estimated) curve is handled by taking the first
    up-crossing and flagging the result as ambiguous.
    """
    mask = curve.valid_mask()
    th = curve.thetas[mask]
    vals = curve.values[mask]
    if len(vals) == 0:
        raise DomainError("curve has no valid nodes")
    qa = float(vals[-1])
    level = qa - tol
    ambiguous = bool(np.any(np.diff(vals) < -max(tol, 1e-12)))
    if vals[0] >= level:
        return PhaseTransition(0.0, qa, ambiguous)
    k = int(np.argmax(vals >= level))
    if vals[k] < level:
        return PhaseTransition(float(th[-1]), qa, True)
    t0, t1 = th[k - 1], th[k]
    v0, v1 = vals[k - 1], vals[k]
    frac = (level - v0) / (v1 - v0) if v1 > v0 else 1.0
    return PhaseTransition(float(t0 + frac * (t1 - t0)), qa, ambiguous)


def _refine_kink(th: np.ndarray, vals: np.ndarray, k: int) -> float:
    """Pin a kink near node k+1 by intersecting quadratic fits of the flanks."""
    n = len(th)
    left = np.arange(max(k - 6, 0), k + 1)
    right = np.arange(k + 2, min(k + 9, n))
    if len(left) < 3 or len(right) < 3:
        return float(th[k + 1])
    pl = np.polyfit(th[left], vals[left], 2)
    pr = np.polyfit(th[right], vals[right], 2)
    roots = np.roots(np.asarray(pl) - np.asarray(pr))
    roots = roots[np.isreal(roots)].real
    window = (th[max(k - 1, 0)], th[min(k + 3, n - 1)])
    roots = roots[(roots >= window[0]) & (roots <= window[1])]
    if len(roots) == 0:
        return float(th[k + 1])
    return float(roots[np.argmin(np.abs(roots - th[k + 1]))])


def slope_discontinuities(curve: SpectrumCurve, min_jump: float = 0.02,
                          prominence: float = 6.0) -> list[float]:
    """Interior kinks of a piecewise-smooth sampled curve.

    Flags nodes where the one-sided slope difference exceeds min_jump
    and stands out against the local curvature baseline.
    """
    th, vals = curve.thetas, curve.values
    slopes = np.diff(vals) / np.diff(th)
    jumps = np.abs(np.diff(slopes))
    out = []
    window = 8
    for k in np.where(jumps > min_jump)[0]:
        lo = max(0, k - window)
        hi = min(len(jumps), k + window + 1)
        neigh = np.delete(jumps[lo:hi], np.arange(max(k - 1, lo), min(k + 2, hi)) - lo)
        base = np.median(neigh) if len(neigh) else 0.0
        if jumps[k] > prominence * max(base, 1e-9):
            out.append(_refine_kink(th, vals, k))
    # merge kinks closer than one grid step
    merged: list[float] = []
    step = float(np.min(np.diff(th)))
    for x in out:
        if merged and x - merged[-1] <= 1.5 * step:
            continue
        merged.append(x)
    return merged


@dataclass(frozen=True)
class ThreeParamFit:
    form: ThreeParamForm
    max_deviation: float
    ok: bool


def _max_deviation(form: ThreeParamForm, th: np.ndarray, vals: np.ndarray) -> float:
    """Largest |form - vals| over the nodes, taken as Python's max takes it:
    a NaN at the first node wins, a NaN at a later node is passed over."""
    devs = np.abs(three_param_eval(form, th) - vals)
    return float(devs[0]) if np.isnan(devs[0]) else float(np.nanmax(devs))


def fit_three_param(curve: SpectrumCurve, tol: float = 1e-3) -> ThreeParamFit:
    """Best three-parameter description of a sampled curve.

    The box dimension is extrapolated from the first two nodes, the
    quasi-Assouad value read from the last, and the phase transition
    scanned for the smallest maximum deviation.  ok is set when the
    curve follows the fitted form within tol.
    """
    th, vals = curve.thetas, curve.values
    qa = float(vals[-1])
    # linear extrapolation to theta = 0
    ubox = float(vals[0] - th[0] * (vals[1] - vals[0]) / (th[1] - th[0]))
    ubox = min(max(ubox, 0.0), qa)
    if abs(qa - ubox) < 1e-12:
        dev = float(np.max(np.abs(vals - ubox)))
        return ThreeParamFit(ThreeParamForm(ubox, qa, 1.0), dev, dev <= tol)
    rho_min = max(1.0 - ubox / qa, 1e-6)
    candidates = list(np.linspace(rho_min, 1.0 - 1e-6, 256))
    candidates.append(min(max(phase_transition(curve).theta, rho_min), 1.0 - 1e-6))
    best_rho, best_dev = candidates[0], math.inf
    for rho in candidates:
        dev = _max_deviation(ThreeParamForm(ubox, qa, rho), th, vals)
        if dev < best_dev:
            best_rho, best_dev = rho, dev
    # local refinement around the best candidate
    lo = max(best_rho - 0.01, rho_min)
    hi = min(best_rho + 0.01, 1.0 - 1e-6)
    for rho in np.linspace(lo, hi, 128):
        dev = _max_deviation(ThreeParamForm(ubox, qa, rho), th, vals)
        if dev < best_dev:
            best_rho, best_dev = rho, dev
    return ThreeParamFit(ThreeParamForm(ubox, qa, best_rho), float(best_dev), best_dev <= tol)
