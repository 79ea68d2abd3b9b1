"""Named example families wiring systems to their closed-form spectra.

Each family bundles what the comparison pipeline needs: a system
builder, the fixed-point spectrum, the closed-form limit-set spectrum
(where one exists), and a sensible default resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cifs import CifsSpec, renyi_parabolic_spec
from .errors import ConfigurationError
from .pressure import build_sharp_family, hausdorff_dimension
from .spectra import (
    SpectrumLike,
    backwards_cf_spectrum,
    complex_cf_spectrum,
    ctd_clustered_spectrum,
    ctd_spaced_spectrum,
    dense_cf_spectrum,
    float_or_array,
    fp_spectrum,
    sharp_family_spectrum,
)
from .tails import ClusteredDigits, FullDigits, GaussDigitTail, SpacedDigits


@dataclass(frozen=True)
class Family:
    name: str
    spec: CifsSpec | None
    fixed_point_spectrum: SpectrumLike  # takes and returns arrays of theta
    ubox_p: float
    formula: Callable[[float, float], float] | None  # (h, theta) -> value
    h_known: float | None = None
    default_delta: float = 1e-6
    cloud_kind: str = "limit_set"

    def dimension_enclosure(self, tol: float | None = None) -> tuple[float, float]:
        if self.h_known is not None:
            return (self.h_known, self.h_known)
        if self.spec is None:
            raise ConfigurationError(f"family {self.name} has no system to measure")
        return hausdorff_dimension(self.spec, tol).enclosure


def _get(params: dict, key: str, default=None) -> float:
    if key in params:
        return float(params[key])
    if default is None:
        raise ConfigurationError(f"family parameter {key!r} is required")
    return float(default)


def make_family(name: str, params: dict | None = None) -> Family:
    params = dict(params or {})
    if name == "sharp":
        p = _get(params, "p", 1.8)
        t = _get(params, "t", 2.8)
        h = _get(params, "h", 0.5)
        return Family(
            name,
            build_sharp_family(p, t, h),
            lambda th: fp_spectrum(p, th),
            1.0 / (1.0 + p),
            lambda hh, th: sharp_family_spectrum(p, t, hh, th),
            h_known=h,
            default_delta=1e-7,
        )
    if name == "fp":
        p = _get(params, "p", 1.0)
        t = max(p + 2.0, 3.0)
        h_aux = 0.5 * (1.0 / t + 1.0)
        return Family(
            name,
            build_sharp_family(p, t, h_aux),
            lambda th: fp_spectrum(p, th),
            1.0 / (1.0 + p),
            lambda hh, th: fp_spectrum(p, th),
            h_known=1.0 / (1.0 + p),  # box dimension of the sequence itself
            cloud_kind="fixed_points",
        )
    if name == "ctd-spaced":
        p = _get(params, "p", 1.8)
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(SpacedDigits(p)), meta={"family": name, "p": p})

        def spaced_formula(hh: float, th: float) -> float:
            return ctd_spaced_spectrum(p, hh, th)

        return Family(name, spec, lambda th: fp_spectrum(p, th), 1.0 / (1.0 + p), spaced_formula,
                      default_delta=1e-7)
    if name == "ctd-clustered":
        alpha = _get(params, "alpha", 0.5)
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(ClusteredDigits(alpha)),
                        meta={"family": name, "alpha": alpha})

        def clustered_p(th):
            th = np.asarray(th, dtype=float)
            with np.errstate(divide="ignore"):
                return float_or_array(np.where(th < 1.0, np.minimum(alpha / (2.0 * (1.0 - th)), 1.0), 1.0))

        return Family(name, spec, clustered_p, alpha / 2.0,
                      lambda hh, th: ctd_clustered_spectrum(alpha, hh, th), default_delta=1e-7)
    if name == "dense-cf":
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(FullDigits(2)), meta={"family": name})
        return Family(name, spec, lambda th: fp_spectrum(1.0, th), 0.5,
                      lambda hh, th: dense_cf_spectrum(hh, th), default_delta=1e-4)
    if name == "complex-cf":
        h = _get(params, "h", 1.8558)

        def complex_p(th):
            th = np.asarray(th, dtype=float)
            with np.errstate(divide="ignore"):
                return float_or_array(np.where(th < 1.0, np.minimum(1.0 / (1.0 - th), 2.0), 2.0))

        return Family(name, None, complex_p, 1.0,
                      lambda hh, th: complex_cf_spectrum(hh, th), h_known=h)
    if name in ("parabolic", "backwards-cf"):
        digits = params.get("digits", (2, 3))
        digits = [int(b) for b in (digits if hasattr(digits, "__iter__") else (digits,))]
        spec = renyi_parabolic_spec(digits)
        q = 1.0
        return Family(name, spec, lambda th: fp_spectrum(1.0 / q, th), q / (1.0 + q),
                      lambda hh, th: backwards_cf_spectrum(hh, th), default_delta=1e-6)
    raise ConfigurationError(
        f"unknown family {name!r}; expected sharp|fp|ctd-spaced|ctd-clustered|dense-cf|complex-cf|parabolic|backwards-cf"
    )
