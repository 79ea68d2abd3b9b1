"""Named example families wiring systems to their closed-form spectra.

Each family bundles what the comparison pipeline needs: a system, the
closed-form limit-set spectrum (where one exists), and a sensible
default resolution.  The fixed-point spectrum is not stored here: it is
read from the system (``CifsSpec.fixed_point_spectrum``, answered by its
tail rule), so a family and a spec document for the same system get the
same bounds.  ``complex-cf`` has no system yet and reads the complex
continued-fraction tail's spectrum directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cifs import CifsSpec
from .errors import ConfigurationError
from .jsonio import spec_from_dict
from .pressure import build_sharp_family, hausdorff_dimension
from .spectra import (
    SpectrumLike,
    backwards_cf_spectrum,
    complex_cf_spectrum,
    ctd_clustered_spectrum,
    ctd_spaced_spectrum,
    dense_cf_spectrum,
    fp_spectrum,
    sharp_family_spectrum,
)
from .tails import ClusteredDigits, ComplexGaussTail, FullDigits, GaussDigitTail, SpacedDigits


@dataclass(frozen=True)
class Family:
    name: str
    spec: CifsSpec | None
    formula: Callable[[float, float], float] | None  # (h, theta) -> value
    h_known: float | None = None
    default_delta: float = 1e-6
    cloud_kind: str = "limit_set"

    @property
    def fixed_point_spectrum(self) -> SpectrumLike:
        """The spectrum of the system's fixed points; complex-cf has no system yet."""
        return ComplexGaussTail().fixed_point_spectrum if self.spec is None else self.spec.fixed_point_spectrum

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
        return Family(name, build_sharp_family(p, t, h), lambda hh, th: sharp_family_spectrum(p, t, hh, th),
                      h_known=h, default_delta=1e-7)
    if name == "fp":
        p = _get(params, "p", 1.0)
        t = max(p + 2.0, 3.0)
        h_aux = 0.5 * (1.0 / t + 1.0)
        return Family(
            name,
            build_sharp_family(p, t, h_aux),
            lambda hh, th: fp_spectrum(p, th),
            h_known=1.0 / (1.0 + p),  # box dimension of the sequence itself
            cloud_kind="fixed_points",
        )
    if name == "ctd-spaced":
        p = _get(params, "p", 1.8)
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(SpacedDigits(p)), meta={"family": name, "p": p})

        def spaced_formula(hh: float, th: float) -> float:
            return ctd_spaced_spectrum(p, hh, th)

        return Family(name, spec, spaced_formula, default_delta=1e-7)
    if name == "ctd-clustered":
        alpha = _get(params, "alpha", 0.5)
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(ClusteredDigits(alpha)),
                        meta={"family": name, "alpha": alpha})
        return Family(name, spec, lambda hh, th: ctd_clustered_spectrum(alpha, hh, th), default_delta=1e-7)
    if name == "dense-cf":
        spec = CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(FullDigits(2)), meta={"family": name})
        return Family(name, spec, lambda hh, th: dense_cf_spectrum(hh, th), default_delta=1e-4)
    if name == "complex-cf":
        h = _get(params, "h", 1.8558)
        return Family(name, None, lambda hh, th: complex_cf_spectrum(hh, th), h_known=h)
    if name in ("parabolic", "backwards-cf"):
        # integral digits, as a renyi_parabolic document takes them; the
        # induced system needs the parabolic digit 2 and at least one other
        digits = params.get("digits", (2, 3))
        spec = spec_from_dict({"kind": "renyi_parabolic",
                               "digits": list(digits) if isinstance(digits, (list, tuple)) else [digits]})
        if spec.tail is None:
            raise ConfigurationError(f"family {name} needs the parabolic digit 2, got digits {digits!r}")
        return Family(name, spec, lambda hh, th: backwards_cf_spectrum(hh, th), default_delta=1e-6)
    raise ConfigurationError(
        f"unknown family {name!r}; expected sharp|fp|ctd-spaced|ctd-clustered|dense-cf|complex-cf|parabolic|backwards-cf"
    )
