"""Named example families wiring systems to their closed-form spectra.

Each family bundles what the comparison pipeline needs: a system, the
closed-form limit-set spectrum (where one exists), and a sensible
default resolution.  The fixed-point spectrum is not stored here: it is
read from the system (``CifsSpec.fixed_point_spectrum``, answered by its
tail rule), so a family and a spec document for the same system get the
same bounds.  Each system is built from a spec document by
``spec_from_dict``, the constructor a spec file goes through.
``complex-cf`` has no system yet and reads the complex
continued-fraction tail's spectrum directly.  The command line reads a
spec file into the same record: ``Family(None, spec, None)``, with no
name and no closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .cifs import CifsSpec  # the type of Family.spec
from .errors import ConfigurationError
from .jsonio import spec_from_dict
from .pressure import hausdorff_dimension
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
from .tails import ComplexGaussTail


@dataclass(frozen=True)
class Family:
    name: str | None  # None for a system read from a spec file
    spec: CifsSpec | None
    formula: Callable[[float, float], float] | None  # (h, theta) -> value
    h_known: float | None = None
    default_delta: float = 1e-6
    cloud_kind: str = "limit_set"

    @property
    def fixed_point_spectrum(self) -> SpectrumLike:
        """The spectrum of the system's fixed points; complex-cf has no system yet."""
        return ComplexGaussTail().fixed_point_spectrum if self.spec is None else self.spec.fixed_point_spectrum

    def dimension_enclosure(self) -> tuple[float, float]:
        if self.h_known is not None:
            return (self.h_known, self.h_known)
        if self.spec is None:
            raise ConfigurationError(f"family {self.name} has no system to measure")
        return hausdorff_dimension(self.spec).enclosure


def _get(params: dict, key: str, default=None) -> float:
    if key not in params and default is None:
        raise ConfigurationError(f"family parameter {key!r} is required")
    value = params.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"family parameter {key!r} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"family parameter {key!r} must be finite, got {value!r}")
    return number


def make_family(name: str, params: dict | None = None) -> Family:
    params = dict(params or {})
    if name == "sharp":
        p = _get(params, "p", 1.8)
        t = _get(params, "t", 2.8)
        h = _get(params, "h", 0.5)
        return Family(name, spec_from_dict({"kind": "polynomial_tail", "p": p, "t": t, "h": h}),
                      partial(sharp_family_spectrum, p, t), h_known=h, default_delta=1e-7)
    if name == "fp":
        p = _get(params, "p", 1.0)
        t = max(p + 2.0, 3.0)
        h_aux = 0.5 * (1.0 / t + 1.0)
        return Family(
            name,
            spec_from_dict({"kind": "polynomial_tail", "p": p, "t": t, "h": h_aux}),
            lambda hh, th: fp_spectrum(p, th),
            h_known=1.0 / (1.0 + p),  # box dimension of the sequence itself
            cloud_kind="fixed_points",
        )
    if name == "ctd-spaced":
        p = _get(params, "p", 1.8)
        spec = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "spaced", "p": p}})
        return Family(name, spec, partial(ctd_spaced_spectrum, p), default_delta=1e-7)
    if name == "ctd-clustered":
        alpha = _get(params, "alpha", 0.5)
        spec = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": alpha}})
        return Family(name, spec, partial(ctd_clustered_spectrum, alpha), default_delta=1e-7)
    if name == "dense-cf":
        spec = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "full", "start": 2}})
        return Family(name, spec, dense_cf_spectrum, default_delta=1e-4)
    if name == "complex-cf":
        h = _get(params, "h", 1.8558)
        return Family(name, None, complex_cf_spectrum, h_known=h)
    if name in ("parabolic", "backwards-cf"):
        # integral digits, as a renyi_parabolic document takes them; the
        # induced system needs the parabolic digit 2 and at least one other
        digits = params.get("digits", (2, 3))
        spec = spec_from_dict({"kind": "renyi_parabolic",
                               "digits": list(digits) if isinstance(digits, (list, tuple)) else [digits]})
        if spec.tail is None:
            raise ConfigurationError(f"family {name} needs the parabolic digit 2, got digits {digits!r}")
        return Family(name, spec, backwards_cf_spectrum, default_delta=1e-6)
    raise ConfigurationError(
        f"unknown family {name!r}; expected sharp|fp|ctd-spaced|ctd-clustered|dense-cf|complex-cf|parabolic|backwards-cf"
    )
