"""Contraction families: specification, first level, geometry and axioms.

A :class:`CifsSpec` couples finitely many explicit branches with an
optional tail rule for the infinite part of the alphabet.  Its first
level has one form, ``first_maps``: the explicit branches and whole
tail generations from the tail's ``generation_arrays``, stacked into
one Moebius batch.  Words and cylinders are compositions of its rows;
a branch is named by its label if it is explicit, and by the tail
generation that owns it otherwise.  ``fixed_point_spectrum`` is the
Assouad spectrum of the set P of fixed points, which the paper's bounds
read together with h: the tail answers it from its own parameters, and
a finite alphabet has 0, since P is finite.

This module also owns the array geometry, ``geometry(domain, window)``:
how a batch of maps moves the seed interval or disc.  It answers the
cloud builder (image regions, diameters, window tests, cells) and the
axiom checks (poles, derivative ranges, containment, overlaps,
separation), each with the rules of the region functions in
``mobius``.

Validation checks, on the first-level batch, the axioms a family must
satisfy to generate a limit set with well-defined dimension theory:
branches map the seed domain into itself, contraction ratios are
uniformly below one, open images are pairwise disjoint (neighbours
after a sort by lower end on the line, every pair in the plane), and
(as a separate, stronger flag) images of a fattened neighbourhood are
pairwise disjoint as well.  A branch with a pole on the seed domain
fails containment and contraction.  A failing branch is named as
above, e.g. ``tail generation 3``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .arrays import chunks, ranges
from .errors import ConfigurationError
from .maps import MapKind, RenyiBranch, Similarity
from .mobius import (
    Disc,
    Interval,
    Mobius,
    concat_mobius,
    deriv_ranges_disc,
    deriv_ranges_interval,
    disc_images,
    disc_poles,
    interval_images,
    interval_poles,
    stack_mobius,
    take_mobius,
)
from .spectra import null_spectrum
from .tails import InducedParabolicTail, Label, SimilarityTail, TailRule

Region = Union[Interval, Disc]

#: how many leading tail branches participate in sampled axiom checks
TAIL_SAMPLE = 256

#: fattening margin used for the stronger separation flag, as a fraction
#: of the seed-domain size
SEPARATION_MARGIN = 0.125

#: disc pairs tested at once by the planar overlap check
_PAIR_BLOCK = 1 << 20


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AxiomCheck, ...]
    contraction_bound: float
    separation: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in self.checks]
        lines.append(f"      contraction bound xi = {self.contraction_bound:.6g}")
        lines.append(f"      strong separation: {'yes' if self.separation else 'no'}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class CifsSpec:
    """Declarative description of a (possibly infinite) contraction family.

    Instances compare by identity so they can key the per-system caches
    of derivative tables used by the pressure evaluator.
    """

    ambient_dim: int
    domain: Region
    explicit: tuple[tuple[Label, MapKind], ...]
    tail: TailRule | None = None
    anchor: complex | float | None = None

    def __post_init__(self):
        if self.ambient_dim not in (1, 2):
            raise ConfigurationError("ambient dimension must be 1 or 2")
        if self.anchor is None:
            if self.ambient_dim == 1:
                object.__setattr__(self, "anchor", float(self.domain[0]))
            else:
                object.__setattr__(self, "anchor", self.domain.center)

    # -- alphabet ------------------------------------------------------

    def first_maps(self, sample: int = TAIL_SAMPLE) -> Mobius:
        """The explicit branches stacked, then whole tail generations from the
        tail's generation_arrays until sample tail maps are reached, as one
        Moebius batch."""
        return self._first_level(sample)[0]

    def _first_level(self, sample: int) -> tuple[Mobius, np.ndarray]:
        """first_maps(sample), and the tail generation that owns each of its
        tail maps, which follow the explicit branches."""
        maps = stack_mobius([m.mobius() for _, m in self.explicit], self.ambient_dim == 2)
        if self.tail is None or sample <= 0:
            return maps, np.empty(0, np.int64)
        n = 8
        while True:
            owner, tail = self.tail.generation_arrays(np.arange(n))
            if len(owner) >= sample:
                # the generation holding the sample-th map is the last one taken
                keep = owner <= owner[sample - 1]
                return concat_mobius([maps, take_mobius(tail, keep)]), owner[keep]
            n *= 2

    def fixed_point_spectrum(self, theta):
        """Assouad spectrum of the set of fixed points, at a float or an array
        of theta: the tail's, or 0 for a finite alphabet, whose fixed points
        are finitely many."""
        return null_spectrum(theta) if self.tail is None else self.tail.fixed_point_spectrum(theta)

    def is_similarity(self) -> bool:
        """A line family of similarities only, tail included."""
        return (
            self.ambient_dim == 1
            and all(isinstance(m, Similarity) for _, m in self.explicit)
            and (self.tail is None or isinstance(self.tail, SimilarityTail))
        )

    # -- geometry ------------------------------------------------------

    def domain_diameter(self) -> float:
        if self.ambient_dim == 1:
            return float(self.domain[1] - self.domain[0])
        return 2.0 * self.domain.radius

    def digest(self) -> str:
        payload = json.dumps(_describe(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _describe(spec: CifsSpec) -> dict:
    def enc(m: MapKind):
        return repr(m)

    return {
        "ambient_dim": spec.ambient_dim,
        "domain": repr(spec.domain),
        "explicit": [[repr(lab), enc(m)] for lab, m in spec.explicit],
        "tail": repr(spec.tail),
        "anchor": repr(spec.anchor),
    }


# ---------------------------------------------------------------------------
# array geometry: how a batch of maps moves the seed region


class _Line:
    """Array geometry of the line: intervals, windows and cells.

    Built on a seed interval and an optional window.  The cloud builder
    asks for image regions, diameters, window tests and cells; the axiom
    checks ask for poles, derivative ranges, containment, overlaps and
    separation.  Every rule is the one of the scalar region functions
    in ``mobius``, applied to whole batches."""

    planar = False

    def __init__(self, domain: Region, window: Region | None = None):
        self.domain = domain
        self.window = window

    # -- maps of a batch on the seed region

    def poles(self, m: Mobius) -> np.ndarray:
        return interval_poles(m, self.domain)

    def regions(self, m: Mobius):
        return interval_images(m, self.domain)

    def deriv_ranges(self, m: Mobius) -> tuple[np.ndarray, np.ndarray]:
        return deriv_ranges_interval(m, self.domain)

    def deriv_sups(self, m: Mobius) -> np.ndarray:
        return self.deriv_ranges(m)[1]

    def fattened(self, margin: float) -> "_Line":
        """The geometry of the seed region grown by margin on every side."""
        lo, hi = self.domain
        return _Line((lo - margin, hi + margin))

    # -- image regions: axiom checks

    def inside(self, region, slack: float = 1e-12) -> np.ndarray:
        lo, hi = region
        return (lo >= self.domain[0] - slack) & (hi <= self.domain[1] + slack)

    def overlaps(self, region) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs of regions with meeting interiors, among neighbours
        after a stable sort by lower end."""
        lo, hi = region
        order = np.argsort(lo, kind="stable")
        i, j = order[:-1], order[1:]
        meet = ~((hi[i] <= lo[j]) | (hi[j] <= lo[i]))
        return i[meet], j[meet]

    def separated(self, region) -> bool:
        """No two regions meet, not even at an end."""
        lo, hi = region
        order = np.argsort(lo, kind="stable")
        return bool(np.all(hi[order[:-1]] < lo[order[1:]]))

    # -- image regions: the cloud builder

    def diameters(self, region) -> np.ndarray:
        lo, hi = region
        return hi - lo

    def meets_window(self, region) -> np.ndarray:
        lo, hi = region
        if self.window is None:
            return np.ones(len(lo), dtype=bool)
        return (hi >= self.window[0]) & (lo <= self.window[1])

    def rows(self, region, mask) -> np.ndarray:
        lo, hi = region
        return np.column_stack((lo[mask], hi[mask]))

    def near_window(self, p, slack: float):
        """The points within slack of the window (all of them without one)."""
        if self.window is None:
            return p
        return p[(self.window[0] - slack <= p) & (p <= self.window[1] + slack)]

    def cells(self, pos, width) -> tuple[np.ndarray, ...]:
        return (np.floor(pos / width).astype(np.int64),)

    def coords(self, p) -> np.ndarray:
        return p


class _Plane(_Line):
    """Array geometry of the plane: discs, windows and mesh cells."""

    planar = True

    def poles(self, m: Mobius) -> np.ndarray:
        return disc_poles(m, self.domain)

    def regions(self, m: Mobius):
        return disc_images(m, self.domain)

    def deriv_ranges(self, m: Mobius) -> tuple[np.ndarray, np.ndarray]:
        return deriv_ranges_disc(m, self.domain)

    def fattened(self, margin: float) -> "_Plane":
        return _Plane(Disc(self.domain.center, self.domain.radius + margin))

    def inside(self, region, slack: float = 1e-12) -> np.ndarray:
        center, radius = region
        return abs(center - self.domain.center) + radius <= self.domain.radius + slack

    def overlaps(self, region) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i < j, row by row) of discs that overlap by more than 1e-15.

        Rows are taken in blocks of at most _PAIR_BLOCK pairs (a longer
        row alone), so that a long list of explicit branches does not
        hold every pair at once."""
        center, radius = region
        later = len(radius) - 1 - np.arange(len(radius))
        found_i, found_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for a, b in chunks(later, _PAIR_BLOCK):
            i = np.repeat(np.arange(a, b), later[a:b])
            j = ranges(np.arange(a, b) + 1, later[a:b])
            meet = ~(abs(center[i] - center[j]) >= radius[i] + radius[j] - 1e-15)
            found_i.append(i[meet])
            found_j.append(j[meet])
        return np.concatenate(found_i), np.concatenate(found_j)

    def separated(self, region) -> bool:
        return not len(self.overlaps(region)[0])

    def diameters(self, region) -> np.ndarray:
        return 2.0 * region[1]

    def meets_window(self, region) -> np.ndarray:
        center, radius = region
        if self.window is None:
            return np.ones(len(radius), dtype=bool)
        return abs(self.window.center - center) <= radius + self.window.radius

    def rows(self, region, mask) -> np.ndarray:
        center, radius = region
        return np.column_stack((center.re[mask], center.im[mask], radius[mask]))

    def near_window(self, p, slack: float):
        if self.window is None:
            return p
        return p[abs(p - self.window.center) <= self.window.radius + slack]

    def cells(self, pos, width) -> tuple[np.ndarray, ...]:
        return np.floor(pos.re / width).astype(np.int64), np.floor(pos.im / width).astype(np.int64)

    def coords(self, p) -> np.ndarray:
        return np.column_stack((p.re, p.im))


def geometry(domain: Region, window: Region | None = None) -> _Line:
    """The array geometry of a seed interval or disc, with an optional window."""
    return (_Plane if isinstance(domain, Disc) else _Line)(domain, window)


def require_inside(spec: CifsSpec, maps: Mobius) -> None:
    """Raise ConfigurationError if a map has a pole on the seed domain or
    sends it outside itself."""
    geo = geometry(spec.domain)
    if np.any(geo.poles(maps)):
        raise ConfigurationError("a branch has a pole on the seed domain")
    if not np.all(geo.inside(geo.regions(maps))):
        raise ConfigurationError("a branch maps the seed domain outside itself")


def validate_cifs(spec: CifsSpec) -> ValidationReport:
    """Check the family's axioms on its first level, as one batch of maps.

    Infinite tails are checked on a leading sample of TAIL_SAMPLE maps
    (whole generations) plus the tail rule's own certified contraction
    bound; failures are recorded as axiom entries rather than raised.
    """
    maps, generation = spec._first_level(TAIL_SAMPLE)
    if not len(maps.a):
        raise ConfigurationError("the family has no branches")
    geo = geometry(spec.domain)
    names = [repr(lab) for lab, _ in spec.explicit]

    def name(i) -> str:
        return names[i] if i < len(names) else f"tail generation {generation[i - len(names)]}"

    def listed(items) -> str:
        return "[" + ", ".join(items) + "]"

    checks: list[AxiomCheck] = []

    # containment: every branch sends the seed domain into itself
    poles = geo.poles(maps)
    ok = np.flatnonzero(~poles)
    good = take_mobius(maps, ok)
    regions = geo.regions(good)
    bad = poles.copy()
    bad[ok] = ~geo.inside(regions)
    checks.append(
        AxiomCheck(
            "containment",
            not bad.any(),
            "all sampled branch images inside the seed domain" if not bad.any()
            else f"violating labels: {listed(name(k) for k in np.flatnonzero(bad)[:8])}",
        )
    )

    # uniform contraction; a branch with a pole on the domain does not contract
    d_lo, d_hi = geo.deriv_ranges(good)
    xi = float(np.fmax.reduce(d_hi, initial=0.0))
    if spec.tail is not None:
        xi = max(xi, spec.tail.sup_contraction())
    contracting = not poles.any() and not np.any(d_hi >= 1.0)
    checks.append(
        AxiomCheck(
            "uniform_contraction",
            contracting and xi < 1.0,
            f"xi = {xi:.6g}" if xi < 1.0 else f"supremum of |S'| reaches {xi:.6g}",
        )
    )

    # open set condition on the sampled alphabet
    i, j = geo.overlaps(regions)
    checks.append(
        AxiomCheck(
            "open_set_condition",
            not len(i),
            "sampled open images pairwise disjoint" if not len(i)
            else f"overlapping pairs: {listed(f'({name(a)}, {name(b)})' for a, b in zip(ok[i[:8]], ok[j[:8]]))}",
        )
    )

    # convex seed domains satisfy the interior-density requirement
    checks.append(AxiomCheck("cone_condition", True, "seed domain is convex"))

    # bounded distortion: report the worst level-1 derivative spread
    positive = d_lo > 0
    with np.errstate(over="ignore"):
        spread = float(np.fmax.reduce(d_hi[positive] / d_lo[positive], initial=1.0))
    checks.append(AxiomCheck("bounded_distortion", math.isfinite(spread), f"level-1 spread <= {spread:.4g}"))

    # stronger separation: disjoint images of a fattened neighbourhood
    fat = geo.fattened(SEPARATION_MARGIN * spec.domain_diameter())
    separation = not fat.poles(maps).any() and fat.separated(fat.regions(maps))

    return ValidationReport(tuple(checks), xi, separation)


def induce_parabolic(q: float, parabolic: MapKind, branches: Sequence[tuple[Label, MapKind]],
                     domain: Interval = (0.0, 1.0)) -> CifsSpec:
    """Replace a single parabolic branch by its induced contracting family.

    The parabolic branch must fix 0 with unit derivative there and
    satisfy x - P(x) ~ x^(1+q); with Moebius branch kinds this forces
    q = 1.  The result encodes {P^n o S_j : n >= 0} as composites with
    an infinite tail rule.
    """
    if q <= 0:
        raise ConfigurationError("parabolic exponent q must be positive")
    pm = parabolic.mobius()
    scale = pm.d
    if scale == 0 or abs(pm.b / scale) > 1e-12:
        raise ConfigurationError("parabolic branch must fix 0")
    if abs(abs(pm.det) / abs(pm.d) ** 2 - 1.0) > 1e-9:
        raise ConfigurationError("branch is not parabolic at 0 (derivative differs from 1)")
    if pm.c == 0:
        raise ConfigurationError("branch is an isometry, not a parabolic contraction")
    if abs(q - 1.0) > 1e-9:
        raise ConfigurationError(
            "only quadratic tangency (q = 1) is representable with Moebius branch kinds"
        )
    if not branches:
        raise ConfigurationError("no uniformly contracting branches supplied")
    tail = InducedParabolicTail(parabolic, tuple(branches), exponent=q, domain=domain)
    weak = np.flatnonzero(deriv_ranges_interval(tail._branch_batch, domain)[1] >= 1.0)
    if len(weak):
        raise ConfigurationError(
            f"branch {branches[weak[0]][0]!r} is not uniformly contracting; only one parabolic branch is supported"
        )
    return CifsSpec(ambient_dim=1, domain=domain, explicit=(), tail=tail)


def renyi_parabolic_spec(digits: Sequence[int]) -> CifsSpec:
    """Backwards continued-fraction system for a finite digit set.

    Digit 2 is the parabolic branch; when present the induced family is
    returned, otherwise the plain uniformly contracting system.
    """
    digits = sorted(set(int(b) for b in digits))
    if any(b < 2 for b in digits):
        raise ConfigurationError("backwards continued-fraction digits start at 2")
    if 2 in digits:
        rest = [(b, RenyiBranch(b)) for b in digits if b != 2]
        if not rest:
            raise ConfigurationError("a parabolic branch alone generates only its fixed point")
        return induce_parabolic(1.0, RenyiBranch(2), rest)
    maps = tuple((b, RenyiBranch(b)) for b in digits)
    return CifsSpec(1, (0.0, 1.0), maps)
