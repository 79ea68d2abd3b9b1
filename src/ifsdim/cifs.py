"""Contraction families: specification, axioms, words and cylinders.

A :class:`CifsSpec` couples finitely many explicit branches with an
optional tail rule for the infinite part of the alphabet.  Its first
level has one numeric form, ``first_maps``: the explicit branches and
whole tail generations from the tail's ``generation_arrays``, stacked
into one Moebius batch; ``first_level`` lists the same branches with
their labels.  ``fixed_point_spectrum`` is the Assouad spectrum of the
set P of fixed points, which the paper's bounds read together with h:
the tail answers it from its own parameters, and a finite alphabet has
0, since P is finite.

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
fails containment and contraction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .maps import MapKind, RenyiBranch, Similarity, apply_map
from .mobius import (
    Disc,
    Interval,
    Mobius,
    concat_mobius,
    deriv_range_interval,
    deriv_ranges_disc,
    deriv_ranges_interval,
    disc_image,
    disc_images,
    disc_poles,
    interval_image,
    interval_images,
    interval_poles,
    stack_mobius,
    take_mobius,
)
from .spectra import null_spectrum
from .tails import InducedParabolicTail, Label, SimilarityTail, TailRule, ragged_arange

Region = Union[Interval, Disc]

#: how many leading tail branches participate in sampled axiom checks
TAIL_SAMPLE = 256

#: fattening margin used for the stronger separation flag, as a fraction
#: of the seed-domain size
SEPARATION_MARGIN = 0.125

#: disc pairs tested at once by the planar overlap check
_PAIR_BLOCK = 1 << 20


@dataclass(frozen=True)
class Word:
    """Finite word of branch labels; the empty word is the identity."""

    labels: tuple[Label, ...] = ()

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Cylinder:
    word: Word
    region: Region
    diameter: float


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
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ambient_dim not in (1, 2):
            raise ConfigurationError("ambient dimension must be 1 or 2")
        if self.anchor is None:
            if self.ambient_dim == 1:
                object.__setattr__(self, "anchor", float(self.domain[0]))
            else:
                object.__setattr__(self, "anchor", self.domain.center)

    # -- alphabet ------------------------------------------------------

    def resolve(self, label: Label) -> MapKind:
        for lab, m in self.explicit:
            if lab == label:
                return m
        if self.tail is not None:
            m = self.tail.resolve(label)
            if m is not None:
                return m
        raise ConfigurationError(f"label {label!r} does not resolve to any branch")

    def first_level(self, sample: int = TAIL_SAMPLE) -> list[tuple[Label, MapKind]]:
        """Explicit branches followed by whole tail generations, until
        ``sample`` tail branches are reached: the labelled branches of
        first_maps."""
        out = list(self.explicit)
        if self.tail is not None:
            g = 0
            while len(out) < len(self.explicit) + sample:
                out.extend(self.tail.generation_maps(g))
                g += 1
        return out

    def first_maps(self, sample: int = TAIL_SAMPLE) -> Mobius:
        """The maps of first_level(sample) as one Moebius batch, in its
        order and bit for bit: the explicit branches stacked, then whole
        tail generations from the tail's generation_arrays."""
        maps = stack_mobius([m.mobius() for _, m in self.explicit], self.ambient_dim == 2)
        if self.tail is None or sample <= 0:
            return maps
        n = 8
        while True:
            owner, tail = self.tail.generation_arrays(np.arange(n))
            if len(owner) >= sample:
                # the generation holding the sample-th map is the last one taken
                return concat_mobius([maps, take_mobius(tail, owner <= owner[sample - 1])])
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
# operations


def apply_word(spec: CifsSpec, w: Word, x):
    """Apply the composition of a word right to left; empty word is identity."""
    result = x
    for label in reversed(w.labels):
        result = apply_map(spec.resolve(label), result)
    return result


def word_mobius(spec: CifsSpec, w: Word) -> Mobius:
    m = Mobius(1, 0, 0, 1)
    for label in w.labels:
        m = m.compose(spec.resolve(label).mobius())
    return m


def cylinder_of(spec: CifsSpec, w: Word) -> Cylinder:
    """Exact image region of the seed domain under the word's composition."""
    m = word_mobius(spec, w)
    if spec.ambient_dim == 1:
        lo, hi = interval_image(m, spec.domain)
        return Cylinder(w, (lo, hi), hi - lo)
    disc = disc_image(m, spec.domain)
    return Cylinder(w, disc, 2.0 * disc.radius)


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

        Rows are taken in blocks of about _PAIR_BLOCK pairs, so that a
        long list of explicit branches does not hold every pair at once."""
        center, radius = region
        n = len(radius)
        rows = max(1, _PAIR_BLOCK // max(n, 1))
        found_i, found_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for start in range(0, n, rows):
            counts = n - 1 - np.arange(start, min(start + rows, n))
            i = np.repeat(np.arange(start, start + len(counts)), counts)
            j = i + 1 + ragged_arange(counts)
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


def validate_cifs(spec: CifsSpec) -> ValidationReport:
    """Check the family's axioms on its first level, as one batch of maps.

    Infinite tails are checked on a leading sample of TAIL_SAMPLE maps
    (whole generations) plus the tail rule's own certified contraction
    bound; failures are recorded as axiom entries rather than raised.
    """
    maps = spec.first_maps()
    if not len(maps.a):
        raise ConfigurationError("the family has no branches")
    geo = geometry(spec.domain)

    def labels(idx) -> list:
        names = [lab for lab, _ in spec.first_level()]
        return [names[i] for i in idx]

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
            else f"violating labels: {labels(np.flatnonzero(bad)[:8])}",
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
            else f"overlapping pairs: {list(zip(labels(ok[i[:8]]), labels(ok[j[:8]])))}",
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
    for lab, m in branches:
        _, hi = deriv_range_interval(m.mobius(), domain)
        if hi >= 1.0:
            raise ConfigurationError(
                f"branch {lab!r} is not uniformly contracting; only one parabolic branch is supported"
            )
    tail = InducedParabolicTail(parabolic, tuple(branches), exponent=q, domain=domain)
    return CifsSpec(ambient_dim=1, domain=domain, explicit=(), tail=tail,
                    meta={"family": "parabolic_induced", "q": q})


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
        spec = induce_parabolic(1.0, RenyiBranch(2), rest)
        spec.meta["digits"] = digits
        return spec
    maps = tuple((b, RenyiBranch(b)) for b in digits)
    return CifsSpec(1, (0.0, 1.0), maps, meta={"family": "renyi", "digits": digits})
