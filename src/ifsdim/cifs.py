"""Contraction families: specification, axioms, words and cylinders.

A :class:`CifsSpec` couples finitely many explicit branches with an
optional tail rule for the infinite part of the alphabet.  Validation
checks the axioms a family must satisfy to generate a limit set with
well-defined dimension theory: branches map the seed domain into
itself, contraction ratios are uniformly below one, open images are
pairwise disjoint, and (as a separate, stronger flag) images of a
fattened neighbourhood are pairwise disjoint as well.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import ConfigurationError
from .maps import MapKind, RenyiBranch, Similarity, apply_map
from .mobius import (
    Disc,
    Interval,
    Mobius,
    deriv_range_disc,
    deriv_range_interval,
    disc_image,
    interval_image,
)
from .tails import InducedParabolicTail, Label, SimilarityTail, TailRule

Region = Union[Interval, Disc]

#: how many leading tail branches participate in sampled axiom checks
TAIL_SAMPLE = 256

#: fattening margin used for the stronger separation flag, as a fraction
#: of the seed-domain size
SEPARATION_MARGIN = 0.125


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
        """Explicit branches followed by a finite tail prefix."""
        out = list(self.explicit)
        if self.tail is not None:
            g = 0
            while len(out) < len(self.explicit) + sample:
                out.extend(self.tail.generation_maps(g))
                g += 1
        return out

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

    def map_region(self, m: MapKind, region: Region | None = None) -> Region:
        region = self.domain if region is None else region
        if self.ambient_dim == 1:
            return interval_image(m.mobius(), region)
        return disc_image(m.mobius(), region)

    def deriv_bounds(self, m: MapKind, region: Region | None = None) -> Interval:
        region = self.domain if region is None else region
        if self.ambient_dim == 1:
            return deriv_range_interval(m.mobius(), region)
        return deriv_range_disc(m.mobius(), region)

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


def _regions_disjoint(spec: CifsSpec, r1: Region, r2: Region) -> bool:
    if spec.ambient_dim == 1:
        return r1[1] <= r2[0] or r2[1] <= r1[0]
    return abs(r1.center - r2.center) >= r1.radius + r2.radius - 1e-15


def _region_inside(spec: CifsSpec, inner: Region, outer: Region, slack: float = 1e-12) -> bool:
    if spec.ambient_dim == 1:
        return inner[0] >= outer[0] - slack and inner[1] <= outer[1] + slack
    return abs(inner.center - outer.center) + inner.radius <= outer.radius + slack


def _fattened(spec: CifsSpec) -> Region:
    margin = SEPARATION_MARGIN * spec.domain_diameter()
    if spec.ambient_dim == 1:
        return (spec.domain[0] - margin, spec.domain[1] + margin)
    return Disc(spec.domain.center, spec.domain.radius + margin)


def validate_cifs(spec: CifsSpec, tail_sample: int = TAIL_SAMPLE) -> ValidationReport:
    """Check the family's axioms branch by branch.

    Infinite tails are checked on a leading sample plus the tail rule's
    own certified contraction bound; failures are recorded as axiom
    entries rather than raised.
    """
    checks: list[AxiomCheck] = []
    branches = spec.first_level(tail_sample)
    if not branches:
        raise ConfigurationError("the family has no branches")

    # containment: every branch sends the seed domain into itself
    bad = []
    regions = []
    for lab, m in branches:
        try:
            region = spec.map_region(m)
        except ZeroDivisionError:
            bad.append(lab)
            continue
        regions.append((lab, region))
        if not _region_inside(spec, region, spec.domain):
            bad.append(lab)
    checks.append(
        AxiomCheck(
            "containment",
            not bad,
            "all sampled branch images inside the seed domain" if not bad else f"violating labels: {bad[:8]}",
        )
    )

    # uniform contraction
    xi = 0.0
    noncontracting = []
    for lab, m in branches:
        try:
            _, hi = spec.deriv_bounds(m)
        except ZeroDivisionError:
            noncontracting.append(lab)
            continue
        xi = max(xi, hi)
        if hi >= 1.0:
            noncontracting.append(lab)
    if spec.tail is not None:
        xi = max(xi, spec.tail.sup_contraction())
    checks.append(
        AxiomCheck(
            "uniform_contraction",
            not noncontracting and xi < 1.0,
            f"xi = {xi:.6g}" if xi < 1.0 else f"supremum of |S'| reaches {xi:.6g}",
        )
    )

    # open set condition on the sampled alphabet
    overlaps = []
    srt = regions
    if spec.ambient_dim == 1:
        srt = sorted(regions, key=lambda kv: kv[1][0])
        for (la, ra), (lb, rb) in zip(srt, srt[1:]):
            if not _regions_disjoint(spec, ra, rb):
                overlaps.append((la, lb))
    else:
        for i, (la, ra) in enumerate(srt):
            for lb, rb in srt[i + 1 :]:
                if not _regions_disjoint(spec, ra, rb):
                    overlaps.append((la, lb))
    checks.append(
        AxiomCheck(
            "open_set_condition",
            not overlaps,
            "sampled open images pairwise disjoint" if not overlaps else f"overlapping pairs: {overlaps[:8]}",
        )
    )

    # convex seed domains satisfy the interior-density requirement
    checks.append(AxiomCheck("cone_condition", True, "seed domain is convex"))

    # bounded distortion: report the worst level-1 derivative spread
    spread = 1.0
    for _, m in branches:
        try:
            lo, hi = spec.deriv_bounds(m)
        except ZeroDivisionError:
            continue
        if lo > 0:
            spread = max(spread, hi / lo)
    checks.append(AxiomCheck("bounded_distortion", math.isfinite(spread), f"level-1 spread <= {spread:.4g}"))

    # stronger separation: disjoint images of a fattened neighbourhood
    separation = True
    fat = _fattened(spec)
    fat_regions = []
    for lab, m in branches:
        try:
            fat_regions.append(spec.map_region(m, fat))
        except ZeroDivisionError:
            separation = False
            break
    if separation:
        if spec.ambient_dim == 1:
            fr = sorted(fat_regions, key=lambda r: r[0])
            separation = all(a[1] < b[0] for a, b in zip(fr, fr[1:]))
        else:
            separation = all(
                _regions_disjoint(spec, fat_regions[i], fat_regions[j])
                for i in range(len(fat_regions))
                for j in range(i + 1, len(fat_regions))
            )

    xi = min(xi, 1.0) if xi < 1.0 else xi
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
