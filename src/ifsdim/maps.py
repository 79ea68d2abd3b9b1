"""Contraction branch kinds.

Five kinds cover every system in scope:

* ``Similarity`` -- x -> ratio * x + offset on the line,
* ``GaussBranch`` -- x -> 1 / (digit + x), the continued-fraction inverse
  branch for a positive integer digit,
* ``RenyiBranch`` -- x -> 1 - 1 / (digit - 1 + x), the backwards
  continued-fraction inverse branch (digit 2 is parabolic at 0),
* ``ComplexGaussBranch`` -- z -> 1 / (digit + z) for a Gaussian-integer
  digit with positive real part, acting on a disc,
* ``Composite`` -- a finite composition of the above, the last part
  applied first.

The kinds describe explicit branches: a system's ``repr`` (and so its
digest) is built from them.  ``mobius()`` builds the branch's matrix on
every call; nothing is cached.  Maps are enumerated and applied only as
batches, through ``CifsSpec.first_maps`` and the tails'
``generation_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ConfigurationError
from .mobius import Mobius


@dataclass(frozen=True)
class Similarity:
    ratio: float
    offset: float

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ConfigurationError(f"similarity ratio must be in (0,1), got {self.ratio}")

    def mobius(self) -> Mobius:
        return Mobius(self.ratio, self.offset, 0.0, 1.0)


@dataclass(frozen=True)
class GaussBranch:
    digit: int

    def __post_init__(self):
        if self.digit < 1:
            raise ConfigurationError(f"Gauss digit must be a positive integer, got {self.digit}")

    def mobius(self) -> Mobius:
        return Mobius(0, 1, 1, self.digit)


@dataclass(frozen=True)
class RenyiBranch:
    digit: int

    def __post_init__(self):
        if self.digit < 2:
            raise ConfigurationError(f"Renyi digit must be at least 2, got {self.digit}")

    def mobius(self) -> Mobius:
        # 1 - 1/(digit - 1 + x) = (x + digit - 2) / (x + digit - 1)
        return Mobius(1, self.digit - 2, 1, self.digit - 1)


@dataclass(frozen=True)
class ComplexGaussBranch:
    digit: complex

    def __post_init__(self):
        d = complex(self.digit)
        if d.real < 1 or d.real != int(d.real) or d.imag != int(d.imag):
            raise ConfigurationError(
                f"complex Gauss digit must be a Gaussian integer with positive real part, got {self.digit}"
            )

    def mobius(self) -> Mobius:
        return Mobius(0, 1, 1, complex(self.digit))


@dataclass(frozen=True)
class Composite:
    parts: tuple["MapKind", ...]

    def __post_init__(self):
        if len(self.parts) == 0:
            raise ConfigurationError("composite map needs at least one part")

    def mobius(self) -> Mobius:
        m = self.parts[0].mobius()
        for part in self.parts[1:]:
            m = m.compose(part.mobius())
        return m


MapKind = Union[Similarity, GaussBranch, RenyiBranch, ComplexGaussBranch, Composite]

