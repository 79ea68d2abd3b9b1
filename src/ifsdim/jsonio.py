"""JSON descriptions of contraction families.

Five document kinds are supported:

* ``similarity_list`` -- explicit affine branches,
* ``polynomial_tail`` -- the constructive family on the sequence i^(-p)
  with ratios p * i^(-t) past a cutoff, solved for a target dimension h,
* ``gauss_digits`` -- continued-fraction branches for an explicit digit
  list or a parametric digit set (spaced / clustered / full),
* ``complex_gauss`` -- complex continued fractions on the standard disc,
* ``renyi_parabolic`` -- backwards continued fractions; digit 2 is
  parabolic and triggers the induced system.

The schema ships in docs/cifs_spec.schema.json.  Documents are checked
against its types and ranges here, without a schema library, so that a
malformed document raises ConfigurationError naming the bad field.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .cifs import CifsSpec, renyi_parabolic_spec
from .errors import ConfigurationError
from .maps import Composite, ComplexGaussBranch, GaussBranch, Similarity
from .mobius import Disc
from .tails import (
    ClusteredDigits,
    ComplexGaussTail,
    FullDigits,
    GaussDigitTail,
    SpacedDigits,
)

KINDS = ("similarity_list", "polynomial_tail", "gauss_digits", "complex_gauss", "renyi_parabolic")

#: an integer field stays below this in magnitude, so that it is exact as a
#: float, as the Moebius entries built from it are
_INTEGER_BOUND = 2**53


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigurationError(f"spec document is missing the required key {key!r}")
    return doc[key]


def _is_number(value) -> bool:
    # JSON numbers arrive as int or float; bool is an int subclass but no number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _bounded(values, what: str) -> None:
    if any(abs(v) >= _INTEGER_BOUND for v in values):
        raise ConfigurationError(f"{what} must be below 2^53 in magnitude")


def _number(value, what: str) -> float:
    # json reads the tokens NaN and Infinity as floats; they fail here, as
    # does an integer past the float range
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _array(value, what: str, length: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or not value or (length is not None and len(value) != length):
        size = "a non-empty array" if length is None else f"an array of {length}"
        raise ConfigurationError(f"{what} must be {size}, got {value!r}")
    return list(value)


def _similarity_list(doc: dict) -> CifsSpec:
    explicit = []
    for k, m in enumerate(_array(_require(doc, "maps"), "similarity_list maps"), start=1):
        if not isinstance(m, dict):
            raise ConfigurationError(f"similarity map {k} must be an object, got {m!r}")
        ratio = _number(_require(m, "ratio"), f"similarity map {k} ratio")
        explicit.append((k, Similarity(ratio, _number(_require(m, "offset"), f"similarity map {k} offset"))))
    lo, hi = (_number(v, "domain end") for v in _array(doc.get("domain", [0.0, 1.0]), "domain", 2))
    anchor = doc.get("anchor")
    if anchor is not None:
        _number(anchor, "anchor")
    return CifsSpec(1, (lo, hi), tuple(explicit), anchor=anchor)


def _polynomial_tail(doc: dict) -> CifsSpec:
    from .pressure import build_sharp_family

    p, t, h = (_number(_require(doc, key), f"polynomial_tail {key}") for key in ("p", "t", "h"))
    return build_sharp_family(p, t, h)


def _gauss_digits(doc: dict) -> CifsSpec:
    digits = _require(doc, "digits")
    if isinstance(digits, dict):
        kind = _require(digits, "set")
        if kind == "spaced":
            tail = GaussDigitTail(SpacedDigits(_number(_require(digits, "p"), "spaced digit exponent p")))
        elif kind == "clustered":
            tail = GaussDigitTail(ClusteredDigits(_number(_require(digits, "alpha"), "clustered digit alpha")))
        elif kind == "full":
            start = digits.get("start", 2)
            if not _is_integral(start):
                raise ConfigurationError(f"full digit set start must be an integer, got {start!r}")
            _bounded([start], "full digit set start")
            tail = GaussDigitTail(FullDigits(int(start)))
        else:
            raise ConfigurationError(f"unknown digit set kind {kind!r}")
        return CifsSpec(1, (0.0, 1.0), (), tail)
    if not isinstance(digits, (list, tuple)) or not digits or not all(_is_integral(b) and b >= 1 for b in digits):
        raise ConfigurationError(f"continued-fraction digits are positive integers, got {digits!r}")
    _bounded(digits, "continued-fraction digits")
    digits = sorted(set(int(b) for b in digits))
    explicit = []
    if 1 in digits:
        # recode: the raw digit-1 branch is not uniformly contracting, so
        # digit strings are parsed into blocks (b) for b != 1 and (1, b),
        # giving the uniformly contracting maps S_1 o S_b
        for b in digits:
            if b != 1:
                explicit.append((b, GaussBranch(b)))
            explicit.append(((1, b), Composite((GaussBranch(1), GaussBranch(b)))))
    else:
        explicit = [(b, GaussBranch(b)) for b in digits]
    return CifsSpec(1, (0.0, 1.0), tuple(explicit))


def _complex_gauss(doc: dict) -> CifsSpec:
    domain = Disc(0.5 + 0j, 0.5)
    digits = _require(doc, "digits")
    if digits == "full":
        return CifsSpec(2, domain, (), ComplexGaussTail())
    explicit = []
    for pair in _array(digits, "complex digits"):
        m, n = _array(pair, "complex digit", 2)
        if not (_is_integral(m) and _is_integral(n)):
            raise ConfigurationError(f"complex digits are pairs of integers, got {pair!r}")
        _bounded((m, n), "complex digits")
        if (m, n) == (1, 0):
            raise ConfigurationError("complex digit 1 needs the recoded full system")
        explicit.append(((int(m), int(n)), ComplexGaussBranch(complex(int(m), int(n)))))
    return CifsSpec(2, domain, tuple(explicit))


def _renyi_parabolic(doc: dict) -> CifsSpec:
    digits = _array(_require(doc, "digits"), "backwards continued-fraction digits")
    if not all(_is_integral(b) for b in digits):
        raise ConfigurationError(f"backwards continued-fraction digits are integers, got {digits!r}")
    _bounded(digits, "backwards continued-fraction digits")
    return renyi_parabolic_spec([int(b) for b in digits])


_LOADERS = {
    "similarity_list": _similarity_list,
    "polynomial_tail": _polynomial_tail,
    "gauss_digits": _gauss_digits,
    "complex_gauss": _complex_gauss,
    "renyi_parabolic": _renyi_parabolic,
}


def spec_from_dict(doc: dict) -> CifsSpec:
    kind = _require(doc, "kind")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise ConfigurationError(f"unknown spec kind {kind!r}; expected one of {KINDS}")
    return loader(doc)


def load_spec(path) -> CifsSpec:
    raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit of int()
        raise ConfigurationError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"spec file {path} must hold a JSON object")
    return spec_from_dict(doc)
