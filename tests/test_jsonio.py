import json

import pytest

from ifsdim import ConfigurationError, hausdorff_dimension, validate_cifs
from ifsdim.cifs import CifsSpec
from ifsdim.families import make_family
from ifsdim.jsonio import load_spec, spec_from_dict
from ifsdim.maps import Composite
from ifsdim.pressure import build_sharp_family
from ifsdim.tails import ClusteredDigits, FullDigits, GaussDigitTail, SpacedDigits


def test_similarity_list():
    spec = spec_from_dict({
        "kind": "similarity_list",
        "maps": [{"ratio": 0.25, "offset": 0.0}, {"ratio": 0.25, "offset": 0.75}],
    })
    assert validate_cifs(spec).ok
    assert hausdorff_dimension(spec).value == pytest.approx(0.5, abs=1e-9)


def test_polynomial_tail_builds_sharp_family():
    spec = spec_from_dict({"kind": "polynomial_tail", "p": 1.8, "t": 2.8, "h": 0.5})
    assert spec.digest() == build_sharp_family(1.8, 2.8, 0.5).digest()
    assert hausdorff_dimension(spec).value == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("name, direct", [
    ("sharp", lambda: build_sharp_family(1.8, 2.8, 0.5)),
    ("fp", lambda: build_sharp_family(1.0, 3.0, 0.5 * (1.0 / 3.0 + 1.0))),
    ("ctd-spaced", lambda: CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(SpacedDigits(1.8)))),
    ("ctd-clustered", lambda: CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(ClusteredDigits(0.5)))),
    ("dense-cf", lambda: CifsSpec(1, (0.0, 1.0), (), GaussDigitTail(FullDigits(2)))),
])
def test_families_build_their_systems_from_documents(name, direct):
    # a family's spec comes from a spec document, and is the system its
    # classes build directly
    spec, want = make_family(name).spec, direct()
    assert spec.digest() == want.digest()
    assert repr(spec.tail) == repr(want.tail)
    assert [(b, repr(m)) for b, m in spec.explicit] == [(b, repr(m)) for b, m in want.explicit]


def test_gauss_digit_list_and_parametric_sets():
    finite = spec_from_dict({"kind": "gauss_digits", "digits": [2, 3]})
    assert len(finite.explicit) == 2
    spaced = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "spaced", "p": 2.0}})
    assert spaced.tail is not None
    clustered = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": 0.5}})
    assert clustered.tail is not None
    full = spec_from_dict({"kind": "gauss_digits", "digits": {"set": "full"}})
    assert full.tail is not None


def test_digit_one_is_recoded():
    spec = spec_from_dict({"kind": "gauss_digits", "digits": [1, 2]})
    labels = [lab for lab, _ in spec.explicit]
    assert 1 not in labels  # the raw digit-1 branch never appears
    composites = [m for _, m in spec.explicit if isinstance(m, Composite)]
    assert len(composites) == 2  # S_b o S_1 for b in {1, 2}
    assert validate_cifs(spec).ok


def test_complex_gauss():
    spec = spec_from_dict({"kind": "complex_gauss", "digits": [[2, 0], [2, 1], [2, -1]]})
    assert spec.ambient_dim == 2
    assert validate_cifs(spec).ok
    full = spec_from_dict({"kind": "complex_gauss", "digits": "full"})
    assert full.tail is not None
    report = validate_cifs(full)
    assert report.ok


def test_renyi_parabolic_induces():
    spec = spec_from_dict({"kind": "renyi_parabolic", "digits": [2, 3]})
    assert spec.tail is not None
    plain = spec_from_dict({"kind": "renyi_parabolic", "digits": [3, 4]})
    assert plain.tail is None


def test_errors():
    with pytest.raises(ConfigurationError):
        spec_from_dict({"kind": "nope"})
    with pytest.raises(ConfigurationError):
        spec_from_dict({"kind": "gauss_digits"})
    with pytest.raises(ConfigurationError):
        spec_from_dict({"kind": "complex_gauss", "digits": [[1, 0]]})


@pytest.mark.parametrize("text", [
    '{"kind": "gauss_digits", "digits": {"set": "spaced", "p": Infinity}}',
    '{"kind": "gauss_digits", "digits": {"set": "spaced", "p": NaN}}',
    '{"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": NaN}}',
    '{"kind": "polynomial_tail", "p": 1.8, "t": Infinity, "h": 0.5}',
    '{"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": -Infinity}]}',
    '{"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": 0.0}], "domain": [0, 1%s]}' % ("0" * 400),
], ids=["spaced-infinity", "spaced-nan", "clustered-nan", "tail-infinity", "offset-minus-infinity", "past-float"])
def test_non_finite_numbers_are_rejected(text):
    with pytest.raises(ConfigurationError, match="finite number"):
        spec_from_dict(json.loads(text))


@pytest.mark.parametrize("digits", [[2.5, 3], "abc", ["2", 3], [True, 2], [0, 2], [float("nan")], None])
def test_gauss_digit_list_rejects_non_integers(digits):
    with pytest.raises(ConfigurationError):
        spec_from_dict({"kind": "gauss_digits", "digits": digits})


_HUGE = 10**334  # past the float range


@pytest.mark.parametrize("doc,field", [
    ({"kind": "renyi_parabolic", "digits": [2, _HUGE]}, "backwards continued-fraction digits"),
    ({"kind": "gauss_digits", "digits": [2, _HUGE]}, "continued-fraction digits"),
    ({"kind": "gauss_digits", "digits": [2, 1e300]}, "continued-fraction digits"),
    ({"kind": "complex_gauss", "digits": [[_HUGE, 0]]}, "complex digits"),
    ({"kind": "complex_gauss", "digits": [[2, -2**53]]}, "complex digits"),
    ({"kind": "gauss_digits", "digits": {"set": "full", "start": 10**23}}, "full digit set start"),
    ({"kind": "gauss_digits", "digits": {"set": "full", "start": 2**53}}, "full digit set start"),
], ids=["renyi", "gauss", "gauss-float", "complex", "complex-negative", "full-start", "full-start-2^53"])
def test_integers_past_2_53_are_rejected(doc, field):
    with pytest.raises(ConfigurationError, match=f"^{field} must be below 2\\^53 in magnitude$"):
        spec_from_dict(doc)


def test_integers_below_2_53_are_accepted():
    big = 2**53 - 1
    assert [b for b, _ in spec_from_dict({"kind": "gauss_digits", "digits": [2, big]}).explicit] == [2, big]
    assert spec_from_dict({"kind": "gauss_digits", "digits": {"set": "full", "start": big}}).tail is not None
    assert len(spec_from_dict({"kind": "complex_gauss", "digits": [[big, -big]]}).explicit) == 1


def test_integer_past_the_digit_limit_of_int_is_a_configuration_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "renyi_parabolic", "digits": [2, %s]}' % ("1" * 5000))
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_spec(path)


def test_integral_float_digits_are_accepted():
    spec = spec_from_dict({"kind": "gauss_digits", "digits": [2.0, 3]})
    assert [b for b, _ in spec.explicit] == [2, 3]


def test_load_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "gauss_digits", "digits": [2, 3]}))
    spec = load_spec(path)
    assert len(spec.explicit) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_spec(bad)


def test_documents_validate_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads((Path(__file__).parent.parent / "docs" / "cifs_spec.schema.json").read_text())
    docs = [
        {"kind": "similarity_list", "maps": [{"ratio": 0.5, "offset": 0.0}]},
        {"kind": "polynomial_tail", "p": 1.8, "t": 2.8, "h": 0.5},
        {"kind": "gauss_digits", "digits": [2, 3]},
        {"kind": "gauss_digits", "digits": {"set": "clustered", "alpha": 0.5}},
        {"kind": "complex_gauss", "digits": "full"},
        {"kind": "renyi_parabolic", "digits": [2, 3]},
    ]
    for doc in docs:
        jsonschema.validate(doc, schema)
        spec_from_dict(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "similarity_list"}, schema)
