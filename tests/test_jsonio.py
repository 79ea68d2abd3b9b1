import json

import pytest

from ifsdim import ConfigurationError, hausdorff_dimension, validate_cifs
from ifsdim.jsonio import load_spec, spec_from_dict
from ifsdim.maps import Composite


def test_similarity_list():
    spec = spec_from_dict({
        "kind": "similarity_list",
        "maps": [{"ratio": 0.25, "offset": 0.0}, {"ratio": 0.25, "offset": 0.75}],
    })
    assert validate_cifs(spec).ok
    assert hausdorff_dimension(spec).value == pytest.approx(0.5, abs=1e-9)


def test_polynomial_tail_builds_sharp_family():
    spec = spec_from_dict({"kind": "polynomial_tail", "p": 1.8, "t": 2.8, "h": 0.5})
    assert spec.meta["family"] == "sharp"
    assert hausdorff_dimension(spec).value == pytest.approx(0.5, abs=1e-6)


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


@pytest.mark.parametrize("digits", [[2.5, 3], "abc", ["2", 3], [True, 2], [0, 2], [float("nan")], None])
def test_gauss_digit_list_rejects_non_integers(digits):
    with pytest.raises(ConfigurationError):
        spec_from_dict({"kind": "gauss_digits", "digits": digits})


def test_integral_float_digits_are_accepted():
    spec = spec_from_dict({"kind": "gauss_digits", "digits": [2.0, 3]})
    assert spec.meta["digits"] == [2, 3]


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
