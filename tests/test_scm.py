from fractions import Fraction

import pytest

from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.scm import (
    MechanismTable,
    NoiseSpec,
    Scm,
    ScmError,
    ScmFormatError,
    VariableSpec,
    intervene,
    load_scm,
    serialize_scm,
    validate_scm,
)


def coin(name, p_one=Fraction(1, 2)):
    return NoiseSpec(name, (("0", 1 - p_one), ("1", p_one)))


def two_var_model():
    variables = (VariableSpec("R", ("0", "1")), VariableSpec("X", ("0", "1")))
    noises = {"R": coin("R"), "X": coin("X")}
    mechanisms = {
        "R": MechanismTable.from_function("R", (), (), ["0", "1"], lambda n: n),
        "X": MechanismTable.from_function(
            "X", ("R",), [("0", "1")], ["0", "1"],
            lambda r, n: n if r == "1" else "0",
        ),
    }
    return Scm(variables, "R", noises, mechanisms)


def test_validate_accepts_well_formed_model():
    assert validate_scm(two_var_model()) == []


def test_validate_flags_missing_noise_and_mechanism():
    s = two_var_model()
    del s.noises["X"]
    del s.mechanisms["X"]
    problems = validate_scm(s)
    assert any("no noise" in p for p in problems)
    assert any("no mechanism" in p for p in problems)


def test_validate_flags_bad_pmf_sum():
    s = two_var_model()
    s.noises["X"] = NoiseSpec("X", (("0", Fraction(1, 2)), ("1", Fraction(1, 3))))
    assert any("sums to" in p for p in validate_scm(s))


def test_validate_flags_self_parent():
    s = two_var_model()
    s.mechanisms["X"] = MechanismTable.from_function(
        "X", ("X",), [("0", "1")], ["0", "1"], lambda x, n: n
    )
    assert any("itself" in p for p in validate_scm(s))


def test_validate_flags_partial_mechanism_table():
    s = two_var_model()
    broken = MechanismTable("X", ("R",), {(("0",), "0"): "0"})
    s.mechanisms["X"] = broken
    assert any("not total" in p for p in validate_scm(s))


def test_validate_flags_unknown_parent_and_context():
    s = two_var_model()
    s.mechanisms["X"] = MechanismTable.from_function(
        "X", ("Q",), [("0", "1")], ["0", "1"], lambda q, n: n
    )
    s2 = Scm(s.variables, "Z", s.noises, dict(s.mechanisms))
    problems = validate_scm(s2)
    assert any("unknown parents" in p for p in problems)
    assert any("context variable" in p for p in problems)


def test_validate_flags_output_outside_domain():
    s = two_var_model()
    s.mechanisms["X"] = MechanismTable.from_function(
        "X", ("R",), [("0", "1")], ["0", "1"], lambda r, n: "7"
    )
    assert any("outside its domain" in p for p in validate_scm(s))


def test_noise_spec_is_label_canonical():
    a = NoiseSpec("X", (("1", Fraction(1, 4)), ("0", Fraction(3, 4))))
    b = NoiseSpec("X", (("0", Fraction(3, 4)), ("1", Fraction(1, 4))))
    assert a == b
    assert a.labels == ("0", "1")
    assert a.support == ("0", "1")
    assert dict(a.pmf)["1"] == Fraction(1, 4)


def test_noise_spec_scaled_is_the_pmf_over_the_lcm_of_its_denominators():
    pmf = (("b", Fraction(1, 6)), ("z", Fraction(0)), ("a", Fraction(3, 4)), ("c", Fraction(1, 12)))
    d, a = NoiseSpec("X", pmf).scaled()
    assert d == 12
    # label order, and a zero-prior label scales to 0
    assert list(a.items()) == [("a", 9), ("b", 2), ("c", 1), ("z", 0)]


def test_mechanism_missing_row_raises():
    m = MechanismTable("X", ("R",), {(("0",), "0"): "0"})
    with pytest.raises(ScmError):
        m.value(("1",), "0")


def test_intervene_replaces_only_target_mechanism():
    s = two_var_model()
    cut = intervene(s, "R", "1")
    assert cut.mechanisms["R"].parents == ()
    assert set(cut.mechanisms["R"].table.values()) == {"1"}
    assert cut.mechanisms["X"] is s.mechanisms["X"]
    assert cut.noises == s.noises
    # original untouched
    assert s.mechanisms["R"].parents == ()
    assert set(s.mechanisms["R"].table.values()) == {"0", "1"}


def test_intervene_rejects_label_outside_domain():
    with pytest.raises(ScmError):
        intervene(two_var_model(), "R", "7")


@pytest.mark.parametrize("name", list_examples())
def test_serialize_round_trip_all_fixtures(name):
    s = get_example(name)
    text = serialize_scm(s)
    assert load_scm(text) == s
    assert serialize_scm(load_scm(text)) == text  # byte-stable


def test_serialized_document_shape():
    import json

    doc = json.loads(serialize_scm(two_var_model()))
    assert set(doc) == {"context_variable", "variables", "noises", "mechanisms"}
    assert doc["context_variable"] == "R"
    assert [v["name"] for v in doc["variables"]] == ["R", "X"]
    assert doc["noises"][0]["pmf"] == [["0", "1/2"], ["1", "1/2"]]
    row = doc["mechanisms"][1]["rows"][0]
    assert set(row) == {"parents", "noise", "value"}


def test_load_rejects_malformed_documents():
    with pytest.raises(ScmFormatError):
        load_scm("not json")
    with pytest.raises(ScmFormatError):
        load_scm("[]")
    with pytest.raises(ScmFormatError):
        load_scm('{"context_variable": "R"}')
    good = serialize_scm(two_var_model())
    import json

    doc = json.loads(good)
    doc["noises"][0]["pmf"][0][1] = "1/0"
    with pytest.raises(ScmFormatError):
        load_scm(json.dumps(doc))
    doc = json.loads(good)
    doc["mechanisms"][1]["rows"][0]["parents"] = {"Q": "0"}
    with pytest.raises(ScmFormatError):
        load_scm(json.dumps(doc))


def test_load_rejects_structurally_invalid_model():
    import json

    doc = json.loads(serialize_scm(two_var_model()))
    doc["mechanisms"][1]["rows"] = doc["mechanisms"][1]["rows"][:1]
    with pytest.raises(ScmFormatError):
        load_scm(json.dumps(doc))
