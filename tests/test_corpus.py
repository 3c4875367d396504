from fractions import Fraction

import pytest

from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import SolvedModel, joint_pmf
from csi_graphlab.scm import validate_scm

ALL = [
    "cf-example",
    "exo-gate",
    "fig1-change-gated",
    "fig1-change-overlap",
    "fig1-nochange-gated",
    "fig1-nochange-overlap",
    "intro",
    "intro-mediator",
    "non-markov(1/3)",
    "not-strong-faithful",
    "p1-limit",
]


def test_listing_is_sorted_and_complete():
    assert list_examples() == ALL


@pytest.mark.parametrize("name", ALL)
def test_every_fixture_validates_and_solves(name):
    s = get_example(name)
    assert validate_scm(s) == []
    SolvedModel.of(s)  # raises if not uniquely solvable


def test_unknown_name_rejected():
    from csi_graphlab.scm import ScmError

    with pytest.raises(ScmError, match="available"):
        get_example("no-such-model")


def test_non_markov_weight_is_parametric():
    third = get_example("non-markov(1/3)")
    assert dict(third.noises["R"].pmf)["1"] == Fraction(1, 3)
    half = get_example("non-markov(1/2)")
    assert dict(half.noises["R"].pmf)["1"] == Fraction(1, 2)
    assert half.mechanisms == third.mechanisms


def test_p1_limit_pins_context():
    joint = joint_pmf(get_example("p1-limit"))
    assert joint.marginal(("R",)).table == {("0",): Fraction(1)}


def test_intro_context_split():
    joint = joint_pmf(get_example("intro"))
    cond0 = joint.conditional({"R": "0"})
    assert cond0.mass({"T": "-1"}) == Fraction(1)
    cond1 = joint.conditional({"R": "1"})
    assert cond1.mass({"T": "+1"}) == Fraction(1, 2)


def test_cf_example_never_exposes_forcing_pair():
    joint = joint_pmf(get_example("cf-example"))
    assert joint.mass({"X": "+1", "R": "1"}) == Fraction(0)
    assert joint.mass({"X": "-1", "R": "1"}) > 0
