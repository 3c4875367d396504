from dataclasses import replace
from fractions import Fraction

import pytest

from csi_graphlab import laws
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import SolvedModel
from csi_graphlab.graph_objects import (
    descriptive_graph,
    ident_graph,
    is_weakly_regime_acyclic,
    support_reduction_witnesses,
    union_graph,
)
from csi_graphlab.rng import derive_seed
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec

SPEC = laws.RandomModelSpec(n_vars=4, max_domain=3, max_parents=2, seed=5)


@pytest.fixture(scope="module")
def solved_examples():
    out = {}
    for name in list_examples():
        s = get_example(name)
        out[name] = (s, SolvedModel.of(s))
    return out


def diagonal_model():
    """Solvable model whose Y mechanism only varies across diagonal support.

    A copies the context, Y copies A, so the joint support of (A, R) is the
    diagonal and no single argument of Y is visible anywhere.  Extensionally
    Y still changes between support rows, which no visible-parent graph can
    explain.
    """
    half = Fraction(1, 2)
    b = ("0", "1")
    return Scm(
        variables=(VariableSpec("R", b), VariableSpec("A", b), VariableSpec("Y", b)),
        context_variable="R",
        noises={
            "R": NoiseSpec("R", (("u0", half), ("u1", half))),
            "A": NoiseSpec("A", (("u0", Fraction(1)),)),
            "Y": NoiseSpec("Y", (("u0", Fraction(1)),)),
        },
        mechanisms={
            "R": MechanismTable.from_function(
                "R", (), (), ("u0", "u1"), lambda n: b[n == "u1"]
            ),
            "A": MechanismTable.from_function(
                "A", ("R",), (b,), ("u0",), lambda r, n: r
            ),
            "Y": MechanismTable.from_function(
                "Y", ("A", "R"), (b, b), ("u0",), lambda a, r, n: a
            ),
        },
    )


@pytest.mark.parametrize("name", list_examples())
def test_every_fixture_passes_every_check(name, solved_examples):
    s, sm = solved_examples[name]
    for chk in laws.DEFAULT_CHECKS:
        res = chk(s, sm)
        assert res.passed, (name, res.name, res.witnesses)
        assert not res.skipped, (name, res.name, res.reason)


@pytest.mark.parametrize("name", list_examples())
def test_fixture_support_is_not_entangled(name, solved_examples):
    s, sm = solved_examples[name]
    assert support_reduction_witnesses(sm) == []


def test_unfaithful_fixture_passes_with_the_rewrite_note(solved_examples):
    s, sm = solved_examples["not-strong-faithful"]
    res = laws.check_union_property(s, sm)
    assert res.passed
    assert res.notes == (
        "descriptive union misses 1 pooled edge(s); mechanism rewrite witnessed",
    )
    s2, sm2 = solved_examples["intro"]
    assert laws.check_union_property(s2, sm2).notes == ()


def test_masked_edge_reappears_in_the_audit_graph(solved_examples):
    # the only pooled X-Y dependence routes through the fine-tuned regime b0,
    # so the stratum graph drops it while the audit graph keeps it testable
    s, sm = solved_examples["non-markov(1/3)"]
    assert ("X", "Y") not in descriptive_graph(sm, "b0").edges
    assert ("X", "Y") in ident_graph(sm, "b0").edges
    res = laws.check_markov(s, sm)
    assert res.passed and not res.skipped


def test_entangled_support_is_detected_and_breaks_locality():
    s = diagonal_model()
    sm = SolvedModel.of(s)
    assert sorted(union_graph(sm).parents("Y")) == []
    assert support_reduction_witnesses(sm) == [
        {
            "variable": "Y",
            "clause": "pooled",
            "regime": None,
            "visible_parents": [],
            "rows": [["0", "0"], ["1", "1"]],
            "noise": "u0",
        }
    ]
    res = laws.check_solution_locality(s, sm)
    assert not res.passed
    assert res.witnesses[0]["variable"] == "Y"
    assert res.witnesses[0]["clause"] == "pooled"


def test_sampler_rejects_entangled_draws():
    # first draw at this seed is solvable but support-entangled
    spec = replace(SPEC, n_vars=4, max_parents=3, seed=545292510419526577)
    m = laws.random_scm(spec)
    assert m.rejections == {"support_entangled": 1}
    assert m.attempts == 2
    assert support_reduction_witnesses(m.solved) == []


def test_sampler_rejects_oversized_draws():
    # the first draws at this seed exceed the solver's size guard
    spec = laws.RandomModelSpec(n_vars=16, max_domain=8, seed=0)
    with pytest.raises(laws.LawsError, match=r"rejections: too_large=3\)"):
        laws.random_scm(spec, max_attempts=3)
    unsolved = laws.random_scm(replace(spec, require=laws.Requirements(solvable=False)))
    assert (unsolved.attempts, unsolved.solved) == (1, None)


def test_random_models_are_reproducible():
    a = laws.random_scm(laws.RandomModelSpec(seed=3))
    b = laws.random_scm(laws.RandomModelSpec(seed=3))
    assert a.scm == b.scm
    assert (a.attempts, a.rejections) == (b.attempts, b.rejections)
    c = laws.random_scm(laws.RandomModelSpec(seed=4))
    assert c.scm != a.scm


def test_rejections_are_tallied():
    m = laws.random_scm(laws.RandomModelSpec(n_vars=5, max_domain=3, seed=0))
    assert m.attempts == 2
    assert m.rejections == {"unsolvable": 1}
    assert m.solved is not None


def test_attempt_cap_raises():
    spec = laws.RandomModelSpec(n_vars=5, max_domain=3, seed=0)
    with pytest.raises(laws.LawsError, match=r"1 attempts.*unsolvable=1"):
        laws.random_scm(spec, max_attempts=1)


def test_single_variable_model_is_context_only():
    m = laws.random_scm(laws.RandomModelSpec(n_vars=1, max_domain=3, seed=2))
    assert m.scm.variable_names == ("R",)
    for chk in laws.DEFAULT_CHECKS:
        res = chk(m.scm, m.solved)
        assert res.passed and not res.skipped, res
    notes = laws.check_noise_factorization(m.scm, m.solved).notes
    assert notes == ("conditioning sets of more than 0 variables not checked",)


def test_spec_validation():
    with pytest.raises(laws.LawsError, match="n_vars"):
        laws.RandomModelSpec(n_vars=0)
    with pytest.raises(laws.LawsError, match="max_domain"):
        laws.RandomModelSpec(max_domain=1)
    with pytest.raises(laws.LawsError, match="max_domain"):
        laws.RandomModelSpec(max_domain=9)
    with pytest.raises(laws.LawsError, match="max_parents"):
        laws.RandomModelSpec(max_parents=-1)


def test_check_result_validation():
    with pytest.raises(laws.LawsError, match="needs a reason"):
        laws.CheckResult("x", passed=True, skipped=True)
    with pytest.raises(laws.LawsError, match="cannot fail"):
        laws.CheckResult(
            "x", passed=True, skipped=True, reason="r", witnesses=({"a": 1},)
        )
    with pytest.raises(laws.LawsError, match="at least one witness"):
        laws.CheckResult("x", passed=False)


def test_checks_skip_hypotheses_they_cannot_assume():
    # this seed draws a solvable model with a stratum cycle
    m = laws.random_scm(replace(SPEC, max_parents=3, seed=369))
    assert not is_weakly_regime_acyclic(m.solved)
    for chk in (laws.check_solution_locality, laws.check_noise_factorization):
        res = chk(m.scm, m.solved)
        assert res.skipped and res.passed
        assert res.reason == "model is not weakly regime-acyclic"
    res = laws.check_markov(m.scm, m.solved)
    assert res.skipped
    assert res.reason == "model is not strongly regime-acyclic"
    res = laws.check_ident_sandwich(m.scm, m.solved)
    assert res.passed
    assert res.notes == (
        "ident-within-physical clause not checked: model is not strongly regime-acyclic",
    )


def test_factorization_cap_note(solved_examples):
    s, sm = solved_examples["intro"]
    res = laws.check_noise_factorization(s, sm, cap=1)
    assert res.passed
    assert res.notes == ("conditioning sets of more than 1 variables not checked",)
    with pytest.raises(laws.LawsError, match="cap"):
        laws.check_noise_factorization(s, sm, cap=-1)


def test_empty_suite():
    assert laws.run_suite(0).to_dict() == {
        "count": 0,
        "seed": 0,
        "ok": True,
        "tallies": {},
        "failures": [],
        "rejections": {},
        "models": [],
    }
    with pytest.raises(laws.LawsError, match="count"):
        laws.run_suite(-1)


def test_suite_is_deterministic_and_clean():
    a = laws.run_suite(12, spec=SPEC)
    b = laws.run_suite(12, spec=SPEC)
    assert a.to_dict() == b.to_dict()
    assert a.ok
    assert len(a.models) == 12
    # sizes cycle through 2..n_vars and seeds derive from the suite seed
    assert [m["n_vars"] for m in a.models] == [2, 3, 4] * 4
    assert a.models[7]["seed"] == derive_seed(SPEC.seed, 7)
    assert sorted(a.tallies) == sorted(c.__name__[6:] for c in laws.DEFAULT_CHECKS)
    for tally in a.tallies.values():
        assert tally["failed"] == 0


def test_suite_records_failures_and_skips():
    def failing(s, solved=None):
        return laws.CheckResult(
            "failing", passed=False, witnesses=({"variable": "x"},)
        )

    def skipping(s, solved=None):
        return laws.CheckResult("skipping", passed=True, skipped=True, reason="why")

    summary = laws.run_suite(3, spec=SPEC, checks=(failing, skipping))
    assert not summary.ok
    assert summary.tallies["failing"]["failed"] == 3
    assert summary.tallies["skipping"]["skipped"] == 3
    first = summary.failures[0]
    assert first["check"] == "failing"
    assert first["model_index"] == 0
    assert first["model_seed"] == derive_seed(SPEC.seed, 0)
    assert first["witnesses"] == [{"variable": "x"}]
