import copy
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from csi_graphlab import graph_objects, laws
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import JointPmf, SolvedModel
from csi_graphlab.discovery import ExactTester, detect_graph, skeleton_masked, skeleton_pooled
from csi_graphlab.graphs import DirectedGraph
from csi_graphlab.graph_objects import (
    counterfactual_graph,
    descriptive_graph,
    ident_graph,
    is_weakly_regime_acyclic,
    physical_graph,
    support_reduction_witnesses,
    union_graph,
)
from csi_graphlab.laws import _done
from csi_graphlab.rng import derive_seed
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec
from fraction_reference import (
    moved_mass,
    pipeline_models,
    reference_noise_factorization,
    tampered,
    tamperable,
    verify_models,
    wide_denominator_model,
)

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


def test_support_witnesses_are_scanned_once_and_handed_out_as_copies():
    sm = SolvedModel.of(diagonal_model())
    got = support_reduction_witnesses(sm)
    want = copy.deepcopy(got)
    got[0]["rows"][0].append("2")
    got[0]["visible_parents"].append("R")
    got[0]["noise"] = "u1"
    got.append({})
    assert support_reduction_witnesses(sm) == want
    # random_scm scanned its accepted model; the laws read that scan back
    m = laws.random_scm(SPEC)
    with mock.patch.object(graph_objects, "_varies_with", wraps=graph_objects._varies_with) as scan:
        assert support_reduction_witnesses(m.solved) == []
        assert scan.call_count == 0
        assert support_reduction_witnesses(SolvedModel.of(m.scm)) == []
        assert scan.call_count > 0


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
    assert laws.CheckResult("x", passed=True).status == "passed"
    assert laws.CheckResult("x", passed=False, witnesses=({"a": 1},)).status == "failed"
    assert laws.CheckResult("x", passed=True, skipped=True, reason="r").status == "skipped"


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
    # the cap is checked before the skip of a model that is not weakly regime-acyclic
    m = laws.random_scm(replace(SPEC, max_parents=3, seed=369))
    with pytest.raises(laws.LawsError, match="cap"):
        laws.check_noise_factorization(m.scm, m.solved, cap=-1)


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


def test_suite_records_unsolved_models_without_checking_them():
    spec = laws.RandomModelSpec(require=laws.Requirements(solvable=False))
    summary = laws.run_suite(60, spec=spec, seed=1)
    unsolved = [m["index"] for m in summary.models if not m["solved"]]
    assert unsolved == [37, 43, 45, 47, 58]
    assert summary.ok
    assert sorted(summary.tallies) == sorted(c.__name__[6:] for c in laws.DEFAULT_CHECKS)
    for tally in summary.tallies.values():
        assert sum(tally.values()) == 55


# --- graph-family laws: each relation broken once on a corpus model -----------------

def edited(family, add=(), drop=(), regime=None):
    """`family` with edges added and dropped, in one regime or in all of them."""
    def graph(solved, *r):
        g = family(solved, *r)
        if regime is not None and r != (regime,):
            return g
        return DirectedGraph(g.nodes, (g.edges - set(drop)) | set(add))
    return graph


# intro-mediator: pooled R -> M -> T -> Y; both regimes keep the three physical
# edges, and regime 0 describes only R -> M
FAMILY_LAW_WITNESSES = [
    ("edge_inclusions", "physical_graph", dict(drop=[("R", "M")], regime="0"),
     [{"relation": "descriptive_within_physical", "regime": "0", "edge": ("R", "M")}]),
    ("edge_inclusions", "physical_graph", dict(add=[("R", "Y")], regime="1"),
     [{"relation": "physical_within_pooled", "regime": "1", "edge": ("R", "Y")}]),
    ("union_property", "physical_graph", dict(drop=[("M", "T")]),
     [{"relation": "pooled_edge_in_no_physical", "edge": ("M", "T")}]),
    ("union_property", "physical_graph", dict(add=[("R", "Y")], regime="0"),
     [{"relation": "physical_union_exceeds_pooled", "edge": ("R", "Y")}]),
    ("union_property", "descriptive_graph", dict(drop=[("T", "Y")], regime="1"),
     [{"relation": "descriptive_gap_without_rewrite", "edges": [("T", "Y")]}]),
    ("regime_children", "physical_graph", dict(drop=[("M", "T")], regime="0"),
     [{"variable": "T", "regime": "0", "physical_parents": [], "pooled_parents": ["M"]}]),
    ("ident_sandwich", "ident_graph", dict(drop=[("R", "M")], regime="0"),
     [{"relation": "descriptive_within_ident", "regime": "0", "edge": ("R", "M")}]),
    ("ident_sandwich", "ident_graph", dict(add=[("R", "Y")], regime="0"),
     [{"relation": "ident_within_pooled", "regime": "0", "edge": ("R", "Y")},
      {"relation": "ident_within_physical", "regime": "0", "edge": ("R", "Y")}]),
    ("ident_sandwich", "physical_graph", dict(drop=[("M", "T")], regime="1"),
     [{"relation": "ident_within_physical", "regime": "1", "edge": ("M", "T")}]),
]


@pytest.mark.parametrize("law, family, edit, witnesses", FAMILY_LAW_WITNESSES)
def test_family_laws_report_each_broken_relation(law, family, edit, witnesses, monkeypatch):
    s = get_example("intro-mediator")
    sm = SolvedModel.of(s)
    check = getattr(laws, "check_" + law)
    assert check(s, sm).passed
    monkeypatch.setattr(laws, family, edited(getattr(laws, family), **edit))
    res = check(s, sm)
    assert not res.passed
    assert list(res.witnesses) == witnesses


# --- noise factorization: the structural decision, the integer walk and the ---------
# --- Fraction reference side by side -------------------------------------------------

def forced(law, walk, sm, **kwargs):
    """`law` on `sm` with the shared gate reading False, whatever the solve
    has cached; the walk that then decides it must run, on `sm`."""
    with mock.patch.object(laws, "_product_form_gate", lambda solved: False), \
            mock.patch.object(laws, walk, wraps=getattr(laws, walk)) as ran:
        got = law(sm.scm, sm, **kwargs)
    assert [c.args[1] for c in ran.call_args_list] == ([] if got.skipped else [sm])
    return got


def kernel_only(sm, cap=None):
    """The law as the integer walk alone decides it."""
    return forced(laws.check_noise_factorization, "_factorization_kernel", sm, cap=cap)


def walk_only(sm):
    """`check_local_markov` as the barrier walk alone decides it."""
    return forced(laws.check_local_markov, "_local_markov_walk", sm)


def assert_matches_reference(sm, caps=(None,)):
    for cap in caps:
        got = laws.check_noise_factorization(sm.scm, sm, cap=cap)
        assert got == kernel_only(sm, cap) == reference_noise_factorization(sm.scm, sm, cap=cap), cap


def kernel_calls(monkeypatch):
    """Record every call of the integer walk; the law still runs it."""
    calls = []
    kernel = laws._factorization_kernel

    def recording(s, solved, *args):
        calls.append(solved)
        return kernel(s, solved, *args)

    monkeypatch.setattr(laws, "_factorization_kernel", recording)
    return calls


@pytest.fixture(scope="module")
def untampered(solved_examples):
    """The corpus, `verify --count 200 --seed 1` and exact_pipeline solves."""
    models = [sm for _, sm in solved_examples.values()]
    return models + [m.solved for m in verify_models() + pipeline_models()]


def test_untampered_models_never_reach_the_kernel(untampered):
    assert len(untampered) == 216
    caps = (None, 1)
    for sm in untampered:
        with mock.patch.object(
            laws, "_factorization_kernel", side_effect=AssertionError("kernel reached")
        ):
            got = [laws.check_noise_factorization(sm.scm, sm, cap=cap) for cap in caps]
        assert got[0].passed
        assert got == [kernel_only(sm, cap) for cap in caps]
        assert got[1] == reference_noise_factorization(sm.scm, sm, cap=1)


def test_tampered_corpus_joints_reach_the_kernel(solved_examples, monkeypatch):
    calls = kernel_calls(monkeypatch)
    for s, sm in solved_examples.values():
        t = tampered(sm)
        assert not laws.check_noise_factorization(s, t).passed
        assert calls[-1] is t
    assert len(calls) == len(solved_examples)


def test_untampered_models_never_reach_the_walk(untampered):
    for sm in untampered:
        with mock.patch.object(
            laws, "_local_markov_walk", side_effect=AssertionError("walk reached")
        ):
            got = laws.check_local_markov(sm.scm, sm)
        assert got.passed and not got.skipped
        assert got == walk_only(sm)


def test_tampered_corpus_joints_reach_the_walk(solved_examples):
    for s, sm in solved_examples.values():
        t = tampered(sm)
        with mock.patch.object(laws, "_local_markov_walk", wraps=laws._local_markov_walk) as walk:
            assert not laws.check_local_markov(s, t).passed
        assert [c.args[1] for c in walk.call_args_list] == [t]


def with_weights(sm, weights):
    nj = sm.noise_joint
    return replace(sm, noise_joint=JointPmf(nj.scope, weights, nj.denominator))


def joint_rows(sm):
    """The noise joint's (noise, values) rows, in table order."""
    n = len(sm.table.variables)
    return [(key[:n], key[n:]) for key in sm.noise_joint.weights]


def swapped_values(sm):
    """Product-form masses whose rows swap their value tuples: the first pair
    of rows, in table order, whose swap breaks locality on the joint's rows."""
    items = list(sm.noise_joint.weights.items())
    for i, j in itertools.combinations(range(len(items)), 2):
        rows = joint_rows(sm)
        rows[i], rows[j] = (rows[i][0], rows[j][1]), (rows[j][0], rows[i][1])
        t = with_weights(sm, {u + v: w for (u, v), (_, w) in zip(rows, items)})
        if next(laws._locality_violations(sm.scm, t, rows), None) is not None:
            return t
    return None


def duplicated_noise(sm):
    """The last row dropped, and its mass and values moved onto a second row
    with the first row's noise."""
    (first, _), *_, (_, last) = joint_rows(sm)
    *items, (_, w) = sm.noise_joint.weights.items()
    weights = dict(items)
    assert first + last not in weights
    weights[first + last] = w
    return with_weights(sm, weights)


def zero_prior_row(sm):
    """A zero-prior label added to the first variable's noise (its mechanism
    reads it as the first label), and the joint's first row moved onto it."""
    s = sm.scm
    v = s.variable_names[0]
    noise, mech = s.noises[v], s.mechanisms[v]
    label = noise.labels[0]
    table = dict(mech.table)
    table.update({(pa, "zero"): out for (pa, u), out in mech.table.items() if u == label})
    s = replace(
        s,
        noises={**s.noises, v: NoiseSpec(v, noise.pmf + (("zero", Fraction(0)),))},
        mechanisms={**s.mechanisms, v: MechanismTable(v, mech.parents, table)},
    )
    # the key opens with the first variable's noise
    (key, w), *rest = sm.noise_joint.weights.items()
    return replace(with_weights(sm, {("zero", *key[1:]): w, **dict(rest)}), scm=s)


def reversed_rows(sm):
    """The same product-form weights, with the rows in reverse table order."""
    return with_weights(sm, dict(reversed(sm.noise_joint.weights.items())))


def test_adversarial_joints_fall_through_to_the_kernel(solved_examples, monkeypatch):
    calls = kernel_calls(monkeypatch)
    for s, sm in solved_examples.values():
        swapped = swapped_values(sm)
        # the table still spells out the untouched rows, and they are local
        assert swapped is not None and laws.check_solution_locality(s, swapped).passed
        for t in (swapped, duplicated_noise(sm), zero_prior_row(sm), reversed_rows(sm)):
            calls.clear()
            got = laws.check_noise_factorization(t.scm, t)
            assert calls == [t]
            assert got == reference_noise_factorization(t.scm, t)


def lost_support_row(sm, i):
    """The solve with row i of its observable joint, in joint order, dropped;
    the noise joint keeps every row."""
    joint = sm.joint
    key = list(joint.weights)[i]
    weights = {k: w for k, w in joint.weights.items() if k != key}
    return replace(sm, joint=JointPmf(joint.scope, weights, joint.denominator))


def entangled_draw(n_vars, seed):
    """`random_scm`'s first draw at this size and seed, solved."""
    spec = laws.RandomModelSpec(n_vars=n_vars, seed=seed)
    return SolvedModel.of(laws._draw_model(random.Random(derive_seed(seed, 0)), spec))


def test_local_markov_rule_matches_the_walk(solved_examples):
    corpus = [sm for _, sm in solved_examples.values()]
    pipeline = [m.solved for m in pipeline_models()]
    verify = {seed: [m.solved for m in verify_models(200, seed)] for seed in (1, 2, 3)}
    models = corpus + pipeline + [sm for suite in verify.values() for sm in suite]
    # 27 verify solves have a one-row noise joint, which tampering leaves as it is
    kept = tamperable(models)
    assert len(models) - len(kept) == 27
    cases = models + [tampered(sm) for sm in kept]
    for sm in corpus:
        cases += [swapped_values(sm), duplicated_noise(sm), zero_prior_row(sm), reversed_rows(sm)]
    # joints that lost a row which showed a pooled edge: every other premise of the
    # rule holds, and only the joint's tie to the noise joint keeps the rule from
    # passing a law the walk fails
    lost = [lost_support_row(verify[1][55], 3), lost_support_row(pipeline[0], 0)]
    for t in lost:
        assert not support_reduction_witnesses(t) and not laws._solution_violations(t)
        assert not walk_only(t).passed
    # first draws that random_scm rejects as support-entangled: the gate holds, and
    # only their support witnesses keep the rule from passing a law the walk fails
    entangled = [entangled_draw(5, 295), entangled_draw(4, 486)]
    for sm in entangled:
        assert support_reduction_witnesses(sm) and laws._product_form_gate(sm)
        assert not walk_only(sm).passed
    for sm in cases + lost + entangled:
        assert laws.check_local_markov(sm.scm, sm) == walk_only(sm)


@pytest.mark.parametrize("name", list_examples())
def test_factorization_kernel_matches_reference_on_the_corpus(name, solved_examples):
    s, sm = solved_examples[name]
    # caps at or above n check the full variable set and leave no note
    n = len(s.variables)
    caps = (None, 0, 1, 2, n, n + 5)
    assert_matches_reference(sm, caps=caps)
    assert laws.check_noise_factorization(s, sm, cap=n).notes == ()
    t = tampered(sm)
    assert not laws.check_noise_factorization(s, t).passed
    assert_matches_reference(t, caps=caps)


def test_factorization_kernel_matches_reference_on_verify_models():
    models = [m.solved for m in verify_models()]
    for sm in models:
        assert_matches_reference(sm)
    # 9 of the 200 have a one-row noise joint, which tampering leaves as it is
    kept = tamperable(models)
    assert len(kept) == 191
    failed = 0
    for sm in kept:
        t = tampered(sm)
        assert_matches_reference(t)
        failed += not laws.check_noise_factorization(sm.scm, t).passed
    assert failed == 189


def test_local_markov_skips_descriptive_cyclic_variables_without_the_weak_flag(monkeypatch):
    # a draw whose descriptive cycles decide which variables are checked per context
    cyclic = laws.random_scm(laws.RandomModelSpec(n_vars=7, seed=4857737775391808504))
    solves = [m.solved for m in verify_models() + [cyclic] if m.solved is not None]
    cases = [(sm.scm, sm) for sm in solves + [tampered(sm) for sm in tamperable(solves)]]
    fast = [laws.check_local_markov(s, sm) for s, sm in cases]
    # a flag claiming every descriptive graph acyclic changes no verdict: a shortcut
    # on it would hide the cyclic draw's cycles, which changes its verdict (below)
    monkeypatch.setattr(laws, "is_weakly_regime_acyclic", lambda solved: True)
    assert fast == [laws.check_local_markov(s, sm) for s, sm in cases]
    assert any(not r.passed and not r.skipped for r in fast)
    # hiding the cyclic draw's descriptive cycles checks variables the law must skip
    hidden = [descriptive_graph(cyclic.solved, r) for r in cyclic.solved.regimes]
    cyclic_nodes = DirectedGraph.cyclic_nodes
    monkeypatch.setattr(DirectedGraph, "cyclic_nodes", lambda g: (
        frozenset() if any(g is h for h in hidden) else cyclic_nodes(g)))
    assert laws.check_local_markov(cyclic.scm, cyclic.solved) != fast[solves.index(cyclic.solved)]


@pytest.mark.parametrize("n_vars, seed", [(8, 7), (8, 13), (8, 17), (8, 18), (10, 2)])
def test_factorization_kernel_matches_reference_on_larger_models(n_vars, seed):
    m = laws.random_scm(laws.RandomModelSpec(n_vars=n_vars, max_domain=3, seed=seed))
    assert_matches_reference(m.solved)
    assert_matches_reference(tampered(m.solved))


@pytest.fixture(scope="module")
def hypothesis_models(solved_examples):
    drawn = [laws.random_scm(replace(SPEC, n_vars=k, seed=k)).solved for k in (3, 4, 5, 6)]
    return [sm for _, sm in solved_examples.values()] + drawn


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_factorization_kernel_matches_reference_on_moved_mass(data, hypothesis_models):
    sm = data.draw(st.sampled_from(hypothesis_models))
    rows = len(sm.noise_joint.table)
    src = data.draw(st.integers(0, rows - 1))
    dst = data.draw(st.integers(0, rows - 1))
    share = data.draw(st.fractions(0, 1, max_denominator=7))
    assert_matches_reference(moved_mass(sm, src, dst, share), caps=(None, 1))


def test_factorization_kernel_falls_back_to_python_ints_exactly():
    sm = SolvedModel.of(wide_denominator_model())
    denom = sm.noise_joint.denominator
    assert denom == math.lcm(*(p.denominator for p in sm.table.probabilities))
    priors = math.prod(n.pmf[0][1].denominator for n in sm.scm.noises.values())
    assert denom * priors >= 1 << 62
    assert laws.check_noise_factorization(sm.scm, sm).passed
    assert_matches_reference(sm, caps=(None, 1))
    t = tampered(sm)
    assert not laws.check_noise_factorization(sm.scm, t).passed
    assert_matches_reference(t, caps=(None, 1))


# --- invariances ---------------------------------------------------------------------

def renamed_variables(s):
    """The model with its variables renamed so that their sort order reverses."""
    order = sorted(s.variable_names)
    new = {v: "V%03d" % (len(order) - 1 - k) for k, v in enumerate(order)}
    return Scm(
        variables=tuple(VariableSpec(new[v.name], v.domain) for v in s.variables),
        context_variable=new[s.context_variable],
        noises={new[v]: NoiseSpec(new[v], n.pmf) for v, n in s.noises.items()},
        mechanisms={
            new[v]: MechanismTable(new[v], tuple(new[p] for p in m.parents), dict(m.table))
            for v, m in s.mechanisms.items()
        },
    )


def permuted_noise_labels(s):
    """The model with each noise's labels permuted so that their sort order reverses."""
    swap = {}
    for v, n in s.noises.items():
        labels = sorted(n.labels)
        swap[v] = dict(zip(labels, reversed(labels)))
    return Scm(
        variables=s.variables,
        context_variable=s.context_variable,
        noises={
            v: NoiseSpec(v, tuple((swap[v][lbl], p) for lbl, p in n.pmf))
            for v, n in s.noises.items()
        },
        mechanisms={
            v: MechanismTable(
                v, m.parents, {(pa, swap[v][u]): out for (pa, u), out in m.table.items()}
            )
            for v, m in s.mechanisms.items()
        },
    )


def reversed_categories(s):
    """The model with each variable's category labels permuted so that their
    sort order reverses; the domain keeps its positions."""
    swap = {}
    for v in s.variables:
        labels = sorted(v.domain)
        swap[v.name] = dict(zip(labels, reversed(labels)))

    def values(names, row):
        return tuple(swap[n][x] for n, x in zip(names, row))

    return Scm(
        variables=tuple(VariableSpec(v.name, values([v.name] * len(v.domain), v.domain))
                        for v in s.variables),
        context_variable=s.context_variable,
        noises=s.noises,
        mechanisms={
            v: MechanismTable(
                v, m.parents,
                {(values(m.parents, pa), u): swap[v][out] for (pa, u), out in m.table.items()},
            )
            for v, m in s.mechanisms.items()
        },
    )


def verdicts(s, solved=None):
    solved = solved if solved is not None else SolvedModel.of(s)
    return [(r.name, r.passed, r.skipped) for r in (chk(s, solved) for chk in laws.DEFAULT_CHECKS)]


@pytest.fixture(scope="module")
def invariance_models(solved_examples):
    spec = laws.RandomModelSpec(n_vars=5, max_domain=3)
    drawn = [
        laws.random_scm(replace(spec, n_vars=2 + i % 4, seed=derive_seed(11, i)))
        for i in range(40)
    ]
    # and the stratum-cycle draw of test_checks_skip_hypotheses_they_cannot_assume
    drawn.append(laws.random_scm(replace(SPEC, max_parents=3, seed=369)))
    return list(solved_examples.values()) + [(m.scm, m.solved) for m in drawn]


@pytest.mark.parametrize("relabel", [renamed_variables, permuted_noise_labels])
def test_law_verdicts_survive_relabeling(relabel, invariance_models):
    assert len(invariance_models) == 52
    changed = skipped = 0
    for s, sm in invariance_models:
        relabeled = relabel(s)
        changed += relabeled != s
        want = verdicts(s, sm)
        assert verdicts(relabeled) == want
        skipped += sum(skip for _, _, skip in want)
    assert changed >= 45 and skipped >= 3


def structures(solved, names, regimes):
    """Every graph family and exact skeleton of one solve, keyed by regime,
    with the nodes renamed by `names` and the regimes by `regimes`."""

    def edges(g):
        return {tuple(names[v] for v in e) for e in g.edges}

    def pairs(sk):
        return {frozenset(names[v] for v in p) for p in sk.pairs}

    t = ExactTester(solved)
    out = {"union": edges(union_graph(solved)), "pooled": pairs(skeleton_pooled(t))}
    for r in solved.regimes:
        for family in (descriptive_graph, physical_graph, counterfactual_graph, ident_graph):
            out[family.__name__, regimes[r]] = edges(family(solved, r))
        out["masked", regimes[r]] = pairs(skeleton_masked(t, r))
        out["detect", regimes[r]] = pairs(detect_graph(t, r))
    return out


@pytest.fixture(scope="module")
def structure_models(solved_examples):
    drawn = [
        laws.random_scm(laws.RandomModelSpec(n_vars=n, seed=k)).solved
        for n in (3, 4, 5) for k in range(30)
    ]
    return [sm for _, sm in solved_examples.values()] + drawn


@pytest.mark.parametrize("relabel", [renamed_variables, reversed_categories])
def test_graphs_and_skeletons_survive_relabeling(relabel, structure_models):
    """Graph families and exact skeletons map through a renaming of the
    variables and through a permutation of each variable's categories."""
    assert len(structure_models) == 101
    changed = 0
    for sm in structure_models:
        s = sm.scm
        relabeled = relabel(s)
        changed += relabeled != s
        names = dict(zip(s.variable_names, relabeled.variable_names))
        ctx, new_ctx = s.context_variable, relabeled.context_variable
        regimes = dict(zip(s.domain(ctx), relabeled.domain(new_ctx)))
        want = structures(sm, names, regimes)
        got = structures(SolvedModel.of(relabeled), {v: v for v in names.values()},
                         {r: r for r in regimes.values()})
        assert got == want
    assert changed == len(structure_models)
