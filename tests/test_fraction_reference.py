"""The integer-weight exact layer against its `Fraction` reference, by `==`.

Suites: the corpus, the 200 models of `verify --count 200 --seed 1`, the
five models of the exact_pipeline benchmark, each with its tampered noise
joint (but a one-row noise joint, which tampering leaves as it is: 9 of the
200 `verify` solves), and random joints whose denominators reach primes near 2**31.  The
solver's integer weights are checked on the suites' models, on `verify`
seeds 2 and 3 and on the wide-denominator model.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from csi_graphlab import laws
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import DistributionError, SolvedModel
from csi_graphlab.independence import (
    CiQuery,
    IndependenceError,
    ci_exact,
    conditional_mutual_information,
    subsets,
)


@pytest.fixture(scope="module")
def suites():
    return {
        "corpus": [SolvedModel.of(get_example(name)) for name in list_examples()],
        "verify": [m.solved for m in ref.verify_models()],
        "pipeline": [m.solved for m in ref.pipeline_models()],
    }


SUITES = ("corpus", "verify", "pipeline")
# the solves of each suite whose noise joint has one row, which `ref.tampered` refuses
ONE_ROW = {"corpus": 0, "verify": 9, "pipeline": 0}


def tampered_suite(suites, suite):
    models = ref.tamperable(suites[suite])
    assert len(suites[suite]) - len(models) == ONE_ROW[suite]
    return [ref.tampered(sm) for sm in models]


def ordered(strata, denominator=None):
    """Groups and cells in their order, masses as `Fraction`s when a
    denominator is given."""
    def mass(w):
        return w if denominator is None else Fraction(w, denominator)

    return [(g, [(c, mass(w)) for c, w in cells.items()]) for g, cells in strata.items()]


def groupings(scope):
    """(by, cols): the whole table, each name against the rest, the halves."""
    yield (), scope
    for i, v in enumerate(scope):
        yield (v,), scope[:i] + scope[i + 1:]
    half = len(scope) // 2
    yield scope[:half], scope[half:]
    yield scope[half:], ()


def assert_strata_match(joint, fractions):
    for by, cols in groupings(joint.scope):
        assert ordered(joint.strata(by, cols), joint.denominator) == ordered(
            fractions.strata(by, cols)
        ), (by, cols)


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except (IndependenceError, DistributionError) as e:
        return type(e), str(e)


def queries(names, context, regimes, max_z):
    for x, y in itertools.combinations(names, 2):
        for z in subsets([v for v in names if v not in (x, y)]):
            if len(z) > max_z:
                break
            yield CiQuery(x, y, z)
            if context not in (x, y, *z):
                for r in regimes:
                    yield CiQuery(x, y, z, r)


@pytest.mark.parametrize("suite", SUITES)
def test_solve_matches_the_reference(suite, suites):
    for sm in suites[suite]:
        ref.assert_solve_matches(sm)


def test_solve_matches_the_reference_on_more_models():
    models = [m.solved for seed in (2, 3) for m in ref.verify_models(seed=seed)]
    for sm in (SolvedModel.of(ref.wide_denominator_model()), *models):
        ref.assert_solve_matches(sm)


def test_tampering_refuses_a_one_row_noise_joint(suites):
    one_row = [sm for sm in suites["verify"] if len(sm.noise_joint.weights) == 1]
    assert len(one_row) == ONE_ROW["verify"]
    for sm in one_row:
        with pytest.raises(ValueError, match="noise joint of two rows or more"):
            ref.tampered(sm)
        # moving half the first row's mass onto the last moves it onto itself
        assert ref.moved_mass(sm, 0, -1, Fraction(1, 2)).noise_joint.table == sm.noise_joint.table


@pytest.mark.parametrize("suite", SUITES)
def test_strata_match_the_reference(suite, suites):
    joints = [joint for sm in suites[suite] for joint in (sm.joint, sm.noise_joint)]
    for joint in joints + [t.noise_joint for t in tampered_suite(suites, suite)]:
        assert_strata_match(joint, ref.fraction_pmf(joint))


@pytest.mark.parametrize("suite", SUITES)
def test_ci_exact_matches_the_reference(suite, suites):
    max_z = 2 if suite == "pipeline" else None
    independent = 0
    # the observable joints, and the marginals of the tampered noise joints
    cases = [(sm, sm.joint, ref.fraction_pmf(sm.joint)) for sm in suites[suite]]
    for t in tampered_suite(suites, suite):
        names = t.table.variables
        cases.append((t, t.noise_joint.marginal(names),
                       ref.fraction_pmf(t.noise_joint).marginal(names)))
    for sm, joint, fractions in cases:
        names = sm.table.variables
        ctx = sm.scm.context_variable
        for q in queries(names, ctx, sm.regimes, len(names) if max_z is None else max_z):
            got = ci_exact(joint, q, context=ctx)
            assert got == ref.ci_exact(fractions, q, context=ctx), q
            independent += got.independent
    assert independent > 0


@pytest.mark.parametrize("suite", SUITES)
def test_local_markov_matches_the_reference(suite, suites):
    failed = 0
    for case in suites[suite] + tampered_suite(suites, suite):
        got = laws.check_local_markov(case.scm, case)
        assert got == ref.check_local_markov(case.scm, case)
        failed += not got.passed
    assert failed > 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_joints_match_the_reference(data):
    scope, table = data.draw(ref.fraction_tables())
    joint = ref.from_table(scope, table)
    fractions = ref.FractionPmf(scope, table)
    assert_strata_match(joint, fractions)
    by = data.draw(st.lists(st.sampled_from(scope), unique=True))
    cols = data.draw(st.lists(st.sampled_from(scope), unique=True))
    assert ordered(joint.strata(by, cols), joint.denominator) == ordered(fractions.strata(by, cols))
    if len(scope) >= 2:
        x, y = data.draw(st.permutations(scope))[:2]
        rest = [v for v in scope if v not in (x, y)]
        z = tuple(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else ()
        context = data.draw(st.sampled_from([None] + [v for v in rest if v not in z]))
        regime = None if context is None else data.draw(st.sampled_from(("0", "1", "2")))
        q = CiQuery(x, y, z, regime)
        assert outcome(ci_exact, joint, q, context) == outcome(ref.ci_exact, fractions, q, context)
        assert outcome(conditional_mutual_information, joint, q, context) == outcome(
            ref.conditional_mutual_information, fractions, q, context
        )

