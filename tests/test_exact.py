import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csi_graphlab import exact
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import (
    ComplexityError,
    DistributionError,
    NotUniquelySolvableError,
    SolvedModel,
    UnsolvableModelError,
    _condensation_order,
    declared_graph,
    draw_samples,
    first_dependence,
    joint_pmf,
    noise_name,
    noise_observable_joint,
    solve_all,
)
from csi_graphlab.data import Dataset
from csi_graphlab.laws import RandomModelSpec, _draw_model, random_scm
from csi_graphlab.rng import derive_seed, uniform_thresholds_index
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec
from fraction_reference import FractionPmf, fraction_tables, from_table

H = Fraction(1, 2)


def coin(name):
    return NoiseSpec(name, (("0", H), ("1", H)))


def point(name):
    return NoiseSpec(name, (("0", Fraction(1)),))


def cyclic_pair(f_a, f_b, noise_a=None, noise_b=None):
    variables = (VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1")))
    noises = {"A": noise_a or point("A"), "B": noise_b or point("B")}
    dom = [("0", "1")]
    mechanisms = {
        "A": MechanismTable.from_function("A", ("B",), dom, noises["A"].labels, f_a),
        "B": MechanismTable.from_function("B", ("A",), dom, noises["B"].labels, f_b),
    }
    return Scm(variables, "A", noises, mechanisms)


# Independent oracle for the intro fixture: each (noise tuple) row worked out
# by hand from the mechanism definitions.
INTRO_JOINT = {
    ("0", "-1", "0"): Fraction(1, 4),
    ("0", "-1", "1"): Fraction(1, 4),
    ("1", "-1", "0"): Fraction(1, 8),
    ("1", "-1", "1"): Fraction(1, 8),
    ("1", "+1", "1"): Fraction(1, 8),
    ("1", "+1", "2"): Fraction(1, 8),
}


def test_intro_joint_matches_hand_enumeration():
    joint = joint_pmf(get_example("intro"))
    assert joint.scope == ("R", "T", "Y")
    assert {k: v for k, v in joint.table.items() if v} == INTRO_JOINT


def test_marginal_and_conditional_on_intro():
    joint = joint_pmf(get_example("intro"))
    r = joint.marginal(("R",))
    assert r.table == {("0",): H, ("1",): H}
    cond = joint.conditional({"R": "0"})
    assert cond.mass({"T": "-1"}) == Fraction(1)
    assert cond.mass({"T": "+1"}) == Fraction(0)
    from csi_graphlab.exact import DistributionError

    with pytest.raises(DistributionError):
        joint.conditional({"T": "+1", "R": "0"})  # zero-probability event


def test_strata_group_and_sum_in_first_appearance_order():
    joint = joint_pmf(get_example("intro"))

    def masses(strata):
        d = joint.denominator
        return {g: {c: Fraction(w, d) for c, w in cells.items()} for g, cells in strata.items()}

    strata = joint.strata(("R",), ("T",))
    assert masses(strata) == {
        ("0",): {("-1",): H},
        ("1",): {("-1",): Fraction(1, 4), ("+1",): Fraction(1, 4)},
    }
    assert list(strata) == list(dict.fromkeys(key[:1] for key in joint.table))
    assert masses(joint.strata((), ())) == {(): {(): Fraction(1)}}
    assert joint.mass({}) == Fraction(1)


def test_first_dependence_returns_the_first_sorted_failure():
    q = Fraction(1, 4)
    assert first_dependence({("a", "x"): q, ("a", "y"): q, ("b", "x"): 2 * q}, 1) == (
        ("a",), ("x",)
    )
    product = {(a, b, c): q / 2 for a in "01" for b in "01" for c in "01"}
    assert first_dependence(product, 1) is None
    assert first_dependence(product, 2) is None
    del product[("1", "1", "1")]
    assert first_dependence(product, 2) == (("0", "0"), ("0",))


@settings(max_examples=200, deadline=None)
@given(drawn=fraction_tables())
def test_from_table_round_trips(drawn):
    scope, table = drawn
    joint = from_table(scope, table)
    assert joint.table == table
    assert list(joint.table) == list(table)
    assert joint.denominator == math.lcm(*(p.denominator for p in table.values()))
    assert all(type(w) is int and w > 0 for w in joint.weights.values())


@settings(max_examples=200, deadline=None)
@given(drawn=fraction_tables(), data=st.data())
def test_marginal_conditional_and_mass_match_the_fraction_reference(drawn, data):
    scope, table = drawn
    joint = from_table(scope, table)
    fractions = FractionPmf(scope, table)
    names = data.draw(st.lists(st.sampled_from(scope), min_size=1, unique=True))
    assert list(joint.marginal(names).table.items()) == list(fractions.marginal(names).table.items())
    assert joint.support(names) == fractions.support(names)
    row = data.draw(st.sampled_from(sorted(table)))
    given_names = data.draw(st.lists(st.sampled_from(scope), unique=True))
    partial = {v: row[scope.index(v)] for v in given_names}
    assert list(joint.conditional(partial).table.items()) == list(
        fractions.conditional(partial).table.items()
    )
    assert joint.mass(partial) == fractions.mass(partial)
    elsewhere = {v: data.draw(st.sampled_from(("0", "1", "2", "3"))) for v in given_names}
    assert joint.mass(elsewhere) == fractions.mass(elsewhere)


def test_one_row_table():
    joint = from_table(("A", "B"), {("0", "1"): Fraction(2, 3)})
    assert (joint.weights, joint.denominator) == ({("0", "1"): 2}, 3)
    assert joint.table == {("0", "1"): Fraction(2, 3)}
    assert joint.marginal(("B",)).table == {("1",): Fraction(2, 3)}
    assert joint.conditional({"A": "0"}).table == {("0", "1"): Fraction(1)}
    assert joint.mass({}) == joint.mass({"B": "1"}) == Fraction(2, 3)
    assert joint.strata(("A",), ("B",)) == {("0",): {("1",): 2}}
    assert first_dependence(joint.strata((), ("A", "B"))[()], 1) is None


def test_empty_stratum():
    joint = joint_pmf(get_example("intro"))
    # T = +1 never happens in regime 0
    assert ("0", "+1") not in joint.strata(("R", "T"), ("Y",))
    assert joint.mass({"R": "0", "T": "+1"}) == Fraction(0)
    with pytest.raises(DistributionError):
        joint.conditional({"R": "0", "T": "+1"})
    empty = from_table(("A",), {})
    assert (empty.weights, empty.denominator, empty.table) == ({}, 1, {})
    assert empty.strata((), ("A",)) == {}
    assert empty.mass({}) == Fraction(0)
    with pytest.raises(DistributionError):
        empty.conditional({"A": "0"})


def test_noise_observable_joint_scope_and_consistency():
    s = get_example("intro")
    nj = noise_observable_joint(s)
    assert nj.scope == (
        noise_name("R"), noise_name("T"), noise_name("Y"), "R", "T", "Y",
    )
    assert nj.marginal(("R", "T", "Y")).table == joint_pmf(s).table


def test_unsolvable_negation_cycle():
    s = cyclic_pair(lambda b, n: b, lambda a, n: "1" if a == "0" else "0")
    with pytest.raises(UnsolvableModelError) as info:
        solve_all(s)
    assert info.value.noise_assignment == {"A": "0", "B": "0"}


def test_non_unique_copy_cycle():
    s = cyclic_pair(lambda b, n: b, lambda a, n: a)
    with pytest.raises(NotUniquelySolvableError) as info:
        solve_all(s)
    assert set(info.value.solutions) == {("0", "0"), ("1", "1")}


def test_noise_dependent_multiplicity_reported_first():
    # A = B xor n, B = A.  With n=0 both fixed points survive; with n=1 none.
    s = cyclic_pair(
        lambda b, n: b if n == "0" else ("1" if b == "0" else "0"),
        lambda a, n: a,
        noise_a=coin("A"),
    )
    with pytest.raises(NotUniquelySolvableError):
        solve_all(s)


def test_complexity_guard():
    with pytest.raises(ComplexityError):
        solve_all(get_example("intro"), max_pairs=1)
    # 8 noise cells x (2 + 2 + 3) candidates over the singleton blocks R, T, Y
    solve_all(get_example("intro"), max_pairs=56)
    with pytest.raises(ComplexityError, match="56 exceeds max_pairs=55"):
        solve_all(get_example("intro"), max_pairs=55)
    # 2 noise cells x (2 * 2) candidates over the one block {A, B}
    s = cyclic_pair(lambda b, n: b, lambda a, n: "0", noise_a=coin("A"))
    solve_all(s, max_pairs=8)
    with pytest.raises(ComplexityError):
        solve_all(s, max_pairs=7)


def test_declared_graph_lists_mechanism_arrows():
    g = declared_graph(get_example("intro-mediator"))
    assert sorted(g.edges) == [("M", "T"), ("R", "M"), ("T", "Y")]


def naive_solve(s):
    """Global brute force: independent oracle for the component-wise solver."""
    names = s.variable_names
    rows = {}
    for combo in itertools.product(*(s.noise(v).support for v in names)):
        eta = dict(zip(names, combo))
        survivors = []
        for values in itertools.product(*(s.domain(v) for v in names)):
            trial = dict(zip(names, values))
            if all(
                s.mechanism(v).value(
                    tuple(trial[p] for p in s.mechanism(v).parents), eta[v]
                )
                == trial[v]
                for v in names
            ):
                survivors.append(trial)
        if not survivors:
            raise UnsolvableModelError("no solution", eta)
        if len(survivors) > 1:
            raise NotUniquelySolvableError("multiple", eta, survivors)
        rows[combo] = survivors[0]
    return rows


def random_model(rng, n_vars, cyclic=False):
    names = [f"V{i}" for i in range(n_vars)]
    variables = tuple(
        VariableSpec(v, tuple(str(k) for k in range(rng.randint(2, 3))))
        for v in names
    )
    dom = {v.name: v.domain for v in variables}
    noises = {}
    for v in names:
        labels = [str(k) for k in range(rng.randint(1, 2))]
        weights = [Fraction(rng.randint(1, 3)) for _ in labels]
        total = sum(weights)
        noises[v] = NoiseSpec(v, tuple((l, w / total) for l, w in zip(labels, weights)))
    mechanisms = {}
    for i, v in enumerate(names):
        pool = names[:i] if not cyclic else [u for u in names if u != v]
        parents = tuple(sorted(rng.sample(pool, rng.randint(0, min(2, len(pool))))))
        table = {}
        for pa in itertools.product(*(dom[p] for p in parents)):
            for n in noises[v].labels:
                table[(pa, n)] = rng.choice(dom[v])
        mechanisms[v] = MechanismTable(v, parents, table)
    return Scm(variables, names[0], noises, mechanisms)


def test_solver_agrees_with_global_brute_force():
    rng = random.Random(20240817)
    solved = failed = 0
    for trial in range(200):
        s = random_model(rng, rng.randint(2, 4), cyclic=rng.random() < 0.6)
        try:
            expected = naive_solve(s)
        except UnsolvableModelError:
            expected = UnsolvableModelError
        except NotUniquelySolvableError:
            expected = NotUniquelySolvableError
        if isinstance(expected, dict):
            table = solve_all(s)
            got = dict(zip(table.noise_assignments, table.values))
            want = {
                combo: tuple(row[v] for v in s.variable_names)
                for combo, row in expected.items()
            }
            assert got == want
            solved += 1
        else:
            with pytest.raises(expected):
                solve_all(s)
            failed += 1
    assert solved >= 20 and failed >= 20  # both branches exercised


def test_dead_branch_in_an_upstream_block_is_not_a_second_solution():
    # Block {A, B} (A = B, B = A) has two local solutions.  Downstream, block
    # {C, D} has the fixed point C = D = 0 when A = 0 and none when A = 1, so
    # the model as a whole has exactly one solution.
    bit = ("0", "1")
    flip = {"0": "1", "1": "0"}
    variables = tuple(VariableSpec(v, bit) for v in "RABCD")
    noises = {v: point(v) for v in "RABCD"}
    mechanisms = {
        "R": MechanismTable.from_function("R", (), [], ("0",), lambda n: "0"),
        "A": MechanismTable.from_function("A", ("B",), [bit], ("0",), lambda b, n: b),
        "B": MechanismTable.from_function("B", ("A",), [bit], ("0",), lambda a, n: a),
        "C": MechanismTable.from_function(
            "C", ("A", "D"), [bit, bit], ("0",),
            lambda a, d, n: "0" if a == "0" else flip[d],
        ),
        "D": MechanismTable.from_function("D", ("C",), [bit], ("0",), lambda c, n: c),
    }
    s = Scm(variables, "R", noises, mechanisms)
    assert _condensation_order(s) == [("A", "B"), ("C", "D"), ("R",)]
    table = solve_all(s)
    assert table.values == (("0", "0", "0", "0", "0"),)
    assert table.probabilities == (Fraction(1),)


def _solve_outcome(s):
    try:
        t = solve_all(s)
    except NotUniquelySolvableError as e:
        return ("non-unique", sorted(e.noise_assignment.items()), e.solutions)
    except UnsolvableModelError as e:
        return ("unsolvable", sorted(e.noise_assignment.items()))
    return ("solved", t.variables, t.noise_assignments, t.probabilities, t.values)


# sha256 over the block order and solve outcome of every model of
# `_pinned_models`: 1,911 solved, 256 unsolvable and 244 not uniquely solvable
SOLVER_PIN = "45c3c7ac2c34456230d94a44dc27973acab3c8eb03883ed862818bd78aaa1a03"


def _pinned_models():
    for name in list_examples():
        yield get_example(name)
    rng = random.Random(7)
    for _ in range(1500):
        yield random_model(rng, rng.randint(2, 6), cyclic=rng.random() < 0.7)
    for n in range(2, 8):
        for k in range(150):
            spec = RandomModelSpec(n_vars=n, seed=k)
            yield _draw_model(random.Random(derive_seed(k, 0)), spec)


def test_block_order_and_solve_outcomes_are_pinned():
    h = hashlib.sha256()
    for s in _pinned_models():
        h.update(repr((_condensation_order(s), _solve_outcome(s))).encode())
    assert h.hexdigest() == SOLVER_PIN


def test_solved_model_regimes():
    assert SolvedModel.of(get_example("intro")).regimes == ("0", "1")
    assert SolvedModel.of(get_example("p1-limit")).regimes == ("0",)
    assert SolvedModel.of(get_example("non-markov(1/3)")).regimes == (
        "a0", "a1", "b0", "b1",
    )


def test_draw_samples_deterministic_and_calibrated():
    s = get_example("intro")
    d1 = draw_samples(s, 5000, seed=7)
    d2 = draw_samples(s, 5000, seed=7)
    assert (d1.codes == d2.codes).all()
    assert d1.columns == ("R", "T", "Y")
    r = d1.column("R")
    freq = (r == d1.code_of("R", "0")).mean()
    assert abs(freq - 0.5) < 0.03
    d3 = draw_samples(s, 5000, seed=8)
    assert not (d1.codes == d3.codes).all()


def test_draw_samples_respects_joint_support():
    s = get_example("intro")
    d = draw_samples(s, 2000, seed=3)
    seen = {
        tuple(d.categories[c][d.codes[i, j]] for j, c in enumerate(d.columns))
        for i in range(d.codes.shape[0])
    }
    assert seen <= set(INTRO_JOINT)


def _reference_thresholds(table):
    """`draw_samples`' inverse-CDF thresholds from a running Fraction sum."""
    cum = Fraction(0)
    thresholds = []
    for prob in table.probabilities[:-1]:
        cum += prob
        scaled = cum * (1 << 64)
        thresholds.append(min(-(-scaled.numerator // scaled.denominator), (1 << 64) - 1))
    return np.array(thresholds, dtype=np.uint64)


def test_draw_samples_matches_the_fraction_reference(monkeypatch):
    seen = []

    def recording(thr, seed, n):
        seen.append(thr)
        return uniform_thresholds_index(thr, seed, n)

    monkeypatch.setattr(exact, "uniform_thresholds_index", recording)
    models = [get_example(name) for name in list_examples()]
    models += [random_scm(RandomModelSpec(n_vars=n, seed=k)).scm
               for n in range(2, 7) for k in range(10)]
    assert len(models) == len(list_examples()) + 50
    for s in models:
        table = solve_all(s)
        want = _reference_thresholds(table)
        domains = {v.name: v.domain for v in s.variables}
        rows = Dataset.from_rows(table.variables, table.values, domains).codes
        for n, seed in ((1, 0), (300, 5), (2000, 11)):
            got = draw_samples(s, n, seed, table)
            assert (seen.pop() == want).all()
            assert (got.codes == rows[uniform_thresholds_index(want, seed, n)]).all()


def test_draw_samples_empty():
    d = draw_samples(get_example("intro"), 0, seed=1)
    assert d.codes.shape == (0, 3)
