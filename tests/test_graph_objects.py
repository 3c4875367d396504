import hashlib
import json
import random
from collections import Counter

import pytest

from csi_graphlab import graph_objects, laws
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.discovery import markov_check
from csi_graphlab.exact import SolvedModel, SolveError
from csi_graphlab.graph_objects import (
    check_R_faithfulness,
    check_strong_R_faithfulness,
    counterfactual_graph,
    descriptive_graph,
    ground_truth,
    ident_graph,
    is_strongly_regime_acyclic,
    is_weakly_regime_acyclic,
    mechanism_graph,
    observable_graph,
    physical_graph,
    support_reduction_witnesses,
    union_graph,
)
from csi_graphlab.graphs import DirectedGraph, acyclify, union_graphs
from csi_graphlab.laws import RandomModelSpec, _draw_model
from csi_graphlab.rng import derive_seed
from csi_graphlab.scm import ScmError
from fraction_reference import pipeline_models, verify_models
from graph_reference import assert_families_match


def edges(g):
    return sorted(g.edges)


def solved(name):
    return SolvedModel.of(get_example(name))


# Expected edge sets derived by hand from each fixture's mechanism tables
# and exact distribution (support-restricted non-constancy per regime).
EXPECTED = {
    "intro": {
        "union": [("R", "T"), ("T", "Y")],
        "descriptive": {"0": [("R", "T")], "1": [("R", "T"), ("T", "Y")]},
        "physical": {
            "0": [("R", "T"), ("T", "Y")],
            "1": [("R", "T"), ("T", "Y")],
        },
        "counterfactual": {"0": [("R", "T")], "1": [("R", "T"), ("T", "Y")]},
        "ident": {"0": [("R", "T")], "1": [("R", "T"), ("T", "Y")]},
    },
    "intro-mediator": {
        "union": [("M", "T"), ("R", "M"), ("T", "Y")],
        "descriptive": {
            "0": [("R", "M")],
            "1": [("M", "T"), ("R", "M"), ("T", "Y")],
        },
        "physical": {
            "0": [("M", "T"), ("R", "M"), ("T", "Y")],
            "1": [("M", "T"), ("R", "M"), ("T", "Y")],
        },
    },
    "exo-gate": {
        "union": [("R", "Y"), ("X", "Y")],
        "descriptive": {"0": [("R", "Y")], "1": [("R", "Y"), ("X", "Y")]},
        "physical": {"0": [("R", "Y")], "1": [("R", "Y"), ("X", "Y")]},
        "counterfactual": {"0": [("R", "Y")], "1": [("R", "Y"), ("X", "Y")]},
        "ident": {"0": [("R", "Y")], "1": [("R", "Y"), ("X", "Y")]},
    },
    "non-markov(1/3)": {
        "union": [("X", "R"), ("X", "Y"), ("Y", "R")],
        "descriptive": {
            "a0": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "a1": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "b0": [("X", "R"), ("Y", "R")],
            "b1": [("X", "R"), ("Y", "R")],
        },
        "physical": {
            "a0": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "a1": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "b0": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "b1": [("X", "R"), ("X", "Y"), ("Y", "R")],
        },
        "ident": {
            "b0": [("X", "R"), ("X", "Y"), ("Y", "R")],
            "b1": [("X", "R"), ("X", "Y"), ("Y", "R")],
        },
    },
    "cf-example": {
        "union": [("R", "Y"), ("X", "R")],
        "descriptive": {
            "0": [("R", "Y"), ("X", "R")],
            "1": [("R", "Y"), ("X", "R")],
        },
        # The pair (X=+1, R=1) is never realized, so the per-value graph at
        # r=1 cannot claim an X->Y difference even though the intervened
        # model would expose one; only the counterfactual graph keeps it.
        "physical": {
            "0": [("R", "Y"), ("X", "R")],
            "1": [("R", "Y"), ("X", "R")],
        },
        "counterfactual": {"1": [("R", "Y"), ("X", "R"), ("X", "Y")]},
    },
    "not-strong-faithful": {
        "union": [("R", "X"), ("X", "Y")],
        "descriptive": {"0": [("R", "X")], "1": [("R", "X")]},
        "physical": {
            "0": [("R", "X"), ("X", "Y")],
            "1": [("R", "X"), ("X", "Y")],
        },
        "ident": {"0": [("R", "X")], "1": [("R", "X")]},
    },
    "p1-limit": {
        "union": [],
        "descriptive": {"0": []},
        "physical": {"0": []},
    },
    "fig1-change-overlap": {
        "union": [("C", "Y"), ("X", "Y")],
        "descriptive": {"0": [("C", "Y")], "1": [("C", "Y"), ("X", "Y")]},
        "physical": {"0": [("C", "Y")], "1": [("C", "Y"), ("X", "Y")]},
    },
    "fig1-nochange-gated": {
        "union": [("C", "X"), ("X", "Y")],
        "descriptive": {"0": [("C", "X")], "1": [("C", "X"), ("X", "Y")]},
        "physical": {
            "0": [("C", "X"), ("X", "Y")],
            "1": [("C", "X"), ("X", "Y")],
        },
    },
    "fig1-nochange-overlap": {
        "union": [("X", "Y")],
        "descriptive": {"0": [("X", "Y")], "1": [("X", "Y")]},
        "physical": {"0": [("X", "Y")], "1": [("X", "Y")]},
    },
    "fig1-change-gated": {
        "union": [("C", "X"), ("X", "Y")],
        "descriptive": {"0": [("C", "X")], "1": [("C", "X"), ("X", "Y")]},
        # The Y mechanism does change with C, but the change is confined to
        # an X state gated off in C=0, so the pooled graph carries no C -> Y
        # edge and the per-regime physical graphs cannot drop X -> Y.
        "physical": {"0": [("C", "X"), ("X", "Y")], "1": [("C", "X"), ("X", "Y")]},
    },
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_frozen_graph_families(name):
    m = solved(name)
    want = EXPECTED[name]
    assert edges(union_graph(m)) == want["union"]
    for r, e in want["descriptive"].items():
        assert edges(descriptive_graph(m, r)) == e, ("descriptive", r)
    for r, e in want["physical"].items():
        assert edges(physical_graph(m, r)) == e, ("physical", r)
    for r, e in want.get("counterfactual", {}).items():
        assert edges(counterfactual_graph(m, r)) == e, ("cf", r)
    for r, e in want.get("ident", {}).items():
        assert edges(ident_graph(m, r)) == e, ("ident", r)


def test_cf_edge_absent_from_union():
    m = solved("cf-example")
    assert ("X", "Y") in counterfactual_graph(m, "1").edges
    assert ("X", "Y") not in union_graph(m).edges


def test_union_is_union_of_physical():
    for name in sorted(EXPECTED):
        m = solved(name)
        per_regime = [physical_graph(m, r) for r in m.regimes]
        assert union_graphs(per_regime).edges == union_graph(m).edges, name


def test_descriptive_union_gap_matches_faithfulness():
    # Exactly one fixture misses union edges across contexts, and it is the
    # one whose strong faithfulness check fails.
    for name in sorted(EXPECTED):
        m = solved(name)
        pooled = union_graphs([descriptive_graph(m, r) for r in m.regimes])
        gap = sorted(set(union_graph(m).edges) - set(pooled.edges))
        if name == "not-strong-faithful":
            assert gap == [("X", "Y")]
        else:
            assert gap == [], name


@pytest.mark.parametrize("name", list_examples())
def test_all_fixtures_strongly_regime_acyclic(name):
    m = solved(name)
    assert is_weakly_regime_acyclic(m)
    assert is_strongly_regime_acyclic(m)


def test_mechanism_graph_reads_raw_tables():
    m = solved("exo-gate")
    assert edges(mechanism_graph(m.scm)) == [("R", "Y"), ("X", "Y")]


def test_observable_graph_prunes_off_support_arguments():
    # Restricted to R=0 rows, Y no longer responds to X.
    m = solved("cf-example")
    cond = m.joint.conditional({"R": "0"}).marginal(("X", "R"))
    g = observable_graph(m.scm, cond)
    assert ("X", "Y") not in g.edges


def test_physical_graph_forces_context_argument():
    # Under the off regime the gate is closed for every pooled input row.
    m = solved("exo-gate")
    assert edges(physical_graph(m, "0")) == [("R", "Y")]


def test_ground_truth_bundle_shape():
    m = solved("intro")
    gt = ground_truth(m)
    assert gt.regimes == ("0", "1")
    assert edges(gt.union) == EXPECTED["intro"]["union"]
    for r in gt.regimes:
        per = gt.per_regime[r]
        assert edges(per.descriptive) == EXPECTED["intro"]["descriptive"][r]
        assert edges(per.physical) == EXPECTED["intro"]["physical"][r]
        assert edges(per.counterfactual) == EXPECTED["intro"]["counterfactual"][r]
        assert edges(per.ident) == EXPECTED["intro"]["ident"][r]
    assert gt.weakly_regime_acyclic and gt.strongly_regime_acyclic


FAMILIES = (descriptive_graph, physical_graph, counterfactual_graph, ident_graph)


def test_unknown_regime_rejected():
    m = solved("intro")
    with pytest.raises(Exception):
        descriptive_graph(m, "7")
    m = SolvedModel.of(get_example_solved_regimeless())
    for family in FAMILIES:
        for _ in range(2):  # a failed derivation is not remembered
            with pytest.raises(ScmError, match="zero probability"):
                family(m, "1")


def get_example_solved_regimeless():
    # p1-limit gives regime "1" zero probability.
    return get_example("p1-limit")


def test_each_family_is_built_at_most_once_per_regime(monkeypatch):
    builds = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            builds[name, args[1] if name.startswith("_build") else None] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("observable_graph", "_build_descriptive", "_build_physical",
                 "_build_counterfactual", "_build_ident"):
        monkeypatch.setattr(graph_objects, name, counting(name, getattr(graph_objects, name)))
    scan = laws._locality_violations
    monkeypatch.setattr(laws, "_locality_violations", counting("locality", scan))
    for name in list_examples():
        builds.clear()
        m = solved(name)
        for _ in range(2):
            ground_truth(m)
            support_reduction_witnesses(m)
            markov_check(m)
            for chk in laws.DEFAULT_CHECKS:
                chk(m.scm, m)
        per_regime = {
            ("_build_" + fam, r): 1
            for fam in ("descriptive", "physical", "counterfactual", "ident")
            for r in m.regimes
        }
        # the locality scan, shared by both solution-function laws, runs once
        # on a solved model that meets their hypothesis
        assert builds.pop(("locality", None), 0) == is_weakly_regime_acyclic(m), name
        # observable_graph: the union graph once, descriptive and counterfactual once per regime
        assert builds == {**per_regime, ("observable_graph", None): 1 + 2 * len(m.regimes)}, name
        assert union_graph(m) is union_graph(m)
        for r in m.regimes:
            for family in FAMILIES:
                assert family(m, r) is family(m, r), (name, family.__name__, r)


def test_descriptive_graph_equals_the_intervened_construction():
    # and the physical graph equals its own candidate loop (graph_reference.scanned_physical)
    models = [solved(name) for name in list_examples()]
    models += [m.solved for m in verify_models() + pipeline_models() if m.solved is not None]
    assert sum(assert_families_match(m) for m in models) == 2 * 350


@pytest.mark.parametrize("name", list_examples())
def test_fresh_solve_gives_equal_graphs(name):
    a, b = solved(name), solved(name)
    ga, gb = ground_truth(a), ground_truth(b)
    assert ga == gb
    assert ga.union is not gb.union


def test_faithfulness_verdicts():
    for name in ["intro", "exo-gate", "non-markov(1/3)"]:
        m = solved(name)
        rep = check_R_faithfulness(m)
        assert rep.holds, name
        strong = check_strong_R_faithfulness(m)
        assert strong.holds, name
    m = solved("not-strong-faithful")
    assert check_R_faithfulness(m).holds
    strong = check_strong_R_faithfulness(m)
    assert not strong.holds
    assert strong.rewrite_witnesses == [
        {"variable": "Y", "dropped": "X", "parents": ["R"]}
    ]


def test_rewrite_search_stops_at_its_budget(monkeypatch):
    m = solved("not-strong-faithful")
    found = [{"variable": "Y", "dropped": "X", "parents": ["R"]}]
    assert check_strong_R_faithfulness(m).rewrite_witnesses == found
    monkeypatch.setattr(graph_objects, "REWRITE_CHECK_CAP", 0)
    capped = check_strong_R_faithfulness(m)
    assert capped.rewrite_witnesses == []
    assert capped.holds


def _graph_record(g):
    return [
        g.to_dot(),
        g.skeleton().to_dot(),
        sorted(sorted(c) for c in g.strongly_connected_components()),
        {v: [sorted(g.ancestors([v])), sorted(g.descendants([v]))] for v in g.nodes},
    ]


def _pinned_solved_models():
    for name in list_examples():
        yield SolvedModel.of(get_example(name))
    for n in range(2, 8):
        for k in range(150):
            s = _draw_model(random.Random(derive_seed(k, 0)), RandomModelSpec(n_vars=n, seed=k))
            try:
                yield SolvedModel.of(s)
            except SolveError:
                continue


def _random_digraphs(count=2000):
    rng = random.Random(11)
    for _ in range(count):
        names = ["N%d" % i for i in range(rng.randint(1, 9))]
        pairs = [(a, b) for a in names for b in names if a != b]
        yield DirectedGraph(names, [e for e in pairs if rng.random() < 0.25])


# sha256 over `_graph_record` of every graph of `_pinned_solved_models` (the
# mechanism, union and acyclified-union graphs and each regime's four
# families) plus the weak and strong acyclicity flags, then over the records
# of `_random_digraphs` (1,053 of the 2,000 cyclic)
GRAPH_PIN = "5e288c503c555908ea5817085b367d22b4d3aaa7d4b527cfeb5da5e9fb9694b5"


def test_graph_layer_is_pinned():
    h = hashlib.sha256()
    n_models = n_cyclic = 0
    for m in _pinned_solved_models():
        gt = ground_truth(m)
        graphs = [gt.mechanism, gt.union, acyclify(gt.union)]
        for r in gt.regimes:
            rg = gt.per_regime[r]
            graphs += [rg.descriptive, rg.physical, rg.counterfactual, rg.ident]
        record = [[_graph_record(g) for g in graphs],
                  gt.weakly_regime_acyclic, gt.strongly_regime_acyclic]
        h.update(json.dumps(record, sort_keys=True).encode())
        n_models += 1
        n_cyclic += not gt.union.is_acyclic()
    assert (n_models, n_cyclic) == (734, 4)
    for g in _random_digraphs():
        h.update(json.dumps(_graph_record(g), sort_keys=True).encode())
    assert h.hexdigest() == GRAPH_PIN
