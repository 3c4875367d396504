import pytest

from csi_graphlab.classify import (
    NON_PHYSICAL,
    PHYSICAL,
    RULE_R1_PARENT,
    RULE_R1_SKELETON,
    RULE_R2,
    UNDETERMINED,
    ChangeReport,
    ClassifyError,
    EdgeChange,
    classify_changes,
)
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.discovery import ExactTester, detect_graph
from csi_graphlab.exact import SolvedModel
from csi_graphlab.graphs import DirectedGraph, UndirectedSkeleton
from csi_graphlab.graph_objects import check_R_faithfulness, physical_graph, union_graph
from csi_graphlab.laws import RandomModelSpec, random_scm
from csi_graphlab.rng import derive_seed
from graph_reference import unsound_changes


def solved(name):
    return SolvedModel.of(get_example(name))


def ground_truth_inputs(m):
    tester = ExactTester(m)
    union = union_graph(m)
    detect = {r: detect_graph(tester, r) for r in m.regimes}
    return union, detect


def by_edge(report, regime):
    return {c.edge: c for c in report.changes[regime]}


def test_mediated_vanish_far_from_context_is_non_physical():
    m = solved("intro-mediator")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="skeleton", context="R")
    got = by_edge(report, "0")
    assert got[("T", "Y")].classification == NON_PHYSICAL
    assert got[("T", "Y")].rule == RULE_R1_SKELETON


def test_vanish_next_to_context_stays_undetermined_in_skeleton_mode():
    m = solved("intro-mediator")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="skeleton", context="R")
    got = by_edge(report, "0")
    assert got[("M", "T")].classification == UNDETERMINED
    assert got[("M", "T")].rule is None


def test_gated_exogenous_input_is_physical_by_disjoint_ancestry():
    m = solved("exo-gate")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    assert got[("X", "Y")].classification == PHYSICAL
    assert got[("X", "Y")].rule == RULE_R2


def test_oriented_mode_on_mediator_fixture():
    m = solved("intro-mediator")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    # T's mechanism cannot see R, so its vanished inputs are support-only.
    assert got[("T", "Y")].classification == NON_PHYSICAL
    assert got[("T", "Y")].rule == RULE_R1_PARENT
    assert got[("M", "T")].classification == NON_PHYSICAL


def test_hidden_gated_change_is_labeled_non_physical():
    m = solved("fig1-change-gated")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="oriented", context="C")
    got = by_edge(report, "0")
    assert got[("X", "Y")].classification == NON_PHYSICAL
    assert ("X", "Y") in physical_graph(m, "0").edges


@pytest.mark.parametrize("name", list_examples())
def test_oriented_verdicts_sound_against_ground_truth(name):
    m = solved(name)
    ctx = m.scm.context_variable
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="oriented", context=ctx)
    for r, items in report.changes.items():
        phys = physical_graph(m, r)
        for c in items:
            if c.classification == NON_PHYSICAL:
                assert c.edge in phys.edges, (name, r, c)
            elif c.rule == RULE_R2:
                assert c.edge not in phys.edges, (name, r, c)


@pytest.mark.parametrize("name", list_examples())
def test_skeleton_verdicts_sound_against_ground_truth(name):
    m = solved(name)
    ctx = m.scm.context_variable
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="skeleton", context=ctx)
    for r, items in report.changes.items():
        phys_sk = physical_graph(m, r).skeleton()
        for c in items:
            if c.classification == NON_PHYSICAL:
                assert c.edge in phys_sk.pairs, (name, r, c)


def soundness_model(n_vars, k):
    """Model k of `n_vars` variables of the random soundness check."""
    spec = RandomModelSpec(n_vars=n_vars, max_domain=3, seed=derive_seed(7, 1000 * n_vars + k))
    return random_scm(spec).solved


# (n_vars, k, regime, edge) of every R2 verdict that physical_graph contradicts among
# the 600 models with n_vars = 3-6 and k = 1-150; no R1 verdict is contradicted there.
# Each edge is in physical(r) but missing from the exact detection skeleton of r, on
# a model that fails check_R_faithfulness: R2 is sound only under R-faithfulness
R2_COUNTEREXAMPLES = (
    (5, 60, "2", ("V4", "V1")),
    (5, 93, "0", ("V1", "V4")),
    (5, 132, "0", ("V2", "V1")),
    (5, 132, "1", ("V2", "V1")),
    (5, 136, "0", ("V1", "V4")),
    (6, 132, "0", ("V4", "V5")),
)


def test_rule_verdicts_are_sound_on_r_faithful_random_models():
    faithful = 0
    for n_vars in (3, 4, 5, 6):
        for k in range(1, 61):
            m = soundness_model(n_vars, k)
            if check_R_faithfulness(m).holds:
                faithful += 1
                assert unsound_changes(m) == [], (n_vars, k)
    assert faithful == 195


def test_r2_is_unsound_without_r_faithfulness():
    wanted = {}
    for n_vars, k, r, edge in R2_COUNTEREXAMPLES:
        wanted.setdefault((n_vars, k), []).append(("oriented", r, edge, RULE_R2))
    for (n_vars, k), want in wanted.items():
        m = soundness_model(n_vars, k)
        assert not check_R_faithfulness(m).holds, (n_vars, k)
        assert unsound_changes(m) == want, (n_vars, k)
        for _, r, edge, _ in want:
            assert edge in physical_graph(m, r).edges
            assert not detect_graph(ExactTester(m), r).adjacent(*edge)


@pytest.mark.parametrize("mode", ["oriented", "skeleton"])
@pytest.mark.parametrize("name", list_examples())
def test_changes_cover_exactly_the_vanished_edges(name, mode):
    m = solved(name)
    ctx = m.scm.context_variable
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode=mode, context=ctx)
    for r in m.regimes:
        sk = detect[r]
        if mode == "oriented":
            want = {e for e in union.edges if not sk.adjacent(*e)}
        else:
            want = {p for p in union.skeleton().pairs if not sk.adjacent(*p)}
        assert {c.edge for c in report.changes[r]} == want
        assert all(c.in_union and not c.in_detect_r for c in report.changes[r])
        assert report.violations[r] == ()


def test_no_edge_receives_both_rule_families():
    for name in list_examples():
        m = solved(name)
        ctx = m.scm.context_variable
        union, detect = ground_truth_inputs(m)
        report = classify_changes(union, detect, mode="oriented", context=ctx)
        for items in report.changes.values():
            for c in items:
                if c.rule == RULE_R1_PARENT:
                    assert ctx not in union.parents(c.edge[1])
                if c.rule == RULE_R2:
                    assert ctx in union.parents(c.edge[1])


def test_cycle_through_the_head_blocks_the_ancestry_rule():
    # A directed cycle through Y re-enters it via a non-context parent
    # whose ancestors then include the context, so the disjointness
    # precondition can never hold together with cycle membership.
    union = DirectedGraph(
        ["R", "W", "X", "Y"],
        [("R", "Y"), ("X", "Y"), ("Y", "W"), ("W", "Y")],
    )
    detect = {
        "0": UndirectedSkeleton(
            ["R", "W", "X", "Y"], [("R", "Y"), ("W", "Y")]
        )
    }
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    assert got[("X", "Y")].classification == UNDETERMINED
    assert got[("X", "Y")].rule is None


def test_cycle_through_context_ancestor_withholds_the_ancestry_rule():
    union = DirectedGraph(
        ["A", "B", "R", "X", "Y"],
        [("A", "B"), ("B", "A"), ("A", "R"), ("R", "Y"), ("X", "Y")],
    )
    detect = {
        "0": UndirectedSkeleton(
            ["A", "B", "R", "X", "Y"],
            [("A", "B"), ("A", "R"), ("R", "Y")],
        )
    }
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    assert got[("X", "Y")].classification == UNDETERMINED


def test_shared_ancestry_blocks_the_physical_verdict():
    union = DirectedGraph(
        ["R", "U", "X", "Y"],
        [("U", "R"), ("U", "X"), ("R", "Y"), ("X", "Y")],
    )
    detect = {
        "0": UndirectedSkeleton(
            ["R", "U", "X", "Y"],
            [("U", "R"), ("U", "X"), ("R", "Y")],
        )
    }
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    assert got[("X", "Y")].classification == UNDETERMINED
    assert "ancestors" in got[("X", "Y")].justification


def test_edges_touching_context_are_undetermined():
    union = DirectedGraph(["R", "X", "Y"], [("R", "Y"), ("X", "R"), ("X", "Y")])
    detect = {"0": UndirectedSkeleton(["R", "X", "Y"], [("X", "Y")])}
    report = classify_changes(union, detect, mode="oriented", context="R")
    got = by_edge(report, "0")
    assert got[("R", "Y")].classification == UNDETERMINED
    assert got[("X", "R")].classification == UNDETERMINED
    sk_report = classify_changes(
        union.skeleton(), detect, mode="skeleton", context="R"
    )
    sk_got = by_edge(sk_report, "0")
    assert sk_got[("R", "Y")].classification == UNDETERMINED
    assert sk_got[("R", "X")].classification == UNDETERMINED


def test_detected_pairs_outside_the_pooled_graph_are_reported():
    union = DirectedGraph(["R", "X", "Y"], [("R", "X")])
    detect = {"0": UndirectedSkeleton(["R", "X", "Y"], [("R", "X"), ("X", "Y")])}
    report = classify_changes(union, detect, mode="oriented", context="R")
    assert report.violations["0"] == (("X", "Y"),)
    assert report.changes["0"] == ()


def test_report_rows_and_counts():
    m = solved("intro")
    union, detect = ground_truth_inputs(m)
    report = classify_changes(union, detect, mode="oriented", context="R")
    rows = report.rows()
    assert rows == [
        ("0", "T", "Y", NON_PHYSICAL, RULE_R1_PARENT, rows[0][5]),
    ]
    assert report.counts() == {PHYSICAL: 0, NON_PHYSICAL: 1, UNDETERMINED: 0}


def test_input_validation():
    union = DirectedGraph(["R", "X"], [("R", "X")])
    sk = UndirectedSkeleton(["R", "X"], [])
    with pytest.raises(ClassifyError, match="mode"):
        classify_changes(union, {"0": sk}, mode="both", context="R")
    with pytest.raises(ClassifyError, match="directed"):
        classify_changes(union.skeleton(), {"0": sk}, mode="oriented", context="R")
    with pytest.raises(ClassifyError, match="context"):
        classify_changes(union, {"0": sk}, mode="oriented", context="Q")
    with pytest.raises(ClassifyError, match="empty"):
        classify_changes(union, {}, mode="oriented", context="R")
    with pytest.raises(ClassifyError, match="absent"):
        classify_changes(union, {"0": sk}, mode="oriented", context="R",
                         regimes=["0", "9"])
    bad = UndirectedSkeleton(["R", "X", "Z"], [])
    with pytest.raises(ClassifyError, match="nodes"):
        classify_changes(union, {"0": bad}, mode="oriented", context="R")


def test_determined_verdict_requires_a_rule():
    with pytest.raises(ClassifyError, match="rule"):
        EdgeChange(
            edge=("X", "Y"),
            regime="0",
            in_union=True,
            in_detect_r=False,
            classification=PHYSICAL,
            rule=None,
            justification="",
        )
