import pytest
from hypothesis import given, settings, strategies as st

from csi_graphlab.graphs import (
    CycleError,
    DirectedGraph,
    GraphError,
    UndirectedSkeleton,
    acyclify,
    d_separated,
    union_graphs,
)


# --- independent oracle: explicit path enumeration -------------------------
# Enumerates every simple path between the endpoints and applies the blocking
# rules directly (collider: kept open only by a conditioned descendant;
# non-collider: closed by conditioning).  Exponential, for tiny graphs only.

def _simple_paths(g, x, y):
    out = []

    def extend(path, steps):
        last = path[-1]
        if last == y:
            out.append((tuple(path), tuple(steps)))
            return
        for w in sorted(g.children(last)):
            if w not in path:
                extend(path + [w], steps + ["fwd"])
        for w in sorted(g.parents(last)):
            if w not in path:
                extend(path + [w], steps + ["bwd"])

    extend([x], [])
    return out


def oracle_d_separated(g, x, y, z):
    zs = frozenset(z)
    for nodes, steps in _simple_paths(g, x, y):
        blocked = False
        for i in range(1, len(nodes) - 1):
            v = nodes[i]
            is_collider = steps[i - 1] == "fwd" and steps[i] == "bwd"
            if is_collider:
                if not (g.descendants({v}) & zs):
                    blocked = True
                    break
            elif v in zs:
                blocked = True
                break
        if not blocked:
            return False
    return True


# --- construction ----------------------------------------------------------

def test_edge_endpoint_must_be_a_node():
    with pytest.raises(GraphError):
        DirectedGraph(["A"], [("A", "B")])


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        DirectedGraph(["A", "B"], [("A", "A")])


def test_duplicate_nodes_rejected():
    with pytest.raises(GraphError):
        DirectedGraph(["A", "A"], [])


def test_equality_ignores_node_order():
    g1 = DirectedGraph(["A", "B"], [("A", "B")])
    g2 = DirectedGraph(["B", "A"], [("A", "B")])
    assert g1 == g2 and hash(g1) == hash(g2)


# --- ancestry ---------------------------------------------------------------

def test_ancestors_are_reflexive():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert g.ancestors({"B"}) == {"A", "B"}
    assert g.ancestors({"C"}) == {"A", "B", "C"}
    assert g.ancestors({"A"}) == {"A"}


def test_ancestors_follow_cycles():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "A"), ("C", "A")])
    assert g.ancestors({"B"}) == {"A", "B", "C"}


def test_descendants_mirror_ancestors():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert g.descendants({"A"}) == {"A", "B", "C"}
    assert g.descendants({"C"}) == {"C"}


# --- SCCs, topological order -------------------------------------------------

def test_scc_partition():
    g = DirectedGraph(
        ["A", "B", "C", "D"],
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D")],
    )
    comps = set(g.strongly_connected_components())
    assert comps == {frozenset({"A", "B"}), frozenset({"C"}), frozenset({"D"})}
    assert g.cyclic_nodes() == {"A", "B"}
    assert not g.is_acyclic()
    dag = DirectedGraph(["A", "B"], [("A", "B")])
    assert dag.cyclic_nodes() == frozenset() and dag.is_acyclic()


def test_scc_pass_runs_once_per_graph(monkeypatch):
    g = DirectedGraph(
        ["A", "B", "C", "D"],
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D")],
    )
    walks = []
    closure = DirectedGraph._closure
    monkeypatch.setattr(DirectedGraph, "_closure", lambda self, seeds, step: (
        walks.append(step) or closure(self, seeds, step)))
    comps = g.strongly_connected_components()
    first = len(walks)
    assert first == 2 * len(comps) == 6
    for _ in range(3):
        assert g.cyclic_nodes() == {"A", "B"}
        assert not g.is_acyclic()
        assert g.scc_of()["B"] == {"A", "B"}
        assert acyclify(g).parents("C") == {"B"}
    assert len(walks) == first
    # each call hands out its own list
    g.strongly_connected_components().clear()
    assert g.strongly_connected_components() == comps


def test_topological_order_on_dag():
    g = DirectedGraph(["C", "A", "B"], [("A", "B"), ("B", "C")])
    order = g.topological_order()
    assert order.index("A") < order.index("B") < order.index("C")


def test_topological_order_rejects_cycle():
    g = DirectedGraph(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(CycleError):
        g.topological_order()


# --- acyclify ----------------------------------------------------------------
# Frozen expectations derived by hand from the parent-set rule
# Pa'(v) = (scc(v) \ {v}) u (Pa(scc(v)) \ scc(v)).

def test_acyclify_two_cycle_with_external_parent():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "A"), ("C", "A")])
    h = acyclify(g)
    assert h.parents("A") == {"B", "C"}
    assert h.parents("B") == {"A", "C"}
    assert h.parents("C") == set()


def test_acyclify_three_cycle_skeleton_is_complete():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
    sk = acyclify(g).skeleton()
    assert sk.pairs == {("A", "B"), ("A", "C"), ("B", "C")}


def test_acyclify_identity_on_dag():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    assert acyclify(g) == g


# --- d-separation ------------------------------------------------------------

def test_collider_blocks_marginally():
    g = DirectedGraph(["A", "B", "C"], [("A", "C"), ("B", "C")])
    assert d_separated(g, "A", "B", set())
    assert not d_separated(g, "A", "B", {"C"})


def test_collider_descendant_opens_path():
    g = DirectedGraph(["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("C", "D")])
    assert not d_separated(g, "A", "B", {"D"})


def test_chain_blocked_by_middle():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert not d_separated(g, "A", "C", set())
    assert d_separated(g, "A", "C", {"B"})


def test_fork_blocked_by_root():
    g = DirectedGraph(["A", "B", "C"], [("B", "A"), ("B", "C")])
    assert d_separated(g, "A", "C", {"B"})


def test_d_separation_rejects_cyclic_graph():
    g = DirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "A")])
    with pytest.raises(CycleError):
        d_separated(g, "A", "C", set())


def test_d_separation_rejects_endpoint_in_conditioning_set():
    g = DirectedGraph(["A", "B"], [("A", "B")])
    with pytest.raises(GraphError):
        d_separated(g, "A", "B", {"A"})


def test_d_separation_rejects_equal_endpoints():
    g = DirectedGraph(["A", "B"], [("A", "B")])
    with pytest.raises(GraphError):
        d_separated(g, "A", "A", set())


# --- skeleton / union ----------------------------------------------------------

def test_skeleton_merges_orientations():
    g = DirectedGraph(["A", "B"], [("A", "B"), ("B", "A")])
    assert g.skeleton().pairs == {("A", "B")}


def test_union_graphs_merges_edges_and_nodes():
    g1 = DirectedGraph(["A", "B"], [("A", "B")])
    g2 = DirectedGraph(["B", "C"], [("C", "B")])
    u = union_graphs([g1, g2])
    assert set(u.nodes) == {"A", "B", "C"}
    assert u.edges == {("A", "B"), ("C", "B")}


# --- DOT ------------------------------------------------------------------------

def test_dot_output_is_byte_stable():
    g = DirectedGraph(["T", "R", "Y"], [("R", "T"), ("T", "Y")])
    expected = (
        'digraph "union" {\n'
        '  "R";\n'
        '  "T";\n'
        '  "Y";\n'
        '  "R" -> "T";\n'
        '  "T" -> "Y";\n'
        "}\n"
    )
    assert g.to_dot("union") == expected
    assert g.to_dot("union") == g.to_dot("union")


def test_skeleton_dot_uses_undirected_edges():
    sk = UndirectedSkeleton(["A", "B"], [("B", "A")])
    assert '"A" -- "B";' in sk.to_dot()


# --- property tests against the oracle -------------------------------------------

def _forward_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@st.composite
def small_dags(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = ["N%d" % i for i in range(n)]
    perm = draw(st.permutations(names))
    chosen = draw(st.sets(st.sampled_from(_forward_pairs(n)))) if n > 1 else set()
    edges = [(perm[i], perm[j]) for i, j in chosen]
    return DirectedGraph(names, edges)


@st.composite
def small_digraphs(draw, max_nodes=6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = ["N%d" % i for i in range(n)]
    all_pairs = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.sets(st.sampled_from(all_pairs))) if n > 1 else set()
    return DirectedGraph(names, edges)


@settings(max_examples=200, deadline=None)
@given(g=small_dags(), data=st.data())
def test_d_separation_matches_path_oracle(g, data):
    nodes = list(g.nodes)
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from([n for n in nodes if n != x]))
    rest = [n for n in nodes if n not in (x, y)]
    z = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    got = d_separated(g, x, y, z)
    assert got == oracle_d_separated(g, x, y, z)
    assert got == d_separated(g, y, x, z)


@settings(max_examples=200, deadline=None)
@given(g=small_dags(max_nodes=9), data=st.data())
def test_d_separation_matches_networkx(g, data):
    nx = pytest.importorskip("networkx")
    ref = nx.DiGraph()
    ref.add_nodes_from(g.nodes)
    ref.add_edges_from(g.edges)
    nodes = sorted(g.nodes)
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from([n for n in nodes if n != x]))
    rest = [n for n in nodes if n not in (x, y)]
    z = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
    assert d_separated(g, x, y, z) == nx.is_d_separator(ref, {x}, {y}, set(z))


@settings(max_examples=200, deadline=None)
@given(g=small_digraphs())
def test_sccs_match_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = nx.DiGraph()
    ref.add_nodes_from(g.nodes)
    ref.add_edges_from(g.edges)
    want = {frozenset(c) for c in nx.strongly_connected_components(ref)}
    comps = g.strongly_connected_components()
    assert len(comps) == len(want)
    assert set(comps) == want
    assert g.cyclic_nodes() == {v for c in want if len(c) > 1 for v in c}
    assert g.is_acyclic() == nx.is_directed_acyclic_graph(ref)


@settings(max_examples=100, deadline=None)
@given(g=small_digraphs(), data=st.data())
def test_ancestors_reflexive_and_idempotent(g, data):
    seeds = data.draw(st.sets(st.sampled_from(list(g.nodes))))
    anc = g.ancestors(seeds)
    assert seeds <= anc
    assert g.ancestors(anc) == anc
    for v in anc:
        assert g.parents(v) <= anc or v in seeds or True  # closure check below
    closure = set(anc)
    for v in anc:
        assert g.parents(v) <= closure


@settings(max_examples=100, deadline=None)
@given(g=small_digraphs())
def test_acyclify_preserves_sccs_ancestry_and_intercomponent_edges(g):
    h = acyclify(g)
    assert set(g.strongly_connected_components()) == set(h.strongly_connected_components())
    comp = g.scc_of()
    for u, v in g.edges:
        if comp[u] is not comp[v] and comp[u] != comp[v]:
            assert (u, v) in h.edges
    for v in g.nodes:
        assert g.ancestors({v}) == h.ancestors({v})


@settings(max_examples=60, deadline=None)
@given(g=small_dags())
def test_acyclify_idempotent_on_dags(g):
    assert acyclify(g) == g
