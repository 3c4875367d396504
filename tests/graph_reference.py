"""Reference constructions for the per-regime graph families.

`intervened_descriptive` reads the descriptive graph off the model
intervened to R = r, the construction `descriptive_graph` used before it
read the model itself.  `scanned_physical` is the physical graph's own
candidate loop, as it stood before `physical_graph` went through the shared
visible-edge scan.  Tests and CI compare the package with both on every
regime of a model.

`unsound_changes` checks `classify_changes` against the graph it is meant
to recover: the verdicts on a model's exact pooled graph and detection
skeletons that `physical_graph` contradicts.
"""

from __future__ import annotations

from csi_graphlab.classify import NON_PHYSICAL, UNDETERMINED, classify_changes
from csi_graphlab.discovery import ExactTester, detect_graph
from csi_graphlab.exact import SolvedModel
from csi_graphlab.graph_objects import (
    _varies_with,
    descriptive_graph,
    observable_graph,
    physical_graph,
    union_graph,
)
from csi_graphlab.graphs import DirectedGraph
from csi_graphlab.scm import intervene


def intervened_descriptive(m: SolvedModel, r: str) -> DirectedGraph:
    ctx = m.scm.context_variable
    within = observable_graph(intervene(m.scm, ctx, r), m.joint.conditional({ctx: r}))
    pooled = {e for e in union_graph(m).edges if ctx in e}
    return DirectedGraph(within.nodes, within.edges | pooled)


def scanned_physical(solved: SolvedModel, r: str) -> DirectedGraph:
    s = solved.scm
    ctx = s.context_variable
    union = union_graph(solved)
    joint = solved.joint
    edges = []
    for v in s.variables:
        y = v.name
        if y == ctx:
            continue
        mech = s.mechanisms[y]
        cand = [p for p in mech.parents if p in union.parents(y)]
        if not cand:
            continue
        rows = joint.support(mech.parents)
        if ctx in cand:
            ci = mech.parents.index(ctx)
            rows = [w for w in rows if w[ci] == r]
        idx = [mech.parents.index(p) for p in cand]
        noise_support = s.noises[y].support
        for k, x in enumerate(cand):
            if x != ctx and _varies_with(mech, rows, idx[:k] + idx[k + 1:], noise_support, idx[k]):
                edges.append((x, y))
    barred = DirectedGraph(s.variable_names, edges)
    return DirectedGraph(barred.nodes, barred.edges | {e for e in union.edges if ctx in e})


REFERENCES = ((descriptive_graph, intervened_descriptive), (physical_graph, scanned_physical))


def assert_families_match(m: SolvedModel) -> int:
    """Check the descriptive and physical graphs of every regime of `m`
    against their references (nodes and edges); returns the graphs compared."""
    graphs = 0
    for r in m.regimes:
        for family, reference in REFERENCES:
            got, want = family(m, r), reference(m, r)
            assert (got.nodes, got.edges) == (want.nodes, want.edges), (family.__name__, r)
            graphs += 1
    return graphs


def unsound_changes(m: SolvedModel) -> list[tuple[str, str, tuple[str, str], str]]:
    """(mode, regime, edge, rule) of each determined `classify_changes` verdict,
    in either mode, on `m`'s union graph and exact detection skeletons that
    `physical_graph` contradicts: a non-physical edge missing from physical(r)
    (from its skeleton, in skeleton mode), or a physical one present in it."""
    ctx = m.scm.context_variable
    tester = ExactTester(m)
    union = union_graph(m)
    detect = {r: detect_graph(tester, r) for r in m.regimes}
    unsound = []
    for mode in ("oriented", "skeleton"):
        report = classify_changes(union, detect, mode=mode, context=ctx)
        for r, items in report.changes.items():
            physical = physical_graph(m, r)
            shown = physical.edges if mode == "oriented" else physical.skeleton().pairs
            unsound += [(mode, r, c.edge, c.rule) for c in items
                        if c.classification != UNDETERMINED
                        and (c.classification == NON_PHYSICAL) != (c.edge in shown)]
    return unsound
