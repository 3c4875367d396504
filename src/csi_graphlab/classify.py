"""Rule-based labeling of edges that vanish in one context value.

An edge present in the pooled graph but absent from a per-context detection
skeleton vanished either because the mechanism really differs in that
context (physical) or because the context merely starves the support the
edge needs to show up (non-physical).  Two orientation regimes are
supported: `oriented` mode consumes a directed pooled graph and applies the
parent- and ancestry-based rules; `skeleton` mode consumes an undirected
pooled skeleton and only uses inferences that hold under every orientation
of it, which leaves non-adjacency as the single usable fact.

R1 needs nothing beyond its graphs; R2 (disjoint ancestry: physical) assumes
R-faithfulness (`graph_objects.check_R_faithfulness`), without which an edge
of the physical graph can vanish from the detection skeleton all the same.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .graphs import DirectedGraph, UndirectedSkeleton

__all__ = [
    "ClassifyError",
    "PHYSICAL",
    "NON_PHYSICAL",
    "UNDETERMINED",
    "RULE_R1_PARENT",
    "RULE_R1_SKELETON",
    "RULE_R2",
    "EdgeChange",
    "ChangeReport",
    "classify_changes",
]

PHYSICAL = "physical"
NON_PHYSICAL = "non_physical"
UNDETERMINED = "undetermined"

RULE_R1_PARENT = "R1-parent"
RULE_R1_SKELETON = "R1-skeleton"
RULE_R2 = "R2"


class ClassifyError(ValueError):
    """Raised for inconsistent inputs to change classification."""


@dataclass(frozen=True)
class EdgeChange:
    """Verdict for one pooled edge missing from one context's skeleton."""

    edge: tuple[str, str]
    regime: str
    in_union: bool
    in_detect_r: bool
    classification: str
    rule: str | None
    justification: str

    def __post_init__(self) -> None:
        if self.classification != UNDETERMINED and self.rule is None:
            raise ClassifyError("a determined verdict must cite a rule")


@dataclass(frozen=True)
class ChangeReport:
    """Per-context verdicts plus any detected-but-not-pooled violations."""

    mode: str
    context: str
    changes: Mapping[str, tuple[EdgeChange, ...]]
    violations: Mapping[str, tuple[tuple[str, str], ...]]

    def rows(self) -> list[tuple[str, str, str, str, str, str]]:
        """Flatten to (regime, tail, head, classification, rule, note) rows."""
        out = []
        for r in sorted(self.changes):
            for c in self.changes[r]:
                out.append(
                    (r, c.edge[0], c.edge[1], c.classification, c.rule or "",
                     c.justification)
                )
        return out

    def counts(self) -> dict[str, int]:
        tally = {PHYSICAL: 0, NON_PHYSICAL: 0, UNDETERMINED: 0}
        for items in self.changes.values():
            for c in items:
                tally[c.classification] += 1
        return tally


def _classify_oriented(
    union: DirectedGraph, context: str, edge: tuple[str, str]
) -> tuple[str, str | None, str]:
    """(classification, rule, justification) of one vanished directed edge.
    R2 assumes R-faithfulness: without it, an edge still in physical(r) can
    be missing from detect(r), and R2 then calls its vanishing physical."""
    x, y = edge
    if y == context:
        return UNDETERMINED, None, "edges into the context are outside the rules"
    if context not in union.parents(y):
        return (NON_PHYSICAL, RULE_R1_PARENT,
                "%s is not a pooled parent of %s, so the mechanism of %s is "
                "the same in every context; the edge vanished for lack of "
                "support" % (context, y, y))
    if x == context:
        return (UNDETERMINED, None,
                "the vanished edge leaves the context itself; the rules "
                "address non-context parents")
    anc_ctx = union.ancestors([context])
    others = sorted(union.parents(y) - {context})
    if anc_ctx.isdisjoint(union.ancestors(others)):
        if not union.cyclic_nodes().isdisjoint(anc_ctx):
            return (UNDETERMINED, None,
                    "the pooled graph has a cycle through an ancestor of "
                    "%s, so the disjoint-ancestry rule is not known to be "
                    "sound here" % context)
        return (PHYSICAL, RULE_R2,
                "%s is a pooled parent of %s and no ancestor of %s is "
                "shared with the remaining parents of %s, so only a "
                "mechanism change can explain the missing edge"
                % (context, y, context, y))
    return (UNDETERMINED, None,
            "ancestors of %s meet ancestors of the other parents of %s; "
            "the vanishing could be physical or support-induced" % (context, y))


def _classify_skeleton(
    union: UndirectedSkeleton, context: str, pair: tuple[str, str]
) -> tuple[str, str | None, str]:
    """(classification, rule, justification) of one vanished skeleton pair."""
    a, b = pair
    if context in pair:
        return UNDETERMINED, None, "the pair touches the context itself"
    if not union.adjacent(context, a) and not union.adjacent(context, b):
        return (NON_PHYSICAL, RULE_R1_SKELETON,
                "%s is adjacent to neither %s nor %s, so neither endpoint's "
                "mechanism can take %s as a parent under any orientation"
                % (context, a, b, context))
    return (UNDETERMINED, None,
            "%s is adjacent to an endpoint and the skeleton does not "
            "determine parent or ancestor facts" % context)


def classify_changes(
    union: DirectedGraph | UndirectedSkeleton,
    detect: Mapping[str, UndirectedSkeleton],
    mode: str = "oriented",
    context: str = "R",
    regimes: Sequence[str] | None = None,
) -> ChangeReport:
    """Label every pooled edge missing from a per-context skeleton.

    `oriented` mode requires a directed pooled graph; `skeleton` mode
    accepts an undirected one (or the skeleton of a directed one) and is
    deliberately conservative.  Detected pairs absent from the pooled input
    are collected under `violations` instead of failing.
    """
    if mode not in ("oriented", "skeleton"):
        raise ClassifyError("mode must be 'oriented' or 'skeleton': %r" % mode)
    if mode == "oriented":
        if not isinstance(union, DirectedGraph):
            raise ClassifyError("oriented mode needs a directed pooled graph")
        pooled_pairs = union.skeleton().pairs
        candidates, verdict = union.sorted_edges(), _classify_oriented
    else:
        if isinstance(union, DirectedGraph):
            union = union.skeleton()
        pooled_pairs = union.pairs
        candidates, verdict = union.sorted_pairs(), _classify_skeleton
    if context not in union.nodes:
        raise ClassifyError("context %r is not a node of the pooled graph" % context)
    if not detect:
        raise ClassifyError("detect map is empty")
    if regimes is None:
        regimes = sorted(detect)
    missing = [r for r in regimes if r not in detect]
    if missing:
        raise ClassifyError("regimes absent from detect map: %s" % missing)

    changes: dict[str, tuple[EdgeChange, ...]] = {}
    violations: dict[str, tuple[tuple[str, str], ...]] = {}
    for r in regimes:
        sk = detect[r]
        if set(sk.nodes) != set(union.nodes):
            raise ClassifyError(
                "detection skeleton for regime %r has different nodes" % r
            )
        changes[r] = tuple(
            EdgeChange(e, r, True, False, *verdict(union, context, e))
            for e in candidates
            if not sk.adjacent(*e)
        )
        violations[r] = tuple(
            p for p in sk.sorted_pairs() if p not in pooled_pairs
        )
    return ChangeReport(
        mode=mode, context=context, changes=changes, violations=violations
    )
