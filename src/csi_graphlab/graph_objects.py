"""Graph objects attached to a model and its distribution.

Edge X -> Y exists when Y's mechanism gives two outputs under one noise
label on two rows that differ only in X: rows of the full input grid for the
mechanism graph, of a joint's support for the observable ones.  Per context
value r the module builds four graphs: descriptive (support given R=r),
physical (pooled support with R held at r, over the pooled-visible parents),
counterfactual (the intervened model's own visible graph), and an
identification variant that re-adds pooled edges between ancestors of the
context.  All but the last are the one scan `_visible_edges`, handed their
own rows and candidate parents.  Edges touching the context variable are
carried over from the pooled visible graph by convention; in the
counterfactual graph they are annotations, not claims.

Every graph of one solve is derived from a `SolvedModel` and computed at
most once per instance: the union graph, the four per-regime families and
the support-reduction scan are kept by `SolvedModel.derive`, and the
regime-acyclicity flags read the cycles each of those graphs finds once.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Collection
from dataclasses import dataclass, field

from .exact import JointPmf, SolvedModel, joint_pmf, noise_name
from .graphs import DirectedGraph
from .independence import ExactTester, subsets
from .scm import MechanismTable, Scm, ScmError, intervene

__all__ = [
    "mechanism_graph",
    "observable_graph",
    "union_graph",
    "descriptive_graph",
    "physical_graph",
    "counterfactual_graph",
    "ident_graph",
    "is_weakly_regime_acyclic",
    "is_strongly_regime_acyclic",
    "support_reduction_witnesses",
    "RegimeGraphs",
    "GraphObjectSet",
    "ground_truth",
    "FaithfulnessReport",
    "check_R_faithfulness",
    "check_strong_R_faithfulness",
]

def mechanism_graph(s: Scm) -> DirectedGraph:
    """Edge X -> Y iff f_Y is non-constant in X over the full parent grid.

    Noise labels with probability zero are ignored: they cannot ever matter
    to the solved model.
    """
    return _visible_edges(
        s, lambda mech: list(itertools.product(*(s.domain(p) for p in mech.parents)))
    )


def _visible_edges(
    s: Scm,
    rows_of: Callable[[MechanismTable], list[tuple[str, ...]]],
    candidates: Callable[[MechanismTable], Collection[str]] = lambda mech: mech.parents,
) -> DirectedGraph:
    """Edge X -> Y iff f_Y gives two outputs under one noise label on two rows
    of `rows_of(f_Y)` (assignments to Y's declared parents) whose projections
    onto the parents `candidates(f_Y)` (default: all declared) differ only in
    X.  Every graph family that reads the mechanisms is this one scan."""
    edges = []
    for v in s.variables:
        mech = s.mechanisms[v.name]
        allowed = candidates(mech)
        cand = [i for i, p in enumerate(mech.parents) if p in allowed]
        if not cand:
            continue
        rows = rows_of(mech)
        support = s.noises[v.name].support
        for i in cand:
            if _varies_with(mech, rows, [j for j in cand if j != i], support, i):
                edges.append((mech.parents[i], v.name))
    return DirectedGraph(s.variable_names, edges)


def _varies_with(
    mech: MechanismTable,
    rows: list[tuple[str, ...]],
    key_idx: list[int],
    noise_support: tuple[str, ...],
    xi: int | None,
) -> tuple[tuple[str, ...], tuple[str, ...], str] | None:
    """First (row, row', label) on which `mech` gives two outputs under one
    noise label, among rows that agree on the `key_idx` coordinates; None
    when there is none.

    Groups go in order of first appearance, labels in support order; row is
    the group's first member and row' the first member whose output differs
    from it.  With `xi` given, only groups showing two values at `xi` count.
    """
    groups: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for w in rows:
        groups.setdefault(tuple(w[j] for j in key_idx), []).append(w)
    for first, *rest in groups.values():
        if not rest or (xi is not None and all(w[xi] == first[xi] for w in rest)):
            continue
        for n in noise_support:
            out = mech.value(first, n)
            for w in rest:
                if mech.value(w, n) != out:
                    return first, w, n
    return None


def observable_graph(s: Scm, q: JointPmf) -> DirectedGraph:
    """Edge X -> Y iff f_Y is non-constant in X on the support of q.

    Non-constancy means: two parent assignments in the support of q's
    marginal over Y's declared parents that differ only in X and give
    different outputs under a common positive-probability noise label.
    """
    return _visible_edges(s, lambda mech: q.support(mech.parents))


def union_graph(solved: SolvedModel) -> DirectedGraph:
    """Visible graph of the pooled distribution (all contexts mixed)."""
    return solved.derive("union", lambda: observable_graph(solved.scm, solved.joint))


def _with_context_edges(
    g: DirectedGraph, union: DirectedGraph, context: str
) -> DirectedGraph:
    """`g` plus the pooled edges touching the context."""
    return DirectedGraph(g.nodes, g.edges | {e for e in union.edges if context in e})


def descriptive_graph(solved: SolvedModel, r: str) -> DirectedGraph:
    """Edges visible within the stratum R=r, plus pooled edges touching R."""
    _require_regime(solved, r)
    return solved.derive(("descriptive", r), lambda: _build_descriptive(solved, r))


def _build_descriptive(solved: SolvedModel, r: str) -> DirectedGraph:
    s = solved.scm
    ctx = s.context_variable
    within = observable_graph(s, solved.joint.conditional({ctx: r}))
    return _with_context_edges(within, union_graph(solved), ctx)


def physical_graph(solved: SolvedModel, r: str) -> DirectedGraph:
    """Edges the mechanisms can still exhibit with the context held at r.

    The visible-edge scan over the pooled support, with Y's pooled-graph
    parents other than R as candidates (declared arguments outside them are
    marginalized away, not pinned) and only rows with R = r when R is one of
    them.  Mechanism changes hidden by support gating leave no trace here,
    so the per-regime graphs always union back to the pooled graph.
    """
    _require_regime(solved, r)
    return solved.derive(("physical", r), lambda: _build_physical(solved, r))


def _build_physical(solved: SolvedModel, r: str) -> DirectedGraph:
    s = solved.scm
    ctx = s.context_variable
    union = union_graph(solved)

    def rows_of(mech: MechanismTable) -> list[tuple[str, ...]]:
        rows = solved.joint.support(mech.parents)
        if ctx not in union.parents(mech.variable):
            return rows
        ci = mech.parents.index(ctx)
        return [w for w in rows if w[ci] == r]

    def candidates(mech: MechanismTable) -> Collection[str]:
        return () if mech.variable == ctx else union.parents(mech.variable) - {ctx}

    return _with_context_edges(_visible_edges(s, rows_of, candidates), union, ctx)


def counterfactual_graph(solved: SolvedModel, r: str) -> DirectedGraph:
    """Visible graph of the model intervened to R=r, plus annotation R edges.

    The returned graph's edges touching the context come from the original
    pooled graph for display symmetry only; the intervened model itself has
    no such edges.  Raises if the intervened model is not uniquely solvable.
    """
    _require_regime(solved, r)
    return solved.derive(("counterfactual", r), lambda: _build_counterfactual(solved, r))


def _build_counterfactual(solved: SolvedModel, r: str) -> DirectedGraph:
    s = solved.scm
    ctx = s.context_variable
    cut = intervene(s, ctx, r)
    barred = observable_graph(cut, joint_pmf(cut))
    return _with_context_edges(barred, union_graph(solved), ctx)


def ident_graph(solved: SolvedModel, r: str) -> DirectedGraph:
    """Descriptive graph plus pooled edges between ancestors of the context.

    Between variables that are pooled-graph ancestors of R, context-specific
    structure is not identifiable from the distribution, so those pooled
    edges are restored.
    """
    _require_regime(solved, r)
    return solved.derive(("ident", r), lambda: _build_ident(solved, r))


def _build_ident(solved: SolvedModel, r: str) -> DirectedGraph:
    union = union_graph(solved)
    anc = union.ancestors({solved.scm.context_variable})
    descr = descriptive_graph(solved, r)
    extra = [(u, v) for u, v in union.edges if u in anc and v in anc]
    return DirectedGraph(descr.nodes, set(descr.edges) | set(extra))


def _require_regime(solved: SolvedModel, r: str) -> None:
    if r not in solved.regimes:
        raise ScmError(
            "context value %r has zero probability (attained: %s)"
            % (r, ", ".join(solved.regimes))
        )


def is_weakly_regime_acyclic(solved: SolvedModel) -> bool:
    """Every per-context descriptive graph is acyclic."""
    return all(descriptive_graph(solved, r).is_acyclic() for r in solved.regimes)


def is_strongly_regime_acyclic(solved: SolvedModel) -> bool:
    """Weakly regime-acyclic and no pooled cycle touches an ancestor of the context."""
    if not is_weakly_regime_acyclic(solved):
        return False
    union = union_graph(solved)
    return union.cyclic_nodes().isdisjoint(union.ancestors({solved.scm.context_variable}))


def support_reduction_witnesses(solved: SolvedModel) -> list[dict]:
    """Mechanism evaluations that disagree across support rows sharing their
    visible-parent projection.

    Empty means every mechanism factors through its visible parents on the
    realized support, pooled and within every context stratum, so solutions
    compose along the corresponding graphs.  A witness marks fine-tuned
    support that couples an invisible declared argument to the outcome; the
    solution-side laws are only meaningful without such coupling.  At most
    one witness per variable and clause.

    The scan runs once per solve; each call returns new dicts and lists, so
    a caller cannot change the kept value.
    """
    hits = solved.derive("support_witnesses", lambda: tuple(_support_reductions(solved)))
    return [
        {
            "variable": y,
            "clause": clause,
            "regime": regime,
            "visible_parents": list(visible),
            "rows": [list(a), list(b)],
            "noise": n,
        }
        for y, clause, regime, visible, a, b, n in hits
    ]


def _support_reductions(solved: SolvedModel):
    """`support_reduction_witnesses`' scan: each hit as (variable, clause,
    regime, visible parents, row, row', noise label)."""
    s = solved.scm
    ctx = s.context_variable

    def scan(mech: MechanismTable, visible: DirectedGraph, q: JointPmf, clause, regime):
        y = mech.variable
        keep = [i for i, p in enumerate(mech.parents) if p in visible.parents(y)]
        hit = _varies_with(mech, q.support(mech.parents), keep, s.noises[y].support, None)
        if hit is not None:
            a, b, n = hit
            yield y, clause, regime, tuple(mech.parents[j] for j in keep), a, b, n

    union = union_graph(solved)
    for v in s.variables:
        mech = s.mechanisms[v.name]
        if mech.parents:
            yield from scan(mech, union, solved.joint, "pooled", None)
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        cond = solved.joint.conditional({ctx: r})
        for v in s.variables:
            mech = s.mechanisms[v.name]
            if v.name != ctx and mech.parents:
                yield from scan(mech, descr, cond, "per_context", r)


@dataclass
class RegimeGraphs:
    regime: str
    descriptive: DirectedGraph
    physical: DirectedGraph
    counterfactual: DirectedGraph
    ident: DirectedGraph


@dataclass
class GraphObjectSet:
    """Everything derivable from one solve: pooled graphs and the per-regime family."""

    context: str
    regimes: tuple[str, ...]
    mechanism: DirectedGraph
    union: DirectedGraph
    per_regime: dict[str, RegimeGraphs]
    weakly_regime_acyclic: bool
    strongly_regime_acyclic: bool


def ground_truth(solved: SolvedModel) -> GraphObjectSet:
    per = {
        r: RegimeGraphs(
            regime=r,
            descriptive=descriptive_graph(solved, r),
            physical=physical_graph(solved, r),
            counterfactual=counterfactual_graph(solved, r),
            ident=ident_graph(solved, r),
        )
        for r in solved.regimes
    }
    return GraphObjectSet(
        context=solved.scm.context_variable,
        regimes=solved.regimes,
        mechanism=mechanism_graph(solved.scm),
        union=union_graph(solved),
        per_regime=per,
        weakly_regime_acyclic=is_weakly_regime_acyclic(solved),
        strongly_regime_acyclic=is_strongly_regime_acyclic(solved),
    )


# --- faithfulness -------------------------------------------------------------

@dataclass
class FaithfulnessReport:
    holds: bool
    violations: list[dict] = field(default_factory=list)
    # strong variant only: mechanisms re-expressible over different parents
    rewrite_witnesses: list[dict] = field(default_factory=list)


def check_R_faithfulness(solved: SolvedModel) -> FaithfulnessReport:
    """Exhaustive check: adjacency in a per-context graph must defeat every separator.

    For each context value r and each pair adjacent in the descriptive graph
    of r, no conditioning set may render the pair independent, neither
    pooled nor within the stratum R=r (the latter only for pairs away from
    the context variable).  Runs the exact oracle over all subsets: first
    every pooled set, then every masked one.
    """
    ctx = solved.scm.context_variable
    names = list(solved.joint.scope)
    tester = ExactTester(solved)
    report = FaithfulnessReport(holds=True)
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        for x, y in descr.skeleton().sorted_pairs():
            pooled = subsets([v for v in names if v not in (x, y)])
            (hit,) = tester.first_separators([(x, y, pooled, (None,))])
            if hit is None and ctx not in (x, y):
                masked = subsets([v for v in names if v not in (x, y, ctx)])
                (hit,) = tester.first_separators([(x, y, masked, (r,))])
            if hit is not None:
                z, regime, _ = hit
                report.holds = False
                report.violations.append(
                    {"regime": r, "x": x, "y": y, "z": list(z), "masked": regime is not None})
    return report


REWRITE_CHECK_CAP = 1000


def _rewrite_witnesses(solved: SolvedModel) -> list[dict]:
    """Mechanisms expressible over an alternative parent set, support-exactly.

    Bounded search: drop one visible parent X of Y at a time and test whether
    (remaining parents [+ context], Y's noise) functionally determine Y on
    the realized noise-observable rows.  A hit means an observationally
    identical model with different minimal parents exists.

    Both the visible and the declared remainder are tried: a declared parent
    that is invisible pooled can still split support rows that the visible
    remainder alone cannot tell apart, and the rewrite over (declared - X,
    context) is the one that always exists when X is visible pooled but in
    no single-context graph.
    """
    s = solved.scm
    ctx = s.context_variable
    union = union_graph(solved)
    nj = solved.noise_joint
    witnesses: list[dict] = []
    budget = REWRITE_CHECK_CAP

    for y in s.variable_names:
        visible = sorted(union.parents(y))
        for x in visible:
            if x == ctx:
                continue
            kept = [p for p in visible if p != x]
            declared = [p for p in s.mechanisms[y].parents if p != x]
            candidates = []
            for base in (kept, declared):
                if ctx not in base and y != ctx:
                    candidates.append(base + [ctx])
                candidates.append(base)
            candidates = [c for i, c in enumerate(candidates) if c not in candidates[:i]]
            for cand in candidates:
                if budget <= 0:
                    return witnesses
                budget -= 1
                groups = nj.strata([*cand, noise_name(y)], (y,))
                if all(len(values) == 1 for values in groups.values()):
                    witnesses.append(
                        {"variable": y, "dropped": x, "parents": list(cand)}
                    )
                    break
    return witnesses


def check_strong_R_faithfulness(solved: SolvedModel) -> FaithfulnessReport:
    """Faithfulness plus absence of support-equivalent re-parameterizations.

    The re-parameterization search is bounded and best-effort (one dropped
    parent at a time, at most `REWRITE_CHECK_CAP` candidate checks); a clean
    report is therefore evidence, not proof, while any witness is definite.
    """
    report = check_R_faithfulness(solved)
    report.rewrite_witnesses = _rewrite_witnesses(solved)
    if report.rewrite_witnesses:
        report.holds = False
    return report
