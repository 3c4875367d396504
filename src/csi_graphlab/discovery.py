"""Skeleton discovery from pooled and per-context independence tests.

Two testers answer the same query surface, each memoizing verdicts on the
exact query: `independence.ExactTester` against the exact joint, with the
memo owned by the solve, and `SampleTester` against a dataset with a
G-test, answered from the dataset's count table, built once.  On top of
them sit a deterministic PC-style skeleton search (pooled or masked to one
context value), the exhaustive per-context detection skeleton, and the
executable Markov check that verifies each designated separating set on the
exact distribution.  Each searches for separating sets over its own ordered
sequence of candidate sets: the stable-PC neighbour subsets, every subset
of the other non-context variables, or the designated parent sets.

The skeletons hand the pairs of a PC round (independent, as stable PC
reads the round-start adjacency), or all pairs of `detect_graph`, to the
tester's `first_separators` as one list of searches, then remove edges and
record certificates in pair order.  `SampleTester` advances those searches
together one set size at a time, deciding each size in one stacked kernel
call per block of `g_test_tables`; `ExactTester` scans them in turn.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .data import Dataset
from .exact import SolvedModel
from .graphs import UndirectedSkeleton, acyclify
from .graph_objects import (
    descriptive_graph,
    ident_graph,
    is_strongly_regime_acyclic,
    union_graph,
)
from .independence import (
    CiQuery,
    CiVerdict,
    ExactTester,
    g_test,
    g_test_from_tables,
    g_test_tables,
    subsets,
)

__all__ = [
    "DiscoveryError",
    "SeparationCertificate",
    "ExactTester",
    "SampleTester",
    "skeleton_pooled",
    "skeleton_masked",
    "intersection_graph",
    "detect_graph",
    "union_from_contexts",
    "MarkovObligation",
    "MarkovReport",
    "markov_check",
]

DEFAULT_MAX_SUBSETS = 4096


class DiscoveryError(ValueError):
    pass


@dataclass(frozen=True)
class SeparationCertificate:
    """Record of the first conditioning set found to separate a pair."""

    x: str
    y: str
    z: tuple[str, ...]
    regime: str | None
    method: str
    p_value: float


class SampleTester:
    """Answers independence queries from a dataset with the stratified G-test.

    The dataset is compressed once into its count table (`Dataset.tabulate`),
    which gives every query the verdict of the dataset, in any row order and
    tabulated or not.  Verdicts are memoized on the exact query: (x, y) order
    and z order both count, since the G statistic's float sum follows them.
    """

    def __init__(self, data: Dataset, alpha: float, context: str):
        if context not in data.columns:
            raise DiscoveryError("context column %r not in dataset; its columns are %s"
                                 % (context, ", ".join(map(repr, data.columns))))
        if not (0.0 < alpha < 1.0):
            raise DiscoveryError("alpha must be in (0, 1)")
        self._table = data.tabulate()
        self._alpha = alpha
        self._memo: dict[CiQuery, CiVerdict] = {}
        self.variables = data.columns
        self.context = context
        codes = sorted(set(self._table.column(context).tolist()))
        self.regimes = tuple(data.labels(context)[c] for c in codes)

    def test(self, x: str, y: str, z: Sequence[str] = (), regime: str | None = None) -> CiVerdict:
        q = CiQuery(x, y, tuple(z), regime)
        if q not in self._memo:
            self._memo[q] = g_test(self._table, q, self._alpha, context=self.context)
        return self._memo[q]

    def first_separators(self, searches) -> list:
        """First independent (z, regime, verdict) of each search
        `(x, y, sets, regimes)`, or None, the searches advanced together.

        Each search's sets are cut lazily into runs of one size; step s takes
        run s of every search still unresolved, so a search resolved at one
        size decides no query of a larger size.  The tables of every query
        of the step not in the memo come from one `g_test_tables` call, and
        each of its zero-padded blocks goes to one `g_test_from_tables` call,
        whose verdicts are bit-identical to testing each table alone.
        """
        runs = [itertools.groupby(sets, key=len) for _, _, sets, _ in searches]
        hits: list = [None] * len(searches)
        live = range(len(searches))
        while live:
            step = {}
            for i in live:
                x, y, _, regimes = searches[i]
                for _, run in itertools.islice(runs[i], 1):
                    step[i] = [CiQuery(x, y, z, r) for z in run for r in regimes]
            pending = [q for q in dict.fromkeys(itertools.chain.from_iterable(step.values()))
                       if q not in self._memo]
            verdicts = [v for stack, strata in g_test_tables(self._table, pending, self.context)
                        for v in g_test_from_tables(stack, self._alpha, strata=strata)]
            self._memo.update(zip(pending, verdicts))
            for i, qs in step.items():
                hits[i] = next(((q.z, q.regime, self._memo[q]) for q in qs
                                if self._memo[q].independent), None)
            live = [i for i in step if hits[i] is None]
        return hits


def _record(certs, x, y, z, regime, verdict):
    if certs is not None:
        certs.append(SeparationCertificate(x, y, tuple(z), regime, verdict.method, verdict.p_value))


def _pc_skeleton(nodes, tester, regime, certificates):
    """Stable PC: per round, candidate sets come from the round-start adjacency,
    so the pairs of a round are searched together and pruned afterwards in order."""
    nodes = tuple(nodes)
    adj = {v: set(nodes) - {v} for v in nodes}
    k = 0
    while True:
        snapshot = {v: tuple(sorted(adj[v])) for v in nodes}
        searches = []
        for a, b in sorted((a, b) for a in nodes for b in adj[a] if a < b):
            cand_a = [c for c in snapshot[a] if c != b]
            cand_b = [c for c in snapshot[b] if c != a]
            if len(cand_a) < k and len(cand_b) < k:
                continue
            sets = dict.fromkeys(itertools.chain(
                itertools.combinations(cand_a, k), itertools.combinations(cand_b, k)))
            searches.append((a, b, sets, (regime,)))
        if not searches:
            break
        for (a, b, _, _), hit in zip(searches, tester.first_separators(searches)):
            if hit is not None:
                adj[a].discard(b)
                adj[b].discard(a)
                _record(certificates, a, b, *hit)
        k += 1
    return UndirectedSkeleton(nodes, [(a, b) for a in nodes for b in adj[a] if a < b])


def skeleton_pooled(
    tester,
    certificates: list[SeparationCertificate] | None = None,
) -> UndirectedSkeleton:
    """PC-style skeleton over the pooled distribution (context included)."""
    return _pc_skeleton(tester.variables, tester, None, certificates)


def _require_regime(tester, regime: str) -> None:
    if regime not in tester.regimes:
        raise DiscoveryError(
            "regime %r not available; observed regimes: %s"
            % (regime, ", ".join(tester.regimes))
        )


def skeleton_masked(
    tester,
    regime: str,
    certificates: list[SeparationCertificate] | None = None,
) -> UndirectedSkeleton:
    """PC-style skeleton over the non-context variables, every query masked to one context value."""
    _require_regime(tester, regime)
    nodes = tuple(v for v in tester.variables if v != tester.context)
    return _pc_skeleton(nodes, tester, regime, certificates)


def intersection_graph(
    pooled: UndirectedSkeleton,
    masked: UndirectedSkeleton,
    context: str,
) -> UndirectedSkeleton:
    """Pooled and masked evidence combined: non-context edges must appear in both."""
    if set(masked.nodes) != set(pooled.nodes) - {context}:
        raise DiscoveryError(
            "masked skeleton must cover exactly the pooled nodes without %r" % (context,)
        )
    pairs = [p for p in pooled.pairs if context in p]
    pairs += [p for p in pooled.pairs if context not in p and p in masked.pairs]
    return UndirectedSkeleton(pooled.nodes, pairs)


def detect_graph(
    tester,
    regime: str,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    certificates: list[SeparationCertificate] | None = None,
) -> UndirectedSkeleton:
    """Exhaustive per-context skeleton: an edge survives only if no conditioning
    set separates the pair, neither pooled nor masked to the given context value.
    Sets are tried smallest first, each pooled before masked.

    Context edges use pooled queries only (no masked test involves the context
    itself) and therefore come out identical for every regime.
    """
    _require_regime(tester, regime)
    ctx = tester.context
    others = [v for v in tester.variables if v != ctx]
    # checked before the first query: the context pairs have the largest pool
    if others and 2 ** (len(others) - 1) > max_subsets:
        raise DiscoveryError(
            "conditioning-set search over %d variables exceeds max_subsets=%d"
            % (len(others) - 1, max_subsets)
        )
    queries = [(x, y, (None, regime)) for x, y in itertools.combinations(sorted(others), 2)]
    queries += [(ctx, y, (None,)) for y in sorted(others)]
    searches = [(x, y, subsets([v for v in others if v not in (x, y)]), regimes)
                for x, y, regimes in queries]
    pairs = []
    for (x, y, _, _), hit in zip(searches, tester.first_separators(searches)):
        if hit is None:
            pairs.append((x, y))
        else:
            _record(certificates, x, y, *hit)
    return UndirectedSkeleton(tester.variables, pairs)


def union_from_contexts(
    detect_by_regime: Mapping[str, UndirectedSkeleton],
    pooled: UndirectedSkeleton,
    context: str,
) -> UndirectedSkeleton:
    """Reassemble the pooled picture: union of per-context edges away from the
    context variable, context edges taken from the pooled skeleton."""
    if not detect_by_regime:
        raise DiscoveryError("need at least one per-regime detection skeleton")
    pairs = {p for p in pooled.pairs if context in p}
    for skel in detect_by_regime.values():
        pairs.update(p for p in skel.pairs if context not in p)
    return UndirectedSkeleton(pooled.nodes, pairs)


@dataclass(frozen=True)
class MarkovObligation:
    """One pair the Markov property speaks about, with the designated sets tried."""

    x: str
    y: str
    regime: str | None
    clause: str
    candidates: tuple[tuple[str, ...], ...]
    separator: tuple[str, ...] | None
    passed: bool


@dataclass
class MarkovReport:
    applicable: bool
    passed: bool
    obligations: list[MarkovObligation] = field(default_factory=list)

    @property
    def failures(self) -> list[MarkovObligation]:
        return [o for o in self.obligations if not o.passed]


def markov_check(solved: SolvedModel) -> MarkovReport:
    """Verify, on the exact joint, that every pair without an edge is separated
    by its designated conditioning set.

    Pairs of non-context variables are read off the per-regime graph with the
    ancestor correction: if both endpoints are pooled ancestors of the context
    the separator candidates are the pooled parent sets of the endpoints; else
    the per-regime parent sets (without the context) under masking.  Pairs
    involving the context fall back to the acyclified pooled skeleton with
    pooled parent sets.  Requires strong regime-acyclicity; otherwise the
    report is marked not applicable.
    """
    ctx = solved.scm.context_variable
    if not is_strongly_regime_acyclic(solved):
        return MarkovReport(applicable=False, passed=False)
    union = union_graph(solved)
    anc_r = union.ancestors([ctx])
    names = sorted(v for v in solved.scm.variable_names if v != ctx)
    pending: list[tuple] = []

    def run(x, y, regime, clause, candidates):
        pending.append((x, y, regime, clause, tuple(dict.fromkeys(candidates))))

    for r in solved.regimes:
        ident = ident_graph(solved, r)
        descr = descriptive_graph(solved, r)
        skel = ident.skeleton()
        for x, y in itertools.combinations(names, 2):
            if skel.adjacent(x, y):
                continue
            if x in anc_r and y in anc_r:
                run(x, y, None, "pooled_ancestors", [
                    tuple(sorted(union.parents(x))),
                    tuple(sorted(union.parents(y))),
                ])
            else:
                run(x, y, r, "masked_regime", [
                    tuple(sorted(set(descr.parents(x)) - {ctx})),
                    tuple(sorted(set(descr.parents(y)) - {ctx})),
                ])

    fallback = acyclify(union).skeleton()
    for y in names:
        if fallback.adjacent(ctx, y):
            continue
        run(ctx, y, None, "context_fallback", [
            tuple(sorted(union.parents(ctx))),
            tuple(sorted(union.parents(y))),
        ])

    hits = ExactTester(solved).first_separators(
        [(x, y, candidates, (regime,)) for x, y, regime, _, candidates in pending])
    obligations = [MarkovObligation(*o, None if hit is None else hit[0], hit is not None)
                   for o, hit in zip(pending, hits)]
    return MarkovReport(
        applicable=True,
        passed=all(o.passed for o in obligations),
        obligations=obligations,
    )
