"""Skeleton discovery from pooled and per-context independence tests.

Two testers answer the same queries, memoizing verdicts on the exact query,
and differ only in how they decide one: `independence.ExactTester` on the
exact joint, and `SampleTester` with a G-test on the dataset's count table,
a whole step of queries at once.  On top of them sit a deterministic
PC-style skeleton search (pooled or masked to one context value), the
exhaustive per-context detection skeleton, and the Markov check of each
designated separating set on the exact distribution.

Each skeleton is a generator phase over one cutter, `separator_steps`: a PC
round (independent pairs, as stable PC reads the round-start adjacency) or
all pairs of `detect_graph` form one list of searches, pruned in pair order.
One driver, `lockstep`, runs every phase of `discover` together, a step of
all of them per tester call; each one-skeleton function is a one-phase run.
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
    CiTester,
    CiVerdict,
    ExactTester,
    g_test_from_tables,
    g_test_tables,
    lockstep,
    separator_steps,
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
    "discover",
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


class SampleTester(CiTester):
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
        """The memoized verdict of one query, or else that of a step of its own.
        `CiTester.step_hits` reads every run of every discovery step through it."""
        q = (x, y, tuple(z), regime)
        if q not in self._memo:
            self.step_hits([[q]])
        return self._memo[q]

    def step_hits(self, runs) -> list:
        """Every query of the step decided at once: one `g_test_tables` call for
        those not in the memo, if any, and one kernel call per block."""
        pending = [CiQuery(*q) for q in dict.fromkeys(itertools.chain.from_iterable(runs))
                   if q not in self._memo]
        if pending:
            verdicts = [v for tables in g_test_tables(self._table, pending, self.context)
                        for v in g_test_from_tables(*tables, self._alpha)]
            self._memo.update(zip(pending, verdicts))
        return super().step_hits(runs)


def _record(certs, x, y, z, regime, verdict):
    if certs is not None:
        certs.append(SeparationCertificate(x, y, tuple(z), regime, verdict.method, verdict.p_value))


def _pc_skeleton(nodes, regime, certificates):
    """Stable PC as a phase: per round, candidate sets come from the round-start
    adjacency, so the pairs of a round are searched together and pruned afterwards in order."""
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
        for (a, b, _, _), hit in zip(searches, (yield from separator_steps(searches))):
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
    return lockstep(tester, [_pc_skeleton(tester.variables, None, certificates)])[0]


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
    return lockstep(tester, [_pc_skeleton(nodes, regime, certificates)])[0]


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


def _detect_skeleton(tester, regime, max_subsets, certificates):
    """`detect_graph` as a phase, its regime and cap checked before its first step."""
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
    for (x, y, _, _), hit in zip(searches, (yield from separator_steps(searches))):
        if hit is None:
            pairs.append((x, y))
        else:
            _record(certificates, x, y, *hit)
    return UndirectedSkeleton(tester.variables, pairs)


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
    return lockstep(tester, [_detect_skeleton(tester, regime, max_subsets, certificates)])[0]


def discover(
    tester,
    regimes: Sequence[str],
    certificates: list[SeparationCertificate] | None = None,
) -> tuple[UndirectedSkeleton, dict[str, UndirectedSkeleton], dict[str, UndirectedSkeleton]]:
    """(pooled, {regime: masked}, {regime: detect}) as the one-skeleton functions
    give them, every phase advanced together, so each step of the run is one
    tester call; each regime and the detection cap are checked before it.
    Certificates: pooled, then per regime masked and then detect."""
    nodes = tuple(v for v in tester.variables if v != tester.context)
    logs: list[list] = [[] for _ in range(1 + 2 * len(regimes))]
    phases = [_pc_skeleton(tester.variables, None, logs[0])]
    for i, r in enumerate(regimes):
        phases += [_pc_skeleton(nodes, r, logs[2 * i + 1]),
                   _detect_skeleton(tester, r, DEFAULT_MAX_SUBSETS, logs[2 * i + 2])]
    pooled, *per_regime = lockstep(tester, phases)
    if certificates is not None:
        certificates.extend(itertools.chain.from_iterable(logs))
    return pooled, dict(zip(regimes, per_regime[::2])), dict(zip(regimes, per_regime[1::2]))


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
