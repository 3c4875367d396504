"""Sequential references for the testers' separator searches and tables.

Verbatim copies of `first_separator`, the one-search scan over a `test`
callable that `first_separators` replaced, and of the PC skeleton and
`detect_graph` loops built on it: each pair is searched alone, in pair
order, over `tester.test`, and its edge is removed (and certificate
recorded) as soon as its search ends.  `discover` runs them one after
another, as `cli discover` did before `discovery.discover`.  Nothing here
runs the package's searches.  Tests compare the package with them on hits,
skeletons, certificates and the queries each tester decides.

`g_test_table` is the per-query table builder that `g_test_tables`
replaced, kept verbatim but for its ranker: it ranks strata with the
column-at-a-time `data_reference.stratum_ids`, not the package's `_ranks`.
Its table is dense over the query's labels; tests require its nonzero
cells to be the query's cells in its block.

`population_matches` compares sampled discovery on a solve's exact joint,
read as a count table, with exact discovery on the solve; `renamed_variables`
relabels a model for that check and for the laws' invariance tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

import numpy as np

import data_reference
from csi_graphlab import discovery, independence
from csi_graphlab.data import DataError, Dataset, _tally
from csi_graphlab.discovery import (
    DEFAULT_MAX_SUBSETS,
    DiscoveryError,
    _record,
    _require_regime,
)
from csi_graphlab.exact import draw_samples
from csi_graphlab.graphs import UndirectedSkeleton
from csi_graphlab.independence import (
    CiQuery,
    CiVerdict,
    IndependenceError,
    _query_context,
    g_test_tables,
    subsets,
)
from csi_graphlab.laws import RandomModelSpec, random_scm
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec


def first_separator(
    test: Callable[[str, str, tuple[str, ...], str | None], CiVerdict],
    x: str,
    y: str,
    sets: Iterable[tuple[str, ...]],
    regimes: Sequence[str | None],
) -> tuple[tuple[str, ...], str | None, CiVerdict] | None:
    """(z, regime, verdict) of the first independent `test(x, y, z, regime)`.

    The sets are tried in order and, for each set, the regimes in order
    (None means pooled); the search stops at the first independent verdict.
    None if no verdict is independent.
    """
    for z in sets:
        for regime in regimes:
            verdict = test(x, y, z, regime)
            if verdict.independent:
                return z, regime, verdict
    return None


def g_test_table(data: Dataset, q: CiQuery, context: str | None = None) -> np.ndarray:
    """The (S, nx, ny) contingency tables `g_test` tests: one per z value tuple
    the rows show (inside the query's regime, if set), weighted by `counts`."""
    ctx = _query_context(q, context)
    for col in (q.x, q.y, *q.z):
        if col not in data.columns:
            raise DataError("unknown column %r" % (col,))
    if ctx is not None:
        try:
            rcode = data.code_of(ctx, q.regime)
        except DataError:
            raise IndependenceError(
                "regime value %r is not a category of %r" % (q.regime, ctx)
            ) from None
        mask = data.column(ctx) == rcode
        if not mask.any():
            raise IndependenceError(
                "regime value %r has no rows in the dataset" % (q.regime,)
            )
    else:
        mask = np.ones(data.n_rows, dtype=bool)
    if not mask.any():
        raise IndependenceError("no rows to test")
    x = data.column(q.x)[mask]
    y = data.column(q.y)[mask]
    nx = len(data.labels(q.x))
    ny = len(data.labels(q.y))
    # one stratum per z value tuple the rows show: at most rows * nx * ny cells
    ranks, n_strata = data_reference.stratum_ids(data, q.z, mask, observed=True)
    counts = _tally((ranks * nx + x) * ny + y, data.counts[mask], n_strata * nx * ny)
    return counts.reshape(n_strata, nx, ny)


def every_query(data: Dataset, max_size: int, context: str = "R") -> list[CiQuery]:
    """Each pair's queries over conditioning sets of up to `max_size` other
    variables, pooled and in every regime with rows, set sizes mixed in one list."""
    present = sorted(set(data.column(context).tolist()))
    regimes = [None] + [data.labels(context)[c] for c in present]
    queries = []
    for x, y in itertools.combinations(data.columns, 2):
        pool = [v for v in data.columns if v not in (x, y)]
        for k in range(max_size + 1):
            for z in itertools.combinations(pool, k):
                pooled = context in (x, y, *z)
                queries += [CiQuery(x, y, z, r) for r in regimes if r is None or not pooled]
    return queries


def assert_tables_match(data: Dataset, queries: Sequence[CiQuery], context: str = "R") -> int:
    """Require `g_test_tables` to give each query the nonzero cells of
    `g_test_table`'s table: its block's strata run query by query, as many
    for query k as the table has, and the cells of query k's strata, their
    strata counted from its first, are the table's nonzero (stratum, x, y,
    count) in code order, in int64.  A block of more than one query holds at
    most `_PAIR_BUDGET` cells.  Returns the number of tables compared."""
    blocks = g_test_tables(data, queries, context)
    queries = iter(queries)
    compared = 0
    for cells, tests in blocks:
        assert cells.dtype == tests.dtype == np.int64 and cells.shape[1:] == (4,)
        k = int(tests.max()) + 1
        assert k == 1 or len(cells) <= independence._PAIR_BUDGET
        strata = np.bincount(tests, minlength=k)
        assert np.array_equal(tests, np.repeat(np.arange(k), strata))
        first = np.cumsum(strata) - strata
        for i, q in zip(range(k), queries):
            want = g_test_table(data, q, context)
            assert strata[i] == len(want), q
            mine = cells[(first[i] <= cells[:, 0]) & (cells[:, 0] < first[i] + strata[i])]
            at = np.nonzero(want)
            assert np.array_equal(mine - [first[i], 0, 0, 0], np.column_stack([*at, want[at]])), q
        compared += k
    assert next(queries, None) is None
    return compared


def _pc_skeleton(nodes, query, regime, certificates):
    """Stable PC: per round, candidate sets come from the round-start adjacency."""
    nodes = tuple(nodes)
    adj = {v: set(nodes) - {v} for v in nodes}
    k = 0
    while True:
        snapshot = {v: tuple(sorted(adj[v])) for v in nodes}
        pairs = sorted((a, b) for a in nodes for b in adj[a] if a < b)
        tested_any = False
        for a, b in pairs:
            cand_a = [c for c in snapshot[a] if c != b]
            cand_b = [c for c in snapshot[b] if c != a]
            if len(cand_a) < k and len(cand_b) < k:
                continue
            tested_any = True
            sets = dict.fromkeys(itertools.chain(
                itertools.combinations(cand_a, k), itertools.combinations(cand_b, k)))
            hit = first_separator(query, a, b, sets, (regime,))
            if hit is not None:
                adj[a].discard(b)
                adj[b].discard(a)
                _record(certificates, a, b, *hit)
        if not tested_any:
            break
        k += 1
    return UndirectedSkeleton(nodes, [(a, b) for a in nodes for b in adj[a] if a < b])


def skeleton_pooled(tester, certificates=None):
    return _pc_skeleton(tester.variables, tester.test, None, certificates)


def skeleton_masked(tester, regime, certificates=None):
    _require_regime(tester, regime)
    nodes = tuple(v for v in tester.variables if v != tester.context)
    return _pc_skeleton(nodes, tester.test, regime, certificates)


def detect_graph(tester, regime, max_subsets=DEFAULT_MAX_SUBSETS, certificates=None):
    _require_regime(tester, regime)
    ctx = tester.context
    others = [v for v in tester.variables if v != ctx]
    if others and 2 ** (len(others) - 1) > max_subsets:
        raise DiscoveryError(
            "conditioning-set search over %d variables exceeds max_subsets=%d"
            % (len(others) - 1, max_subsets)
        )
    queries = [(x, y, (None, regime)) for x, y in itertools.combinations(sorted(others), 2)]
    queries += [(ctx, y, (None,)) for y in sorted(others)]
    pairs = []
    for x, y, regimes in queries:
        pool = [v for v in others if v not in (x, y)]
        hit = first_separator(tester.test, x, y, subsets(pool), regimes)
        if hit is None:
            pairs.append((x, y))
        else:
            _record(certificates, x, y, *hit)
    return UndirectedSkeleton(tester.variables, pairs)


def discover(tester, regimes, certificates=None):
    """`discovery.discover` as the one-skeleton loops above run it: the pooled
    skeleton, then per regime the masked and the detection skeleton."""
    pooled = skeleton_pooled(tester, certificates)
    masked, detect = {}, {}
    for r in regimes:
        masked[r] = skeleton_masked(tester, r, certificates)
        detect[r] = detect_graph(tester, r, certificates=certificates)
    return pooled, masked, detect


def one_pass(tester, pooled, masked, detect):
    """Skeletons and certificates of one discovery pass through one-skeleton
    functions: pooled, then masked and detect per regime."""
    certs = []
    found = [pooled(tester, certificates=certs)]
    for r in tester.regimes:
        found += [masked(tester, r, certificates=certs), detect(tester, r, certificates=certs)]
    return [sk.to_dot() for sk in found], certs


def whole_run(tester, discover):
    """The same skeletons and certificates, from one call of a whole-run `discover`."""
    certs = []
    pooled, masked, detect = discover(tester, tester.regimes, certs)
    found = [pooled] + [sk for r in tester.regimes for sk in (masked[r], detect[r])]
    return [sk.to_dot() for sk in found], certs


def assert_lockstep_matches(make_tester):
    """Run a discovery pass with the package and with the references, each on a
    fresh tester from `make_tester()`, and require == skeletons and certificates:
    once through the one-skeleton functions, once through `discover`.  Returns
    the two (package, reference) tester pairs for checks of what they decided."""
    runs = [
        (one_pass, (discovery.skeleton_pooled, discovery.skeleton_masked, discovery.detect_graph),
         (skeleton_pooled, skeleton_masked, detect_graph)),
        (whole_run, (discovery.discover,), (discover,)),
    ]
    testers = []
    for run, package, reference in runs:
        new, old = make_tester(), make_tester()
        assert run(new, *package) == run(old, *reference)
        testers.append((new, old))
    return testers


# log2 of the samples a population table stands for: at 2^16, 3 of the 60 random
# models (n_vars, seed) for n_vars = 5-7 and seeds 1-20 give other skeletons or
# certificates than exact discovery, (7, 6), (7, 10) and (7, 12); at 2^24 and above
# none does, so the scale is a parameter of the check, not a constant of the method
POPULATION_BITS = 32


def population_table(solved, bits=POPULATION_BITS) -> Dataset | None:
    """The exact joint of `solved` read as a count table: one row per key, in
    the model's domains, counted weight * m times with m = max(1, 2^bits //
    the weights' sum).  None if the rows would count 2^62 or more, past
    which the G-test's int64 sums could overflow."""
    joint = solved.joint
    total = sum(joint.weights.values())
    m = max(1, (1 << bits) // total)
    if total * m >= 1 << 62:
        return None
    domains = {v.name: v.domain for v in solved.scm.variables}
    rows = Dataset.from_rows(joint.scope, list(joint.weights), domains)
    return Dataset(joint.scope, domains, rows.codes, [w * m for w in joint.weights.values()])


def discovery_run(tester, regimes) -> tuple[list, list]:
    """`discovery.discover`'s skeletons, pooled then masked and detect per
    regime, and its certificates' (x, y, z, regime) queries in order."""
    certs = []
    pooled, masked, detect = discovery.discover(tester, regimes, certs)
    found = [pooled] + [sk for r in regimes for sk in (masked[r], detect[r])]
    return [sk.to_dot() for sk in found], [(c.x, c.y, c.z, c.regime) for c in certs]


def population_matches(solved, bits=POPULATION_BITS) -> bool | None:
    """Whether `SampleTester` discovery on `population_table(solved, bits)`
    equals `ExactTester` discovery on the solve, over the solve's regimes;
    None if the table is skipped."""
    data = population_table(solved, bits)
    if data is None:
        return None
    sampled = discovery.SampleTester(data, 0.01, solved.scm.context_variable)
    exact = discovery.ExactTester(solved)
    return discovery_run(sampled, solved.regimes) == discovery_run(exact, solved.regimes)


def renamed_variables(s):
    """The model with its variables renamed so that their sort order reverses."""
    order = sorted(s.variable_names)
    new = {v: "V%03d" % (len(order) - 1 - k) for k, v in enumerate(order)}
    return Scm(
        variables=tuple(VariableSpec(new[v.name], v.domain) for v in s.variables),
        context_variable=new[s.context_variable],
        noises={new[v]: NoiseSpec(new[v], n.pmf) for v, n in s.noises.items()},
        mechanisms={
            new[v]: MechanismTable(new[v], tuple(new[p] for p in m.parents), dict(m.table))
            for v, m in s.mechanisms.items()
        },
    )


def random_samples(n_vars, seed, rows):
    """`rows` samples of `RandomModelSpec(n_vars, max_domain=3, seed)`."""
    m = random_scm(RandomModelSpec(n_vars=n_vars, max_domain=3, seed=seed))
    return draw_samples(m.scm, rows, seed + 1, m.solved.table)
