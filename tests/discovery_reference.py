"""Sequential references for the testers' separator searches.

Verbatim copies of `first_separator`, the one-search scan over a `test`
callable that `first_separators` replaced, and of the PC skeleton and
`detect_graph` loops built on it: each pair is searched alone, in pair
order, over `tester.test`, and its edge is removed (and certificate
recorded) as soon as its search ends.  Nothing here runs the package's
searches.  Tests compare the package with them on hits, skeletons,
certificates and the queries each tester decides.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

from csi_graphlab import discovery
from csi_graphlab.discovery import (
    DEFAULT_MAX_SUBSETS,
    DiscoveryError,
    _record,
    _require_regime,
)
from csi_graphlab.exact import draw_samples
from csi_graphlab.graphs import UndirectedSkeleton
from csi_graphlab.independence import CiVerdict, subsets
from csi_graphlab.laws import RandomModelSpec, random_scm


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


def discover(tester, pooled, masked, detect):
    """Skeletons and certificates of one discovery pass: pooled, then masked
    and detect per regime, as `cli discover` runs them."""
    certs = []
    found = [pooled(tester, certificates=certs)]
    for r in tester.regimes:
        found += [masked(tester, r, certificates=certs), detect(tester, r, certificates=certs)]
    return [sk.to_dot() for sk in found], certs


def assert_lockstep_matches(make_tester):
    """Run a discovery pass with the package and with the references, each on a
    fresh tester from `make_tester()`, and require == skeletons and certificates.
    Returns the two testers (package's first) for checks of what they decided."""
    new, old = make_tester(), make_tester()
    got = discover(new, discovery.skeleton_pooled, discovery.skeleton_masked,
                   discovery.detect_graph)
    assert got == discover(old, skeleton_pooled, skeleton_masked, detect_graph)
    return new, old


def random_samples(n_vars, seed, rows):
    """`rows` samples of `RandomModelSpec(n_vars, max_domain=3, seed)`."""
    m = random_scm(RandomModelSpec(n_vars=n_vars, max_domain=3, seed=seed))
    return draw_samples(m.scm, rows, seed + 1, m.solved.table)
