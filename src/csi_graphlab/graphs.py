"""Directed graphs over named nodes.

Small immutable graph objects plus the handful of structural operations the
rest of the package leans on: reflexive ancestry (one closure walk over
parents or children), strongly connected components (each one the set of
nodes both reachable from and reaching its first member, found once per
graph), acyclification, d-separation and DOT rendering.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

__all__ = [
    "GraphError",
    "CycleError",
    "DirectedGraph",
    "UndirectedSkeleton",
    "acyclify",
    "d_separated",
    "union_graphs",
]


class GraphError(ValueError):
    """Malformed graph or invalid graph query."""


class CycleError(GraphError):
    """Operation requires a DAG but the graph has a directed cycle."""


def _check_nodes(nodes: Iterable[str]) -> tuple[str, ...]:
    out = tuple(nodes)
    if len(set(out)) != len(out):
        raise GraphError("duplicate node names: %r" % (out,))
    for n in out:
        if not isinstance(n, str) or not n:
            raise GraphError("node names must be non-empty strings, got %r" % (n,))
    return out


class DirectedGraph:
    """Immutable directed graph; no self-loops, at most one edge per ordered pair."""

    __slots__ = ("_nodes", "_edges", "_parents", "_children", "_sccs")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = _check_nodes(nodes)
        node_set = set(self._nodes)
        parents: dict[str, set[str]] = {n: set() for n in self._nodes}
        children: dict[str, set[str]] = {n: set() for n in self._nodes}
        edge_set: set[tuple[str, str]] = set()
        for u, v in edges:
            if u not in node_set or v not in node_set:
                raise GraphError("edge (%r, %r) has an endpoint outside the node set" % (u, v))
            if u == v:
                raise GraphError("self-loop on %r is not allowed" % (u,))
            edge_set.add((u, v))
            parents[v].add(u)
            children[u].add(v)
        self._edges = frozenset(edge_set)
        self._parents = {n: frozenset(ps) for n, ps in parents.items()}
        self._children = {n: frozenset(cs) for n, cs in children.items()}
        self._sccs: list[frozenset[str]] | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    def parents(self, node: str) -> frozenset[str]:
        self._require(node)
        return self._parents[node]

    def children(self, node: str) -> frozenset[str]:
        self._require(node)
        return self._children[node]

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise GraphError("unknown node %r" % (node,))

    def _closure(self, seeds: Iterable[str], step: dict[str, frozenset[str]]) -> frozenset[str]:
        """The seeds plus every node reached from them along `step` (parents or children)."""
        seen: set[str] = set()
        for s in seeds:
            self._require(s)
            seen.add(s)
        frontier = deque(seen)
        while frontier:
            for w in step[frontier.popleft()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    def ancestors(self, seeds: Iterable[str]) -> frozenset[str]:
        """Reflexive ancestor set: the seeds plus everything with a directed path into them."""
        return self._closure(seeds, self._parents)

    def descendants(self, seeds: Iterable[str]) -> frozenset[str]:
        """Reflexive descendant set."""
        return self._closure(seeds, self._children)

    def strongly_connected_components(self) -> list[frozenset[str]]:
        """Mutually reachable node sets, in node-list order of their first member.
        Computed on the first call only, since the graph never changes."""
        if self._sccs is None:
            self._sccs = []
            placed: set[str] = set()
            for v in self._nodes:
                if v not in placed:
                    comp = self._closure([v], self._parents) & self._closure([v], self._children)
                    placed |= comp
                    self._sccs.append(comp)
        return list(self._sccs)

    def scc_of(self) -> dict[str, frozenset[str]]:
        return {n: comp for comp in self.strongly_connected_components() for n in comp}

    def cyclic_nodes(self) -> frozenset[str]:
        """The nodes on a directed cycle: members of components of size above 1."""
        comps = self.strongly_connected_components()
        return frozenset().union(*(c for c in comps if len(c) > 1))

    def is_acyclic(self) -> bool:
        return not self.cyclic_nodes()

    def topological_order(self) -> list[str]:
        if not self.is_acyclic():
            raise CycleError("graph has a directed cycle")
        order: list[str] = []
        indeg = {n: len(self._parents[n]) for n in self._nodes}
        ready = deque(n for n in self._nodes if indeg[n] == 0)
        while ready:
            v = ready.popleft()
            order.append(v)
            for c in sorted(self._children[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return order

    def skeleton(self) -> "UndirectedSkeleton":
        pairs = {tuple(sorted(e)) for e in self._edges}
        return UndirectedSkeleton(self._nodes, pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return set(self._nodes) == set(other._nodes) and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes), self._edges))

    def __repr__(self) -> str:
        return "DirectedGraph(nodes=%r, edges=%r)" % (list(self._nodes), self.sorted_edges())

    def to_dot(self, name: str = "G") -> str:
        """Render as DOT, one node or edge per line, lexicographic order (byte-stable)."""
        return _dot("digraph", "->", name, self._nodes, self.sorted_edges())


class UndirectedSkeleton:
    """Immutable undirected graph; adjacency pairs stored as sorted 2-tuples."""

    __slots__ = ("_nodes", "_pairs")

    def __init__(self, nodes: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        self._nodes = _check_nodes(nodes)
        node_set = set(self._nodes)
        pair_set: set[tuple[str, str]] = set()
        for a, b in pairs:
            if a not in node_set or b not in node_set:
                raise GraphError("pair (%r, %r) has an endpoint outside the node set" % (a, b))
            if a == b:
                raise GraphError("self-adjacency on %r is not allowed" % (a,))
            lo, hi = sorted((a, b))
            pair_set.add((lo, hi))
        self._pairs = frozenset(pair_set)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        return self._pairs

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self._pairs)

    def adjacent(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedSkeleton):
            return NotImplemented
        return set(self._nodes) == set(other._nodes) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes), self._pairs))

    def __repr__(self) -> str:
        return "UndirectedSkeleton(nodes=%r, pairs=%r)" % (list(self._nodes), self.sorted_pairs())

    def to_dot(self, name: str = "G") -> str:
        return _dot("graph", "--", name, self._nodes, self.sorted_pairs())


def _dot(
    kind: str, arrow: str, name: str, nodes: Iterable[str], pairs: list[tuple[str, str]]
) -> str:
    """DOT text, one node or pair per line, in the order given (nodes sorted)."""
    lines = ['%s "%s" {' % (kind, name)]
    lines += ['  "%s";' % n for n in sorted(nodes)]
    lines += ['  "%s" %s "%s";' % (u, arrow, v) for u, v in pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def union_graphs(graphs: Iterable[DirectedGraph]) -> DirectedGraph:
    """Edge-union of graphs over the union of their node sets."""
    nodes: list[str] = []
    seen: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for g in graphs:
        for n in g.nodes:
            if n not in seen:
                seen.add(n)
                nodes.append(n)
        edges |= g.edges
    return DirectedGraph(nodes, edges)


def acyclify(g: DirectedGraph) -> DirectedGraph:
    """Collapse each strongly connected component onto a common parent set.

    Every node's new parents are its component-mates plus the parents of the
    whole component from outside it.  Nodes in a nontrivial component stay
    mutually adjacent (both orientations), so the result is a DAG only when
    the input already was one; consumers are expected to query only the
    skeleton and ancestry of the output, both of which the construction
    preserves.  Identity on DAGs.
    """
    comp_of = g.scc_of()
    edges: set[tuple[str, str]] = set()
    for v in g.nodes:
        comp = comp_of[v]
        parents = comp.union(*(g.parents(m) for m in comp))
        edges.update((p, v) for p in parents if p != v)
    return DirectedGraph(g.nodes, edges)


def d_separated(g: DirectedGraph, x: str, y: str, z: Iterable[str]) -> bool:
    """Whether `z` d-separates `x` from `y` in the DAG `g`.

    Uses the ancestral moral graph: restrict to ancestors of {x, y} u z,
    marry co-parents, drop orientation, delete z, and test reachability.
    """
    z_set = frozenset(z)
    for node in (x, y, *z_set):
        g._require(node)
    if x == y:
        raise GraphError("d-separation query needs two distinct endpoints")
    if x in z_set or y in z_set:
        raise GraphError("conditioning set must not contain the endpoints")
    if not g.is_acyclic():
        raise CycleError("d-separation requires a DAG")
    anc = g.ancestors({x, y} | z_set)
    adj: dict[str, set[str]] = {n: set() for n in anc}
    for u, v in g.edges:
        if u in anc and v in anc:
            adj[u].add(v)
            adj[v].add(u)
    for v in anc:
        ps = [p for p in g.parents(v) if p in anc]
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                adj[p].add(q)
                adj[q].add(p)
    frontier = deque([x])
    seen = {x}
    while frontier:
        v = frontier.popleft()
        for w in adj[v]:
            if w in z_set or w in seen:
                continue
            if w == y:
                return False
            seen.add(w)
            frontier.append(w)
    return True
