"""Directed graphs over named nodes.

Small immutable graph objects plus the handful of structural operations the
rest of the package leans on: reflexive ancestry, strongly connected
components, acyclification, d-separation and DOT rendering.
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

    __slots__ = ("_nodes", "_edges", "_parents", "_children")

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

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self._edges

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise GraphError("unknown node %r" % (node,))

    def ancestors(self, seeds: Iterable[str]) -> frozenset[str]:
        """Reflexive ancestor set: the seeds plus everything with a directed path into them."""
        frontier = deque()
        seen: set[str] = set()
        for s in seeds:
            self._require(s)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        while frontier:
            v = frontier.popleft()
            for p in self._parents[v]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return frozenset(seen)

    def descendants(self, seeds: Iterable[str]) -> frozenset[str]:
        """Reflexive descendant set."""
        frontier = deque()
        seen: set[str] = set()
        for s in seeds:
            self._require(s)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
        while frontier:
            v = frontier.popleft()
            for c in self._children[v]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return frozenset(seen)

    def strongly_connected_components(self) -> list[frozenset[str]]:
        """Tarjan's algorithm, iterative; components in a deterministic order."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        comps: list[frozenset[str]] = []
        counter = 0
        for root in self._nodes:
            if root in index:
                continue
            work: list[tuple[str, Iterable[str]]] = [(root, iter(sorted(self._children[root])))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(self._children[w]))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    comps.append(frozenset(comp))
        return comps

    def scc_of(self) -> dict[str, frozenset[str]]:
        return {n: comp for comp in self.strongly_connected_components() for n in comp}

    def is_acyclic(self) -> bool:
        return all(len(c) == 1 for c in self.strongly_connected_components())

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
        lines = ["digraph \"%s\" {" % name]
        for n in sorted(self._nodes):
            lines.append("  \"%s\";" % n)
        for u, v in self.sorted_edges():
            lines.append("  \"%s\" -> \"%s\";" % (u, v))
        lines.append("}")
        return "\n".join(lines) + "\n"


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
        lines = ["graph \"%s\" {" % name]
        for n in sorted(self._nodes):
            lines.append("  \"%s\";" % n)
        for a, b in self.sorted_pairs():
            lines.append("  \"%s\" -- \"%s\";" % (a, b))
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
    ext_parents: dict[frozenset[str], set[str]] = {}
    for comp in set(comp_of.values()):
        ps: set[str] = set()
        for m in comp:
            ps |= g.parents(m)
        ext_parents[comp] = ps - comp
    for v in g.nodes:
        comp = comp_of[v]
        for m in comp:
            if m != v:
                edges.add((m, v))
        for p in ext_parents[comp]:
            edges.add((p, v))
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
