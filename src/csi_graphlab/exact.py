"""Exact distribution layer: solve the model, build exact joints, sample.

Ground truth is exact.  Noise priors are `fractions.Fraction`s, each scaled
to integers by `NoiseSpec.scaled`; the solver weighs every noise row with a
Python int over one common denominator, which the joints and the sampler
read as they are.  So group-bys, factorization tests and sampling run on
ints, and `Fraction` comes back only where it is read (`probabilities`, `table`, `mass`).

The solver enumerates candidate assignments per strongly connected block of
the declared parent structure, in condensation order.  For each noise assignment
it runs one depth-first search over the blocks and stops at the second
complete solution, so uniqueness is decided for the whole model, exactly as
whole-space enumeration decides it: a block may have several local
solutions as long as all but one die in later blocks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import TypeVar

import numpy as np

from .data import Dataset
from .graphs import DirectedGraph
from .rng import uniform_thresholds_index
from .scm import Scm, ScmError, validate_scm

__all__ = [
    "SolveError",
    "UnsolvableModelError",
    "NotUniquelySolvableError",
    "ComplexityError",
    "DistributionError",
    "JointPmf",
    "first_dependence",
    "SolutionTable",
    "SolvedModel",
    "noise_name",
    "declared_graph",
    "solve_all",
    "joint_pmf",
    "noise_observable_joint",
    "draw_samples",
]

DEFAULT_MAX_PAIRS = 10**8

T = TypeVar("T")


class SolveError(ScmError):
    """Model cannot be given a unique solution."""

    def __init__(self, message: str, noise_assignment: dict[str, str]):
        super().__init__(message)
        self.noise_assignment = noise_assignment


class UnsolvableModelError(SolveError):
    """Some positive-probability noise assignment admits no solution."""


class NotUniquelySolvableError(SolveError):
    """Some positive-probability noise assignment admits several solutions."""

    def __init__(self, message: str, noise_assignment: dict[str, str], solutions):
        super().__init__(message, noise_assignment)
        self.solutions = solutions


class ComplexityError(ScmError):
    """Noise cells x per-block candidate count exceeds the solver's guard."""


class DistributionError(ScmError):
    """Invalid distribution query (empty scope, zero-probability condition, ...)."""


def noise_name(variable: str) -> str:
    """Scope name of a variable's noise term inside joint pmfs."""
    return "~" + variable


# --- joint pmf ----------------------------------------------------------------

def _getter(pos: Sequence[int]) -> Callable[[tuple[str, ...]], tuple[str, ...]]:
    """Key -> tuple of its coordinates at `pos`."""
    if len(pos) >= 2:
        return itemgetter(*pos)
    if pos:
        i = pos[0]
        return lambda key: (key[i],)
    return lambda key: ()


def first_dependence(
    cells: Mapping[tuple[str, ...], int], k: int
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Exact factorization test of a table of masses.

    Each key splits at position k into a = key[:k] and b = key[k:].  Returns
    the first (a, b), in sorted order of a and then b, with
    P(a, b) * P != P(a) * P(b), where P is the table's total; None when the
    table factorizes.  Both sides scale alike, so integer weights over any
    common denominator give the verdict of the masses they stand for.
    """
    left: dict[tuple[str, ...], int] = {}
    right: dict[tuple[str, ...], int] = {}
    for key, p in cells.items():
        a, b = key[:k], key[k:]
        left[a] = left[a] + p if a in left else p
        right[b] = right[b] + p if b in right else p
    total = sum(left.values())
    rights = sorted(right.items())
    for a, pa in sorted(left.items()):
        for b, pb in rights:
            if cells.get(a + b, 0) * total != pa * pb:
                return a, b
    return None


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Exact pmf over a tuple of named coordinates: each stored row's mass is
    its integer weight over one common `denominator`.

    Rows of mass zero are absent from a solved model's joints.  `table` and
    `mass` give the masses back as `Fraction`s.
    """

    scope: tuple[str, ...]
    weights: dict[tuple[str, ...], int]
    denominator: int

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise DistributionError("duplicate names in scope")

    @property
    def table(self) -> dict[tuple[str, ...], Fraction]:
        """Rational mass of every stored row, built on each access."""
        d = self.denominator
        return {key: Fraction(w, d) for key, w in self.weights.items()}

    def _positions(self, names: Sequence[str]) -> list[int]:
        out = []
        for name in names:
            try:
                out.append(self.scope.index(name))
            except ValueError:
                raise DistributionError("name %r is not in scope %r" % (name, self.scope)) from None
        return out

    def strata(
        self, by: Sequence[str], cols: Sequence[str]
    ) -> dict[tuple[str, ...], dict[tuple[str, ...], int]]:
        """Weights grouped by the `by` coordinates and, within each group,
        summed down to the `cols` coordinates; every other coordinate is
        summed out.  Groups and cells keep their order of first appearance.
        """
        cell = _getter(self._positions(cols))
        group = _getter(self._positions(by))
        out: dict[tuple[str, ...], dict[tuple[str, ...], int]] = {}
        for key, w in self.weights.items():
            g = group(key)
            cells = out.get(g)
            if cells is None:
                cells = out[g] = {}
            c = cell(key)
            cells[c] = cells[c] + w if c in cells else w
        return out

    def marginal(self, names: Sequence[str]) -> "JointPmf":
        names = tuple(names)
        if not names:
            raise DistributionError("marginal needs at least one name")
        return JointPmf(names, self.strata((), names).get((), {}), self.denominator)

    def conditional(self, condition: Mapping[str, str]) -> "JointPmf":
        """Restrict to rows matching `condition` and renormalize; scope unchanged.
        The kept weights stay as they are, over the kept mass."""
        if not condition:
            return self
        rows = self.strata(tuple(condition), self.scope).get(tuple(condition.values()), {})
        kept = sum(rows.values())
        if not kept:
            raise DistributionError("conditioning event %r has probability zero" % (dict(condition),))
        return JointPmf(self.scope, rows, kept)

    def support(self, names: Sequence[str]) -> list[tuple[str, ...]]:
        """Sorted positive-probability assignments of the named coordinates."""
        return sorted(self.marginal(names).weights)

    def mass(self, partial: Mapping[str, str]) -> Fraction:
        """Probability of a partial assignment (sum over matching rows)."""
        cells = self.strata(tuple(partial), ()).get(tuple(partial.values()), {})
        return Fraction(cells.get((), 0), self.denominator)


# --- solving -------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionTable:
    """One row per positive-probability noise assignment, with its unique solution."""

    variables: tuple[str, ...]
    noise_assignments: tuple[tuple[str, ...], ...]
    weights: tuple[int, ...]
    denominator: int
    values: tuple[tuple[str, ...], ...]

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        """Each row's weight over `denominator`, as a `Fraction`."""
        return tuple(Fraction(w, self.denominator) for w in self.weights)


def declared_graph(s: Scm) -> DirectedGraph:
    """Parent structure as declared by the mechanisms (no support pruning)."""
    edges = [(p, v.name) for v in s.variables for p in s.parents(v.name)]
    return DirectedGraph(s.variable_names, edges)


def _condensation_order(s: Scm) -> list[tuple[str, ...]]:
    """Strongly connected blocks of the declared graph (as sorted name tuples)
    in topological order; Kahn's algorithm, smallest ready block first."""
    g = declared_graph(s)
    block = {v: tuple(sorted(comp)) for v, comp in g.scc_of().items()}
    succs: dict[tuple[str, ...], set[tuple[str, ...]]] = {b: set() for b in block.values()}
    indeg = dict.fromkeys(succs, 0)
    for u, v in g.edges:
        if block[u] != block[v] and block[v] not in succs[block[u]]:
            succs[block[u]].add(block[v])
            indeg[block[v]] += 1
    ready = [b for b, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[tuple[str, ...]] = []
    while ready:
        b = heapq.heappop(ready)
        order.append(b)
        for c in succs[b]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return order


def _nominal_pairs(s: Scm, comp_order: list[tuple[str, ...]]) -> int:
    """Noise cells times the candidates the block solver may try per cell:
    the sum over strongly connected blocks of their joint domain size."""
    noise_cells = math.prod(max(1, len(s.noises[v].support)) for v in s.variable_names)
    size = {v.name: len(v.domain) for v in s.variables}
    return noise_cells * sum(math.prod(size[v] for v in comp) for comp in comp_order)


def solve_all(s: Scm, max_pairs: int = DEFAULT_MAX_PAIRS) -> SolutionTable:
    """Unique solution per positive-probability noise assignment, or raise.

    Each noise assignment gets a full depth-first search over the blocks of
    `_condensation_order`, stopped at the second complete solution; a local
    solution of a block that no later block can extend is not a solution.
    Raises UnsolvableModelError / NotUniquelySolvableError with the witness
    noise assignment (and, for multiplicity, two distinct solutions), and
    ComplexityError when the noise cells times the candidates summed over the
    strongly connected blocks (each block's joint domain size) exceed
    `max_pairs`.
    """
    problems = validate_scm(s)
    if problems:
        raise ScmError("invalid model: " + "; ".join(problems))
    comp_order = _condensation_order(s)
    nominal = _nominal_pairs(s, comp_order)
    if nominal > max_pairs:
        raise ComplexityError(
            "nominal search space %d exceeds max_pairs=%d" % (nominal, max_pairs)
        )
    names = s.variable_names
    mech = s.mechanisms
    domains = {v.name: v.domain for v in s.variables}
    supports = [s.noises[v].support for v in names]

    def walk(k: int, noise: dict[str, str], partial: dict[str, str]) -> Iterator[tuple[str, ...]]:
        # Depth-first over the blocks from block k on.  A block reads only its
        # own and earlier blocks, so values left by an abandoned branch are
        # overwritten before they are read again.
        while k < len(comp_order) and len(comp_order[k]) == 1:
            v = comp_order[k][0]
            partial[v] = mech[v].value(tuple(partial[p] for p in mech[v].parents), noise[v])
            k += 1
        if k == len(comp_order):
            yield tuple(partial[v] for v in names)
            return
        comp = comp_order[k]
        for cand in itertools.product(*(domains[v] for v in comp)):
            partial.update(zip(comp, cand))
            if all(
                mech[v].value(tuple(partial[p] for p in mech[v].parents), noise[v]) == partial[v]
                for v in comp
            ):
                yield from walk(k + 1, noise, partial)

    # row weights in itertools.product order, by prefix products of the scaled priors
    scaled = [s.noises[v].scaled() for v in names]
    row_weights = [1]
    for (_, a), support in zip(scaled, supports):
        row_weights = [w * a[lbl] for w in row_weights for lbl in support]

    noise_rows: list[tuple[str, ...]] = []
    values: list[tuple[str, ...]] = []
    for noise in itertools.product(*supports):
        nmap = dict(zip(names, noise))
        found = tuple(itertools.islice(walk(0, nmap, {}), 2))
        if not found:
            raise UnsolvableModelError(
                "no solution for noise assignment %r" % (nmap,), nmap
            )
        if len(found) > 1:
            raise NotUniquelySolvableError(
                "multiple solutions for noise assignment %r" % (nmap,), nmap, found
            )
        noise_rows.append(noise)
        values.append(found[0])

    return SolutionTable(
        variables=names,
        noise_assignments=tuple(noise_rows),
        weights=tuple(row_weights),
        denominator=math.prod(d for d, _ in scaled),  # the lcm of the rows' denominators
        values=tuple(values),
    )


# --- derived pmfs ----------------------------------------------------------------

def joint_pmf(s: Scm, table: SolutionTable | None = None) -> JointPmf:
    """Exact observable joint: push-forward of the noise product through the solution."""
    table = table if table is not None else solve_all(s)
    return noise_observable_joint(s, table).marginal(table.variables)


def noise_observable_joint(s: Scm, table: SolutionTable | None = None) -> JointPmf:
    """Joint over noises (scope names ~X) and observables; noises pin the row."""
    table = table if table is not None else solve_all(s)
    scope = tuple(noise_name(v) for v in table.variables) + table.variables
    keys = [noise + vals for noise, vals in zip(table.noise_assignments, table.values)]
    return JointPmf(scope, dict(zip(keys, table.weights)), table.denominator)


@dataclass
class SolvedModel:
    """One solve of a model: the solution table, the two joints and, filled on
    first use through `derive`, everything derived from them (the regimes
    here, the graph families and the support-reduction witnesses in
    `graph_objects`, the locality scan and the product-form gate in `laws`).  Derived values are computed once per instance; they are
    immutable, so sharing them is safe.
    """

    scm: Scm
    table: SolutionTable
    joint: JointPmf
    noise_joint: JointPmf
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, s: Scm) -> "SolvedModel":
        table = solve_all(s)
        noise_joint = noise_observable_joint(s, table)
        return cls(
            scm=s,
            table=table,
            joint=noise_joint.marginal(table.variables),
            noise_joint=noise_joint,
        )

    def derive(self, key: Hashable, build: Callable[[], T]) -> T:
        """`build()`, computed once per instance under `key`; a raising build
        stores nothing."""
        cache = self._derived
        if key not in cache:
            cache[key] = build()
        return cache[key]

    @property
    def regimes(self) -> tuple[str, ...]:
        """Context values with positive probability, sorted."""
        ctx = self.scm.context_variable
        return self.derive("regimes", lambda: tuple(v for (v,) in self.joint.support([ctx])))


# --- sampling ----------------------------------------------------------------------

def draw_samples(s: Scm, n: int, seed: int, table: SolutionTable | None = None) -> Dataset:
    """n iid rows from the observable joint, deterministic in (model, n, seed).

    Exact inverse-CDF over the noise assignments: with D the table's
    denominator, the prefix sums C of the row weights give the thresholds
    ceil(C * 2**64 / D) once, then each SplitMix64 draw z (u = z / 2**64)
    picks the first cell with u below its boundary.
    """
    if n < 0:
        raise ScmError("sample count must be nonnegative")
    table = table if table is not None else solve_all(s)
    if not table.noise_assignments:
        raise DistributionError("model has no positive-probability noise assignment")
    d = table.denominator
    prefix = itertools.accumulate(table.weights[:-1])
    top = (1 << 64) - 1
    thr = np.array([min(-(-(c << 64) // d), top) for c in prefix], dtype=np.uint64)
    idx = uniform_thresholds_index(thr, seed, n)
    domains = {v.name: v.domain for v in s.variables}
    rows = Dataset.from_rows(table.variables, table.values, domains)
    return Dataset(table.variables, domains, rows.codes[idx])
