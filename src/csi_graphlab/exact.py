"""Exact distribution layer: solve the model, build rational joints, sample.

Ground truth stays in `fractions.Fraction` end to end.  The solver
enumerates candidate assignments per strongly connected block of the
declared parent structure, walking blocks in condensation order with
backtracking; this detects unsolvability and non-uniqueness exactly like
whole-space enumeration (any failure or multiplicity shows up inside some
block given its solved ancestors) at a fraction of the cost.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .data import Dataset
from .graphs import DirectedGraph
from .rng import uniform_thresholds_index
from .scm import Scm, ScmError

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
    cells: Mapping[tuple[str, ...], Fraction], k: int
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Exact factorization test of a table of masses.

    Each key splits at position k into a = key[:k] and b = key[k:].  Returns
    the first (a, b), in sorted order of a and then b, with
    P(a, b) * P != P(a) * P(b), where P is the table's total; None when the
    table factorizes.
    """
    left: dict[tuple[str, ...], Fraction] = {}
    right: dict[tuple[str, ...], Fraction] = {}
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
    """Exact pmf over a tuple of named coordinates; only positive rows stored."""

    scope: tuple[str, ...]
    table: dict[tuple[str, ...], Fraction]

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise DistributionError("duplicate names in scope")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointPmf):
            return NotImplemented
        if self.scope == other.scope:
            return self.table == other.table
        if set(self.scope) != set(other.scope):
            return False
        return self.table == other.marginal(self.scope).table

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
    ) -> dict[tuple[str, ...], dict[tuple[str, ...], Fraction]]:
        """Masses grouped by the `by` coordinates and, within each group,
        summed down to the `cols` coordinates; every other coordinate is
        summed out.  Groups and cells keep their order of first appearance.
        """
        cell = _getter(self._positions(cols))
        group = _getter(self._positions(by))
        out: dict[tuple[str, ...], dict[tuple[str, ...], Fraction]] = {}
        for key, p in self.table.items():
            g = group(key)
            cells = out.get(g)
            if cells is None:
                cells = out[g] = {}
            c = cell(key)
            cells[c] = cells[c] + p if c in cells else p
        return out

    def marginal(self, names: Sequence[str]) -> "JointPmf":
        names = tuple(names)
        if not names:
            raise DistributionError("marginal needs at least one name")
        return JointPmf(names, self.strata((), names).get((), {}))

    def conditional(self, condition: Mapping[str, str]) -> "JointPmf":
        """Restrict to rows matching `condition` and renormalize; scope unchanged."""
        if not condition:
            return self
        rows = self.strata(tuple(condition), self.scope).get(tuple(condition.values()))
        if rows is None:
            raise DistributionError("conditioning event %r has probability zero" % (dict(condition),))
        mass = sum(rows.values())
        return JointPmf(self.scope, {k: p / mass for k, p in rows.items()})

    def support(self, names: Sequence[str]) -> list[tuple[str, ...]]:
        """Sorted positive-probability assignments of the named coordinates."""
        return sorted(self.marginal(names).table)

    def mass(self, partial: Mapping[str, str]) -> Fraction:
        """Probability of a partial assignment (sum over matching rows)."""
        cells = self.strata(tuple(partial), ()).get(tuple(partial.values()), {})
        return cells.get((), Fraction(0))


# --- solving -------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionTable:
    """One row per positive-probability noise assignment, with its unique solution."""

    variables: tuple[str, ...]
    noise_assignments: tuple[tuple[str, ...], ...]
    probabilities: tuple[Fraction, ...]
    values: tuple[tuple[str, ...], ...]


def declared_graph(s: Scm) -> DirectedGraph:
    """Parent structure as declared by the mechanisms (no support pruning)."""
    edges = [(p, v.name) for v in s.variables for p in s.parents(v.name)]
    return DirectedGraph(s.variable_names, edges)


def _condensation_order(s: Scm) -> list[tuple[str, ...]]:
    g = declared_graph(s)
    comp_of = g.scc_of()
    # topological order of the condensation via repeated peeling
    comp_list = sorted({tuple(sorted(c)) for c in comp_of.values()})
    preds: dict[tuple[str, ...], set[tuple[str, ...]]] = {c: set() for c in comp_list}
    member_comp = {m: tuple(sorted(comp_of[m])) for m in g.nodes}
    for u, v in g.edges:
        cu, cv = member_comp[u], member_comp[v]
        if cu != cv:
            preds[cv].add(cu)
    order: list[tuple[str, ...]] = []
    ready = sorted(c for c in comp_list if not preds[c])
    remaining = {c: set(ps) for c, ps in preds.items()}
    done: set[tuple[str, ...]] = set()
    while ready:
        c = ready.pop(0)
        order.append(c)
        done.add(c)
        newly = sorted(
            d for d in comp_list
            if d not in done and d not in ready and remaining[d] <= done
        )
        ready = sorted(set(ready) | set(newly))
    return order


def _nominal_pairs(s: Scm, comp_order: list[tuple[str, ...]]) -> int:
    """Noise cells times the candidates the block solver may try per cell:
    the sum over strongly connected blocks of their joint domain size."""
    noise_cells = math.prod(max(1, len(s.noises[v].support)) for v in s.variable_names)
    size = {v.name: len(v.domain) for v in s.variables}
    return noise_cells * sum(math.prod(size[v] for v in comp) for comp in comp_order)


def solve_all(s: Scm, max_pairs: int = DEFAULT_MAX_PAIRS) -> SolutionTable:
    """Unique solution per positive-probability noise assignment, or raise.

    Raises UnsolvableModelError / NotUniquelySolvableError with the witness
    noise assignment (and, for multiplicity, two distinct solutions), and
    ComplexityError when the noise cells times the candidates summed over the
    strongly connected blocks (each block's joint domain size) exceed
    `max_pairs`.
    """
    from .scm import validate_scm

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
    mech = {v: s.mechanisms[v] for v in names}
    domains = {v.name: v.domain for v in s.variables}
    supports = [s.noises[v].support for v in names]
    noise_rows: list[tuple[str, ...]] = []
    probs: list[Fraction] = []
    values: list[tuple[str, ...]] = []

    # row probabilities in itertools.product order, by prefix products
    row_probs = [Fraction(1)]
    for v, support in zip(names, supports):
        weights = [s.noises[v].probability(lbl) for lbl in support]
        row_probs = [p * w for p in row_probs for w in weights]

    for noise, prob in zip(itertools.product(*supports), row_probs):
        nmap = dict(zip(names, noise))
        sols: list[dict[str, str]] = []

        def walk(k: int, partial: dict[str, str]) -> None:
            if len(sols) >= 2:
                return
            if k == len(comp_order):
                sols.append(dict(partial))
                return
            comp = comp_order[k]
            if len(comp) == 1:
                v = comp[0]
                m = mech[v]
                pa = tuple(partial[p] for p in m.parents)
                partial[v] = m.value(pa, nmap[v])
                walk(k + 1, partial)
                del partial[v]
                return
            for cand in itertools.product(*(domains[m_] for m_ in comp)):
                trial = dict(zip(comp, cand))
                ok = True
                for v in comp:
                    m = mech[v]
                    pa = tuple(trial[p] if p in trial else partial[p] for p in m.parents)
                    if m.value(pa, nmap[v]) != trial[v]:
                        ok = False
                        break
                if ok:
                    partial.update(trial)
                    walk(k + 1, partial)
                    for v in comp:
                        del partial[v]
                    if len(sols) >= 2:
                        return

        walk(0, {})
        if not sols:
            raise UnsolvableModelError(
                "no solution for noise assignment %r" % (nmap,), nmap
            )
        if len(sols) > 1:
            raise NotUniquelySolvableError(
                "multiple solutions for noise assignment %r" % (nmap,),
                nmap,
                tuple(tuple(sol[v] for v in names) for sol in sols),
            )
        noise_rows.append(noise)
        probs.append(prob)
        values.append(tuple(sols[0][v] for v in names))

    return SolutionTable(
        variables=names,
        noise_assignments=tuple(noise_rows),
        probabilities=tuple(probs),
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
    out = {
        noise + vals: prob
        for noise, prob, vals in zip(table.noise_assignments, table.probabilities, table.values)
    }
    return JointPmf(scope, out)


@dataclass
class SolvedModel:
    """One solve of a model: the solution table, the two joints and, filled on
    first use, everything derived from them (the regimes here, the graph
    families in `graph_objects`).  Derived values are computed once per
    instance; they are immutable, so sharing them is safe.
    """

    scm: Scm
    table: SolutionTable
    joint: JointPmf
    noise_joint: JointPmf
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, s: Scm, max_pairs: int = DEFAULT_MAX_PAIRS) -> "SolvedModel":
        table = solve_all(s, max_pairs)
        return cls(
            scm=s,
            table=table,
            joint=joint_pmf(s, table),
            noise_joint=noise_observable_joint(s, table),
        )

    @property
    def regimes(self) -> tuple[str, ...]:
        """Context values with positive probability, sorted."""
        if "regimes" not in self._derived:
            support = self.joint.support([self.scm.context_variable])
            self._derived["regimes"] = tuple(v[0] for v in support)
        return self._derived["regimes"]


# --- sampling ----------------------------------------------------------------------

def draw_samples(s: Scm, n: int, seed: int, table: SolutionTable | None = None) -> Dataset:
    """n iid rows from the observable joint, deterministic in (model, n, seed).

    Exact inverse-CDF over the noise assignments: cumulative Fractions are
    turned into ceil(c * 2**64) integer thresholds once, then each SplitMix64
    draw z (u = z / 2**64) picks the first cell with u below its boundary.
    """
    if n < 0:
        raise ScmError("sample count must be nonnegative")
    table = table if table is not None else solve_all(s)
    if not table.noise_assignments:
        raise DistributionError("model has no positive-probability noise assignment")
    cum = Fraction(0)
    thresholds = []
    for prob in table.probabilities[:-1]:
        cum += prob
        scaled = cum * (1 << 64)
        t = -(-scaled.numerator // scaled.denominator)  # ceil
        thresholds.append(min(t, (1 << 64) - 1))
    thr = np.array(thresholds, dtype=np.uint64)
    idx = uniform_thresholds_index(thr, seed, n)
    domains = {v.name: v.domain for v in s.variables}
    code_of = {
        v: {lbl: i for i, lbl in enumerate(domains[v])}
        for v in table.variables
    }
    row_codes = np.array(
        [[code_of[v][val] for v, val in zip(table.variables, vals)] for vals in table.values],
        dtype=np.int64,
    )
    codes = row_codes[idx]
    return Dataset(table.variables, domains, codes)
