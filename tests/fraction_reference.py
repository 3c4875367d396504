"""`Fraction` references for the exact layer's integer weights.

Verbatim copies of the code that integer weights replaced, kept in
`fractions.Fraction` end to end: the solver's prefix-product row
probabilities, the stratum group-by and the other methods of the rational
joint (`FractionPmf`), the factorization test, the exact CI oracle, the
conditional mutual information, and the local-Markov and
noise-factorization laws.  Tests compare the package with them by `==`, on the suites at the end.
A package joint enters through `fraction_pmf`, which reads its rational
`table` view, so no integer weight is summed or compared here; a test's own
`Fraction` table enters the package through `from_table`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from hypothesis import strategies as st

from csi_graphlab import laws
from csi_graphlab.exact import (
    DistributionError,
    JointPmf,
    SolutionTable,
    _getter,
    noise_name,
    noise_observable_joint,
)
from csi_graphlab.graph_objects import descriptive_graph, is_weakly_regime_acyclic, union_graph
from csi_graphlab.independence import CiQuery, CiVerdict, IndependenceError, _query_context
from csi_graphlab.laws import _WITNESS_CAP, LawsError, _done, _skip
from csi_graphlab.rng import derive_seed
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec


def from_table(scope: Sequence[str], table: Mapping[tuple[str, ...], Fraction]) -> JointPmf:
    """The package pmf of a table of rational masses, over the lcm of their
    reduced denominators."""
    d = math.lcm(*(p.denominator for p in table.values()))
    weights = {key: p.numerator * (d // p.denominator) for key, p in table.items()}
    return JointPmf(tuple(scope), weights, d)


def row_probabilities(s):
    """The solve's row probabilities, in `itertools.product` order over the
    positive noise supports, as `solve_all` built them in `Fraction`s."""
    row_probs = [Fraction(1)]
    for v in s.variable_names:
        pmf = dict(s.noises[v].pmf)
        weights = [pmf[lbl] for lbl in s.noises[v].support]
        row_probs = [p * w for p in row_probs for w in weights]
    return tuple(row_probs)


def assert_solve_matches(solved):
    """The solution table's probabilities are `row_probabilities`, and its
    noise joint is `from_table` of them: the same weights, in
    order, over the same denominator."""
    table = solved.table
    probs = row_probabilities(solved.scm)
    assert table.probabilities == probs
    scope = tuple(noise_name(v) for v in table.variables) + table.variables
    rows = [noise + vals for noise, vals in zip(table.noise_assignments, table.values)]
    expected = from_table(scope, dict(zip(rows, probs)))
    joint = noise_observable_joint(solved.scm, table)
    assert joint.scope == expected.scope
    assert list(joint.weights.items()) == list(expected.weights.items())
    assert joint.denominator == expected.denominator


def first_dependence(
    cells: Mapping[tuple[str, ...], Fraction], k: int
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
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
class FractionPmf:
    """The rational joint: a `Fraction` per stored row."""

    scope: tuple[str, ...]
    table: dict[tuple[str, ...], Fraction]

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise DistributionError("duplicate names in scope")

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

    def marginal(self, names: Sequence[str]) -> "FractionPmf":
        names = tuple(names)
        if not names:
            raise DistributionError("marginal needs at least one name")
        return FractionPmf(names, self.strata((), names).get((), {}))

    def conditional(self, condition: Mapping[str, str]) -> "FractionPmf":
        if not condition:
            return self
        rows = self.strata(tuple(condition), self.scope).get(tuple(condition.values()))
        if rows is None:
            raise DistributionError("conditioning event %r has probability zero" % (dict(condition),))
        mass = sum(rows.values())
        return FractionPmf(self.scope, {k: p / mass for k, p in rows.items()})

    def support(self, names: Sequence[str]) -> list[tuple[str, ...]]:
        return sorted(self.marginal(names).table)

    def mass(self, partial: Mapping[str, str]) -> Fraction:
        cells = self.strata(tuple(partial), ()).get(tuple(partial.values()), {})
        return cells.get((), Fraction(0))


def fraction_pmf(joint) -> FractionPmf:
    """The rational joint of a package `JointPmf`."""
    return FractionPmf(joint.scope, joint.table)


# --- the exact CI oracle -------------------------------------------------------------

def _exact_strata(
    p: FractionPmf, q: CiQuery, context: str | None, cols: tuple[str, ...]
) -> dict[tuple[str, ...], dict[tuple[str, ...], Fraction]]:
    ctx = _query_context(q, context)
    if ctx is None:
        return p.strata(q.z, cols)
    strata = {
        key[:-1]: cells
        for key, cells in p.strata((*q.z, ctx), cols).items()
        if key[-1] == q.regime
    }
    if not strata:
        raise IndependenceError("regime value %r has probability zero" % (q.regime,))
    return strata


def ci_exact(p: FractionPmf, q: CiQuery, context: str | None = None) -> CiVerdict:
    for cells in _exact_strata(p, q, context, (q.x, q.y)).values():
        if first_dependence(cells, 1) is not None:
            return CiVerdict(False, 0.0, 0.0, "ci_exact")
    return CiVerdict(True, 1.0, 0.0, "ci_exact")


def conditional_mutual_information(
    p: FractionPmf, q: CiQuery, context: str | None = None
) -> float:
    joint = _exact_strata(p, q, context, (q.x, q.y))
    px = _exact_strata(p, q, context, (q.x,))
    py = _exact_strata(p, q, context, (q.y,))
    mass = sum(sum(cells.values()) for cells in joint.values())
    mi = 0.0
    for z, cells in joint.items():
        total = sum(cells.values())
        for (xv, yv), prob in cells.items():
            ratio = (prob * total) / (px[z][(xv,)] * py[z][(yv,)])
            mi += float(prob / mass) * math.log(float(ratio))
    return mi


# --- the laws ------------------------------------------------------------------------

def check_local_markov(s, solved):
    """`laws.check_local_markov` on the rational noise joint."""
    nj = fraction_pmf(solved.noise_joint)
    names = solved.table.variables
    union = union_graph(solved)
    ctx = s.context_variable
    scc = union.scc_of()
    wit: list[dict] = []
    obligations = 0

    def barrier_test(y, b_vars, pmf, clause, regime=None):
        barrier = sorted(b_vars)
        others = [noise_name(v) for v in names if v != y]
        groups = pmf.strata(barrier, (y, *others))
        for b_vals in sorted(groups):
            hit = first_dependence(groups[b_vals], 1)
            if hit is not None:
                (yv,), ev = hit
                wit.append({
                    "clause": clause,
                    "variable": y,
                    "regime": regime,
                    "barrier": barrier,
                    "barrier_value": list(b_vals),
                    "value": yv,
                    "other_noises": list(ev),
                })
                return

    for y in names:
        if len(scc[y]) > 1:
            continue
        obligations += 1
        barrier_test(y, union.parents(y), nj, "pooled")
    anc_ctx = union.ancestors([ctx])
    by_regime = nj.strata((ctx,), nj.scope)
    weak = is_weakly_regime_acyclic(solved)
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        dscc = {} if weak else descr.scc_of()
        nj_r = FractionPmf(nj.scope, by_regime.get((r,), {}))
        for y in names:
            if y == ctx or y in anc_ctx or len(dscc.get(y, ())) > 1:
                continue
            obligations += 1
            barrier_test(y, set(descr.parents(y)) - {ctx}, nj_r, "per_context", r)
    if obligations == 0:
        return _skip("local_markov", "no variable meets the barrier hypotheses")
    return _done("local_markov", wit)


def reference_noise_factorization(s, solved, cap=None):
    """The row-by-row `Fraction` check the integer kernel replaced, verbatim."""
    if not is_weakly_regime_acyclic(solved):
        return _skip("noise_factorization", "model is not weakly regime-acyclic")
    names = solved.table.variables
    n = len(names)
    cap = (n - 1) if cap is None else cap
    if cap < 0:
        raise LawsError("cap must be nonnegative")
    nj = fraction_pmf(solved.noise_joint)
    noises = tuple(noise_name(v) for v in names)
    union = union_graph(solved)
    ctx = s.context_variable
    priors = [dict(s.noises[v].pmf) for v in names]
    anc_ctx = union.ancestors([ctx])
    descr = {r: descriptive_graph(solved, r) for r in solved.regimes}
    wit: list[dict] = []

    def verify(conditioned_on, anc, group, clause, regime=None):
        anc = sorted(anc)
        block = FractionPmf(noises, group).strata((), [noise_name(a) for a in anc])[()]
        anc_cols = [names.index(a) for a in anc]
        outside = [i for i, v in enumerate(names) if v not in anc]
        for row, p in group.items():
            expected = block[tuple(row[c] for c in anc_cols)]
            for i in outside:
                expected *= priors[i][row[i]]
            if p != expected:
                wit.append({
                    "clause": clause,
                    "regime": regime,
                    "conditioned_on": conditioned_on,
                    "noise_row": list(row),
                    "probability": str(p),
                    "factored": str(expected),
                })
                return

    for size in range(1, min(cap, n) + 1):
        for z_vars in itertools.combinations(names, size):
            if len(wit) >= _WITNESS_CAP:
                return _done("noise_factorization", wit)
            pooled = nj.strata(z_vars, noises)
            anc = union.ancestors(z_vars)
            for z_vals in sorted(pooled):
                verify(dict(zip(z_vars, z_vals)), anc, pooled[z_vals], "pooled")
            if ctx in z_vars:
                continue
            per_context = nj.strata((*z_vars, ctx), noises)
            for key in sorted(per_context):
                *z_vals, r = key
                anc_r = anc_ctx | descr[r].ancestors(z_vars)
                given = dict(zip(z_vars, z_vals))
                given[ctx] = r
                verify(given, anc_r, per_context[key], "per_context", r)
    notes = ()
    if cap < n:
        notes = ("conditioning sets of more than %d variables not checked" % cap,)
    return _done("noise_factorization", wit, notes)


# --- the suites compared -------------------------------------------------------------

# the (n_vars, seed) of the exact_pipeline benchmark's models, max_domain=3
PIPELINE_MODELS = ((8, 7), (8, 13), (8, 17), (8, 18), (10, 2))


def verify_models(count=200, seed=1):
    """The models `verify --count 200 --seed 1` checks."""
    spec = laws.RandomModelSpec()
    sizes = range(2, spec.n_vars + 1)
    return [
        laws.random_scm(replace(spec, n_vars=sizes[i % len(sizes)], seed=derive_seed(seed, i)))
        for i in range(count)
    ]


def pipeline_models():
    return [
        laws.random_scm(laws.RandomModelSpec(n_vars=n, max_domain=3, seed=k))
        for n, k in PIPELINE_MODELS
    ]


def with_noise_joint(solved, nj):
    """The solve whose solution table spells `nj` row by row: each key's
    noise and value halves, in key order, with its weight over the joint's
    denominator.  Its joints, regimes and graphs are derived from that table."""
    n = len(solved.table.variables)
    table = SolutionTable(
        variables=solved.table.variables,
        noise_assignments=tuple(key[:n] for key in nj.weights),
        weights=tuple(nj.weights.values()),
        denominator=nj.denominator,
        values=tuple(key[n:] for key in nj.weights),
    )
    return replace(solved, table=table)


def moved_mass(solved, src, dst, share):
    """The solved model with `share` of the mass of noise-joint row `src`
    (in sorted row order) moved to row `dst`."""
    nj = solved.noise_joint
    rows = sorted(nj.table.items())
    table = dict(nj.table)
    amount = rows[src][1] * share
    table[rows[src][0]] -= amount
    table[rows[dst][0]] += amount
    return with_noise_joint(solved, from_table(nj.scope, table))


def tampered(solved):
    """As in test_golden: half the first sorted noise-joint row's mass moves to
    the last row.  A one-row noise joint would come back untouched, so it is
    refused by name."""
    if len(solved.noise_joint.weights) < 2:
        raise ValueError("tampered needs a noise joint of two rows or more; %s has one"
                         % (solved.scm.variable_names,))
    return moved_mass(solved, 0, -1, Fraction(1, 2))


def tamperable(models):
    """The solves `tampered` changes: those whose noise joint has two rows or
    more.  Prints how many one-row solves it skipped."""
    kept = [sm for sm in models if len(sm.noise_joint.weights) > 1]
    print("tampered: %d of %d solves skipped, their noise joint has one row"
          % (len(models) - len(kept), len(models)))
    return kept


BIG_PRIMES = (2147483647, 2147483629, 2147483587)


def wide_denominator_model():
    """R -> X -> Y with coin noises over three primes near 2**31."""
    b = ("0", "1")
    names = ("R", "X", "Y")
    return Scm(
        variables=tuple(VariableSpec(v, b) for v in names),
        context_variable="R",
        noises={
            v: NoiseSpec(v, (("u0", Fraction(1, p)), ("u1", Fraction(p - 1, p))))
            for v, p in zip(names, BIG_PRIMES)
        },
        mechanisms={
            "R": MechanismTable.from_function("R", (), (), ("u0", "u1"), lambda u: b[u == "u1"]),
            "X": MechanismTable.from_function(
                "X", ("R",), (b,), ("u0", "u1"), lambda r, u: b[(r == "1") != (u == "u1")]
            ),
            "Y": MechanismTable.from_function(
                "Y", ("X",), (b,), ("u0", "u1"), lambda x, u: b[x == "1" and u == "u1"]
            ),
        },
    )


@st.composite
def fraction_tables(draw, max_names=4):
    """(scope, table): positive `Fraction` masses on distinct rows, some over
    primes near 2**31, so a common denominator can pass 2**62."""
    scope = tuple("V%d" % i for i in range(draw(st.integers(1, max_names))))
    keys = list(itertools.product(*(("0", "1", "2")[:draw(st.integers(1, 3))] for _ in scope)))
    rows = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    denominators = st.one_of(st.integers(1, 12), st.sampled_from(BIG_PRIMES))
    return scope, {
        row: Fraction(draw(st.integers(1, 1 << 31)), draw(denominators)) for row in rows
    }
