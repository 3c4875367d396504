"""Randomized structural-law suite over the exact machinery.

Each check replays one relation between the graph family and the exact
solution of a model, in exact arithmetic, and a failure carries a minimal
witness.  Models that do not meet a law's hypotheses yield a skipped result,
never a silent pass or a spurious failure.  `random_scm` draws small models
by rejection so the relations get exercised far from the curated corpus.

The noise-factorization and local Markov laws are decided by the paper's
solution-function argument from one gate derived once per solve: the
solution table, from which both joints are derived, is in product form and
its solved values are local (the locality scan is the one
`check_solution_locality` reads).  Noise factorization then holds for every
conditioning set at once; local Markov holds when, besides, the support
scan `random_scm` runs finds no witness and no variable is an ancestor of
its barrier.  Only a joint failing those premises is walked: noise
factorization over the 2^n - 2 proper conditioning sets in Python ints, comparing the noise joint's weights P = p * D (D its
denominator) with the priors scaled to integers by `NoiseSpec.scaled`
(a_i = prior_i * d_i), where a noise tuple factors exactly when
P * prod_out d_i == S * prod_out a_i, S being the weight of its cell; local
Markov over every barrier group by `first_dependence`.  Only witnesses go
back to `Fraction`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .discovery import markov_check
from .exact import (
    ComplexityError,
    JointPmf,
    SolutionTable,
    SolveError,
    SolvedModel,
    _getter,
    first_dependence,
    noise_name,
)
from .graph_objects import (
    check_R_faithfulness,
    check_strong_R_faithfulness,
    descriptive_graph,
    ident_graph,
    is_strongly_regime_acyclic,
    is_weakly_regime_acyclic,
    physical_graph,
    support_reduction_witnesses,
    union_graph,
)
from .rng import derive_seed
from .scm import MechanismTable, NoiseSpec, Scm, VariableSpec

__all__ = [
    "LawsError",
    "Requirements",
    "RandomModelSpec",
    "SampledModel",
    "CheckResult",
    "random_scm",
    "check_edge_inclusions",
    "check_union_property",
    "check_regime_children",
    "check_ident_sandwich",
    "check_solution_locality",
    "check_noise_factorization",
    "check_local_markov",
    "check_markov",
    "DEFAULT_CHECKS",
    "SuiteSummary",
    "run_suite",
]


class LawsError(ValueError):
    """Invalid suite configuration or exhausted model search."""


# --- random models -----------------------------------------------------------------

@dataclass(frozen=True)
class Requirements:
    """Properties the sampler must certify before accepting a draw."""

    solvable: bool = True
    strongly_regime_acyclic: bool = False
    R_faithful: bool = False


@dataclass(frozen=True)
class RandomModelSpec:
    """Size and admission bounds for randomly drawn models."""

    n_vars: int = 5
    max_domain: int = 3
    max_parents: int = 3
    seed: int = 0
    require: Requirements = field(default_factory=Requirements)

    def __post_init__(self):
        if self.n_vars < 1:
            raise LawsError("n_vars must be at least 1")
        # each noise pmf draws its own denominator in [#labels, 8], so label
        # counts must not exceed 8
        if not (2 <= self.max_domain <= 8):
            raise LawsError("max_domain must be in 2..8")
        if self.max_parents < 0:
            raise LawsError("max_parents must be nonnegative")


@dataclass(frozen=True)
class SampledModel:
    scm: Scm
    solved: SolvedModel | None
    attempts: int
    rejections: Mapping[str, int]


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    # positive integers summing to total; needs total >= parts
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _draw_model(rng: random.Random, spec: RandomModelSpec) -> Scm:
    n = spec.n_vars
    names = ["R"] + ["V%d" % i for i in range(1, n)]
    domains = {
        v: tuple(str(i) for i in range(rng.randint(2, spec.max_domain)))
        for v in names
    }
    order = list(names)
    rng.shuffle(order)
    noises: dict[str, NoiseSpec] = {}
    mechanisms: dict[str, MechanismTable] = {}
    for pos, y in enumerate(order):
        labels = ["u%d" % i for i in range(rng.randint(1, spec.max_domain))]
        denom = rng.randint(len(labels), 8)
        parts = _composition(rng, denom, len(labels))
        noises[y] = NoiseSpec(
            y, tuple((lbl, Fraction(k, denom)) for lbl, k in zip(labels, parts))
        )
        pool = order[:pos]
        parents = rng.sample(pool, rng.randint(0, min(spec.max_parents, len(pool))))
        if len(parents) < spec.max_parents and pos + 1 < n and rng.random() < 0.2:
            # occasional forward pick declares a cycle; solvability screening
            # decides whether the model survives
            parents.append(rng.choice(order[pos + 1:]))
        dom_y = domains[y]
        mechanisms[y] = MechanismTable.from_function(
            y, parents, [domains[p] for p in parents], labels,
            lambda *_args: rng.choice(dom_y),
        )
    variables = tuple(VariableSpec(v, domains[v]) for v in names)
    return Scm(variables, "R", noises, mechanisms)


def random_scm(spec: RandomModelSpec, max_attempts: int = 1000) -> SampledModel:
    """Rejection-sample a model meeting `spec.require`; deterministic in the seed.

    Mechanism outputs are uniform per table row and each noise pmf is random
    rationals over its own denominator, drawn between its label count and 8.
    Solvable draws whose mechanisms do not factor through their visible
    parents on support are always rejected (reason "support_entangled"): the
    solution-side laws quantify over models without such fine-tuned coupling.
    When `spec.require` needs a solution, draws without a unique one are
    rejected as "unsolvable" and draws beyond the solver's size guard as
    "too_large" (noise cells times the candidates summed over the strongly
    connected blocks exceed `exact.DEFAULT_MAX_PAIRS`).
    Raises LawsError with the rejection tally when no admissible model
    appears within the cap.
    """
    rejections: dict[str, int] = {}
    need_solution = (
        spec.require.solvable
        or spec.require.strongly_regime_acyclic
        or spec.require.R_faithful
    )
    for attempt in range(max_attempts):
        s = _draw_model(random.Random(derive_seed(spec.seed, attempt)), spec)
        solved = None
        reason = None
        try:
            solved = SolvedModel.of(s)
        except SolveError:
            if need_solution:
                reason = "unsolvable"
        except ComplexityError:
            if need_solution:
                reason = "too_large"
        if reason is None and solved is not None:
            if support_reduction_witnesses(solved):
                reason = "support_entangled"
        if reason is None and spec.require.strongly_regime_acyclic:
            if not is_strongly_regime_acyclic(solved):
                reason = "not_strongly_regime_acyclic"
        if reason is None and spec.require.R_faithful:
            if not check_R_faithfulness(solved).holds:
                reason = "not_R_faithful"
        if reason is None:
            return SampledModel(s, solved, attempt + 1, dict(rejections))
        rejections[reason] = rejections.get(reason, 0) + 1
    raise LawsError(
        "no admissible model in %d attempts (rejections: %s)"
        % (
            max_attempts,
            ", ".join("%s=%d" % kv for kv in sorted(rejections.items())) or "none",
        )
    )


# --- check results -----------------------------------------------------------------

_WITNESS_CAP = 10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one law on one model; failures carry minimal witnesses."""

    name: str
    passed: bool
    skipped: bool = False
    reason: str | None = None
    witnesses: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.skipped and not self.reason:
            raise LawsError("skipped check needs a reason")
        if self.skipped and (not self.passed or self.witnesses):
            raise LawsError("skipped check cannot fail or carry witnesses")
        if not self.passed and not self.witnesses:
            raise LawsError("failed check needs at least one witness")

    @property
    def status(self) -> str:
        """Tally key: "skipped", "passed" or "failed"."""
        return "skipped" if self.skipped else "passed" if self.passed else "failed"


def _done(name: str, witnesses: list[dict], notes: tuple[str, ...] = ()) -> CheckResult:
    witnesses = witnesses[:_WITNESS_CAP]
    return CheckResult(
        name, passed=not witnesses, witnesses=tuple(witnesses), notes=tuple(notes)
    )


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, passed=True, skipped=True, reason=reason)


# --- graph-family laws ---------------------------------------------------------------

def check_edge_inclusions(s: Scm, solved: SolvedModel) -> CheckResult:
    """Per context value: descriptive edges within physical edges within pooled."""
    union = union_graph(solved)
    wit: list[dict] = []
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        phys = physical_graph(solved, r)
        for e in sorted(descr.edges - phys.edges):
            wit.append({"relation": "descriptive_within_physical", "regime": r, "edge": e})
        for e in sorted(phys.edges - union.edges):
            wit.append({"relation": "physical_within_pooled", "regime": r, "edge": e})
    return _done("edge_inclusions", wit)


def check_union_property(s: Scm, solved: SolvedModel) -> CheckResult:
    """The pooled graph is exactly the union of the per-context physical graphs.

    The union of descriptive graphs may fall short of the pooled graph, but
    only when some mechanism is re-expressible over other parents; the
    rewrite search must then produce a witness.
    """
    union = union_graph(solved)
    phys_edges: set[tuple[str, str]] = set()
    descr_edges: set[tuple[str, str]] = set()
    for r in solved.regimes:
        phys_edges |= physical_graph(solved, r).edges
        descr_edges |= descriptive_graph(solved, r).edges
    wit: list[dict] = []
    notes: list[str] = []
    for e in sorted(union.edges - phys_edges):
        wit.append({"relation": "pooled_edge_in_no_physical", "edge": e})
    for e in sorted(phys_edges - union.edges):
        wit.append({"relation": "physical_union_exceeds_pooled", "edge": e})
    gap = sorted(union.edges - descr_edges)
    if gap:
        faith = check_strong_R_faithfulness(solved)
        if faith.holds:
            wit.append({"relation": "descriptive_gap_without_rewrite", "edges": gap})
        else:
            notes.append(
                "descriptive union misses %d pooled edge(s); mechanism rewrite witnessed"
                % len(gap)
            )
    return _done("union_property", wit, tuple(notes))


def check_regime_children(s: Scm, solved: SolvedModel) -> CheckResult:
    """No pooled context arrow into Y means Y keeps its pooled parents in
    every per-context physical graph."""
    ctx = solved.scm.context_variable
    union = union_graph(solved)
    phys = {r: physical_graph(solved, r) for r in solved.regimes}
    wit: list[dict] = []
    for y in solved.table.variables:
        if y == ctx or ctx in union.parents(y):
            continue
        want = set(union.parents(y))
        for r in solved.regimes:
            got = set(phys[r].parents(y))
            if got != want:
                wit.append({
                    "variable": y,
                    "regime": r,
                    "physical_parents": sorted(got),
                    "pooled_parents": sorted(want),
                })
    return _done("regime_children", wit)


def check_ident_sandwich(s: Scm, solved: SolvedModel) -> CheckResult:
    """Descriptive within identified within pooled; under strong regime-
    acyclicity the identified graph also stays within the physical graph."""
    union = union_graph(solved)
    strong = is_strongly_regime_acyclic(solved)
    wit: list[dict] = []
    notes: list[str] = []
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        ident = ident_graph(solved, r)
        for e in sorted(descr.edges - ident.edges):
            wit.append({"relation": "descriptive_within_ident", "regime": r, "edge": e})
        for e in sorted(ident.edges - union.edges):
            wit.append({"relation": "ident_within_pooled", "regime": r, "edge": e})
        if strong:
            phys = physical_graph(solved, r)
            for e in sorted(ident.edges - phys.edges):
                wit.append({"relation": "ident_within_physical", "regime": r, "edge": e})
    if not strong:
        notes.append(
            "ident-within-physical clause not checked:"
            " model is not strongly regime-acyclic"
        )
    return _done("ident_sandwich", wit, tuple(notes))


# --- solution-function laws ----------------------------------------------------------

def _first_violation(rows, cols, vi):
    """The first two (noise, values) rows that agree on the noises at `cols`
    but solve to different values at `vi`, as (noise, value) pairs; None when
    the noises at `cols` fix the value."""
    key = _getter(cols)
    seen: dict[tuple[str, ...], tuple[tuple[str, ...], str]] = {}
    for noise, vals in rows:
        prev = seen.setdefault(key(noise), (noise, vals[vi]))
        if prev[1] != vals[vi]:
            return prev, (noise, vals[vi])
    return None


def _locality_violations(solved: SolvedModel, rows):
    """Each clause's first violation of solution locality on (noise, values)
    rows, noises and values in variable order: the pooled clause for every
    variable, then the per-context clause for every regime and variable."""
    names = solved.table.variables
    pos = {v: i for i, v in enumerate(names)}
    ci = pos[solved.scm.context_variable]
    union = union_graph(solved)
    for vi, v in enumerate(names):
        hit = _first_violation(rows, [pos[a] for a in sorted(union.ancestors([v]))], vi)
        if hit is not None:
            yield "pooled", v, None, hit
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        rows_r = [row for row in rows if row[1][ci] == r]
        for vi, v in enumerate(names):
            hit = _first_violation(rows_r, [pos[a] for a in sorted(descr.ancestors([v]))], vi)
            if hit is not None:
                yield "per_context", v, r, hit


def _solution_violations(solved: SolvedModel) -> tuple:
    """`_locality_violations` on the solution table, scanned once per solve."""
    table = solved.table
    return solved.derive("locality", lambda: tuple(_locality_violations(
        solved, list(zip(table.noise_assignments, table.values))
    )))


def check_solution_locality(s: Scm, solved: SolvedModel) -> CheckResult:
    """Solved values depend only on ancestral noises.

    Pooled clause: two noise assignments agreeing on the pooled ancestors of X
    solve to the same X.  Per-context clause: within a context stratum,
    agreement on the descriptive ancestors of X suffices.  Needs weak
    regime-acyclicity.
    """
    if not is_weakly_regime_acyclic(solved):
        return _skip("solution_locality", "model is not weakly regime-acyclic")
    wit = [
        {
            "clause": clause,
            "variable": v,
            "regime": r,
            "noise_rows": [list(first[0]), list(second[0])],
            "values": [first[1], second[1]],
        }
        for clause, v, r, (first, second) in _solution_violations(solved)
    ]
    return _done("solution_locality", wit)


def _product_form_gate(solved: SolvedModel) -> bool:
    """The premises both noise-side laws are decided on, derived once per
    solve: the solution table's rows are in product form (`_product_form`),
    and the solve's locality scan, the one `check_solution_locality` reads,
    found no violation of either clause.  The joints and the regimes are
    derived from the same rows, so every row is a key of the noise joint,
    its context value is a regime and its parent values are on the supports
    the graphs and `support_reduction_witnesses` read.
    """

    def holds() -> bool:
        table = solved.table
        d, prior = zip(*(solved.scm.noises[v].scaled() for v in table.variables))
        return _product_form(table, d, prior) and not _solution_violations(solved)

    return solved.derive("product_form", holds)


def check_noise_factorization(s: Scm, solved: SolvedModel) -> CheckResult:
    """Conditioning on observables only ties together ancestral noises.

    For observed Z the noise posterior factors into the block over the pooled
    ancestors of Z times untouched priors; with the context pinned to r (and
    outside Z) the block is over pooled ancestors of the context plus
    descriptive ancestors of Z.  Exact equality, on every proper subset of
    the variables.  Needs weak regime-acyclicity.

    Decided in integers.  With D the noise joint's denominator and, for each
    noise i, (d_i, a_i) its prior scaled by `NoiseSpec.scaled`, a noise
    tuple of weight P within a group passes when
    P * prod_out d_i == S * prod_out a_i.  S is the weight of its cell
    (group, ancestral noise values), and the products run over the noises
    outside the block.

    The paper's own argument settles every Z at once when the shared gate
    `_product_form_gate` holds, which `check_local_markov` reads too.  Its
    two premises:

    - product form: the noise tuples (distinct in every solution table)
      use only labels of positive prior and number prod_i |positive
      support|; every weight w has w * prod_i d_i == D * prod_i a_i; each
      prior's positive labels sum to one.
    - locality: the solve's single locality scan found no violation of
      either clause; every row's context value is a regime, as the
      regimes are read off those rows.

    Proof sketch.  Under product form every completion of the outside
    noises is a row of the joint.  Locality puts all those completions in
    one cell: the block holds the ancestors of every member of Z, and for
    the per-context clause also the context's own ancestors, so the context
    is fixed across the cell too.  The cell's weight S is then D times the
    prior product over the block, and the cell test holds as an identity.

    When the gate fails, `_factorization_kernel` walks every conditioning
    set, group by group, in Python ints; it is the only source of witnesses.
    """
    if not is_weakly_regime_acyclic(solved):
        return _skip("noise_factorization", "model is not weakly regime-acyclic")
    notes = ("conditioning sets of more than %d variables not checked"
             % (len(solved.table.variables) - 1),)
    if _product_form_gate(solved):
        return _done("noise_factorization", [], notes)
    return _factorization_kernel(solved, notes)


def _product_form(table: SolutionTable, d: Sequence[int], prior: Sequence[dict[str, int]]) -> bool:
    """Whether the table's noise tuples are exactly the product of the
    positive noise supports, each weighted by the product of its priors."""
    positive = [{lbl: a for lbl, a in pr.items() if a > 0} for pr in prior]
    if any(sum(pos.values()) != dj for pos, dj in zip(positive, d)):
        return False
    noises = table.noise_assignments
    if len(noises) != math.prod(map(len, positive)):
        return False
    scale = math.prod(d)
    denom = table.denominator
    for noise, w in zip(noises, table.weights):
        a = 1
        for pos, lbl in zip(positive, noise):
            if lbl not in pos:
                return False
            a *= pos[lbl]
        if w * scale != denom * a:
            return False
    return True


def _factorization_kernel(solved: SolvedModel, notes: tuple[str, ...]) -> CheckResult:
    """The cell test for every proper subset of the variables as the
    conditioning set, walked in Python ints over the groups of
    `JointPmf.strata`.

    Each failing (conditioning set, clause, group) gives one witness, its
    first failing noise tuple in table order, with `Fraction` values; at most
    `_WITNESS_CAP` are kept.  A noise tuple on several rows of a group is
    tested, and reported, with their summed weight.
    """
    names = solved.table.variables
    n = len(names)
    ctx = solved.scm.context_variable
    nj = solved.noise_joint
    denom = nj.denominator
    noises = tuple(noise_name(v) for v in names)
    d, prior = zip(*(solved.scm.noises[v].scaled() for v in names))
    union = union_graph(solved)
    anc_ctx = union.ancestors([ctx])
    descr = {r: descriptive_graph(solved, r) for r in solved.regimes}
    wit: list[dict] = []

    def check_group(given, anc, cells, clause, regime=None):
        out = [j for j, v in enumerate(names) if v not in anc]
        block_of = _getter([j for j, v in enumerate(names) if v in anc])
        block: dict[tuple[str, ...], int] = {}
        for noise, w in cells.items():
            b = block_of(noise)
            block[b] = block.get(b, 0) + w
        out_d = math.prod(d[j] for j in out)
        for noise, w in cells.items():
            factored = block[block_of(noise)] * math.prod(prior[j][noise[j]] for j in out)
            if w * out_d != factored:
                wit.append({
                    "clause": clause,
                    "regime": regime,
                    "conditioned_on": given,
                    "noise_row": list(noise),
                    "probability": str(Fraction(w, denom)),
                    "factored": str(Fraction(factored, denom * out_d)),
                })
                return

    for size in range(1, n):
        for z_vars in itertools.combinations(names, size):
            if len(wit) >= _WITNESS_CAP:
                # a full witness list ends the walk before the next set, and
                # a walk ended early reports no unchecked sets
                return _done("noise_factorization", wit)
            pooled = nj.strata(z_vars, noises)
            anc = union.ancestors(z_vars)
            for z_vals in sorted(pooled):
                check_group(dict(zip(z_vars, z_vals)), anc, pooled[z_vals], "pooled")
            if ctx in z_vars:
                continue
            per_context = nj.strata((*z_vars, ctx), noises)
            for key in sorted(per_context):
                *z_vals, r = key
                given = dict(zip(z_vars, z_vals))
                given[ctx] = r
                anc_r = anc_ctx | descr[r].ancestors(z_vars)
                check_group(given, anc_r, per_context[key], "per_context", r)
    return _done("noise_factorization", wit, notes)


def _barrier_obligations(solved: SolvedModel) -> list[tuple]:
    """The local Markov law's barrier tests, in walk order, as (clause,
    variable, regime, barrier, graph): the pooled clause for every variable
    off the pooled cycles, then per regime the per-context clause for every
    variable off the descriptive cycles that is no pooled ancestor of the
    context.  The barrier is the variable's parents in the clause's graph,
    the context left out per context."""
    names = solved.table.variables
    union = union_graph(solved)
    ctx = solved.scm.context_variable
    cyclic = union.cyclic_nodes()
    out = [("pooled", y, None, union.parents(y), union) for y in names if y not in cyclic]
    anc_ctx = union.ancestors([ctx])
    for r in solved.regimes:
        descr = descriptive_graph(solved, r)
        d_cyclic = descr.cyclic_nodes()
        out += [
            ("per_context", y, r, descr.parents(y) - {ctx}, descr)
            for y in names
            if not (y == ctx or y in anc_ctx or y in d_cyclic)
        ]
    return out


def check_local_markov(s: Scm, solved: SolvedModel) -> CheckResult:
    """Parent sets act as barriers against all other noise terms.

    Pooled clause: a variable off every pooled cycle is independent of the
    other noises given its pooled parents.  Per-context clause: a variable
    off every descriptive cycle that is no pooled ancestor of the context is
    independent of the other noises given its descriptive parents, within
    the stratum.

    The paper's argument decides the law without a pass over the noise
    joint when three facts hold: the shared gate `_product_form_gate`, no
    `support_reduction_witnesses`, and, for every barrier test, y outside
    the ancestors of its barrier B in that clause's graph.

    Proof sketch, pooled clause.  Product form makes N_y independent of the
    other noises N_-y.  Pooled locality makes B a function of the noises of
    B's pooled ancestors, none of which is N_y, so B is a function of N_-y.
    The pooled support scan keeps y's pooled parents, which are B, on the
    support of y's declared parents, which holds every row's parent values
    (`solved.joint` is derived from the rows): so y = g(B, N_y) on every
    row.  Given B = b, an event on N_-y, y = g(b, N_y) stays independent
    of N_-y, and every barrier group factors exactly.

    Per-context clause, within R = r.  R is a function of the noises of its
    pooled ancestors, y not among them, so R = r is an event on N_-y.
    Per-context locality makes B a function of the noises of B's
    descriptive ancestors on those rows, N_y not among them.  The
    per-context scan keeps y's descriptive parents; R is constant within
    R = r, so keeping it changes no group, and y = g(B, N_y) on those rows.
    The pooled argument then runs within R = r.  A parentless y is f(N_y)
    in both clauses.

    Otherwise `_local_markov_walk` tests every barrier group on the noise
    joint's weights; it is the only source of witnesses.
    """
    obligations = _barrier_obligations(solved)
    if not obligations:
        return _skip("local_markov", "no variable meets the barrier hypotheses")
    if (
        all(y not in g.ancestors(barrier) for _, y, _, barrier, g in obligations)
        and not support_reduction_witnesses(solved)
        and _product_form_gate(solved)
    ):
        return _done("local_markov", [])
    return _local_markov_walk(solved, obligations)


def _local_markov_walk(solved: SolvedModel, obligations: list[tuple]) -> CheckResult:
    """Each barrier test by `first_dependence` on the noise joint's weights,
    pooled or within the test's context stratum; the first dependent group
    of a test, in sorted barrier-value order, gives its witness."""
    nj = solved.noise_joint
    names = solved.table.variables
    by_regime = nj.strata((solved.scm.context_variable,), nj.scope)
    wit: list[dict] = []
    for clause, y, regime, b_vars, _ in obligations:
        pmf = nj
        if regime is not None:
            pmf = JointPmf(nj.scope, by_regime.get((regime,), {}), nj.denominator)
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
                break
    return _done("local_markov", wit)


def check_markov(s: Scm, solved: SolvedModel) -> CheckResult:
    """Every non-adjacent pair is separated by its designated conditioning set
    (delegates to the discovery-side checker); needs strong regime-acyclicity."""
    report = markov_check(solved)
    if not report.applicable:
        return _skip("markov", "model is not strongly regime-acyclic")
    wit = [
        {
            "x": o.x,
            "y": o.y,
            "regime": o.regime,
            "clause": o.clause,
            "candidates": [list(c) for c in o.candidates],
        }
        for o in report.failures
    ]
    return _done("markov", wit)


# Every check is called as chk(s, solved) and reads the model, its priors and
# its context from `solved` alone; `s` stays for that calling convention.
DEFAULT_CHECKS: tuple[Callable[..., CheckResult], ...] = (
    check_edge_inclusions,
    check_union_property,
    check_regime_children,
    check_ident_sandwich,
    check_solution_locality,
    check_noise_factorization,
    check_local_markov,
    check_markov,
)


# --- suite -------------------------------------------------------------------------

@dataclass
class SuiteSummary:
    """Aggregated outcome of the law suite over randomly drawn models."""

    count: int
    seed: int
    models: tuple[dict, ...]
    tallies: dict[str, dict[str, int]]
    failures: tuple[dict, ...]
    rejections: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "ok": self.ok,
            "tallies": {k: dict(v) for k, v in sorted(self.tallies.items())},
            "failures": [dict(f) for f in self.failures],
            "rejections": dict(sorted(self.rejections.items())),
            "models": [dict(m) for m in self.models],
        }


def run_suite(
    count: int,
    spec: RandomModelSpec | None = None,
    seed: int | None = None,
    checks: tuple[Callable[..., CheckResult], ...] = DEFAULT_CHECKS,
) -> SuiteSummary:
    """Run every law on `count` random models; deterministic in (spec, seed).

    Model sizes cycle from 2 variables up to spec.n_vars.  Models admitted
    without a solution (possible only when `spec.require.solvable` is off)
    are recorded but no checks run on them.
    """
    if count < 0:
        raise LawsError("count must be nonnegative")
    spec = spec if spec is not None else RandomModelSpec()
    seed = spec.seed if seed is None else seed
    sizes = list(range(2, spec.n_vars + 1)) or [spec.n_vars]
    tallies: dict[str, dict[str, int]] = {}
    models: list[dict] = []
    failures: list[dict] = []
    rejections: dict[str, int] = {}
    for i in range(count):
        mspec = replace(spec, n_vars=sizes[i % len(sizes)], seed=derive_seed(seed, i))
        sampled = random_scm(mspec)
        for reason, k in sampled.rejections.items():
            rejections[reason] = rejections.get(reason, 0) + k
        models.append({
            "index": i,
            "seed": mspec.seed,
            "n_vars": mspec.n_vars,
            "attempts": sampled.attempts,
            "solved": sampled.solved is not None,
        })
        if sampled.solved is None:
            continue
        for chk in checks:
            res = chk(sampled.scm, sampled.solved)
            tally = tallies.setdefault(res.name, {"passed": 0, "failed": 0, "skipped": 0})
            tally[res.status] += 1
            if res.status == "failed":
                failures.append({
                    "model_index": i,
                    "model_seed": mspec.seed,
                    "check": res.name,
                    "witnesses": [dict(w) for w in res.witnesses],
                })
    return SuiteSummary(
        count=count,
        seed=seed,
        models=tuple(models),
        tallies=tallies,
        failures=tuple(failures),
        rejections=rejections,
    )
