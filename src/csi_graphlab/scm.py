"""Finite-category structural causal models with one context variable.

A model holds, per variable: a finite domain of category labels, one
exogenous noise term with an exact rational pmf, and a fully tabulated
mechanism mapping (parent assignment, noise label) to an output category.
All probabilities are `fractions.Fraction`; no floats enter ground truth.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "ScmError",
    "ScmFormatError",
    "VariableSpec",
    "NoiseSpec",
    "MechanismTable",
    "Scm",
    "validate_scm",
    "intervene",
    "load_scm",
    "serialize_scm",
]


class ScmError(ValueError):
    """Structurally invalid model or invalid model operation."""


class ScmFormatError(ScmError):
    """Malformed serialized model document."""


@dataclass(frozen=True)
class VariableSpec:
    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise term: label -> exact probability.

    Entries are canonicalized to label-sorted order on construction, so two
    specs with the same mapping compare equal and enumeration order is
    deterministic everywhere.
    """

    variable: str
    pmf: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "pmf", tuple(sorted(self.pmf)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.pmf)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, p in self.pmf if p > 0)

    def scaled(self) -> tuple[int, dict[str, int]]:
        """`(d, a)`: d the lcm of the pmf's denominators and a[label] = p * d,
        an integer, for every label in label order."""
        d = math.lcm(*(p.denominator for _, p in self.pmf))
        return d, {lbl: p.numerator * (d // p.denominator) for lbl, p in self.pmf}


@dataclass
class MechanismTable:
    """Extensional mechanism: (parent assignment, noise label) -> output label.

    `parents` fixes the coordinate order of the assignment tuples; the table
    must be total over the full parent-domain product times every noise label.
    """

    variable: str
    parents: tuple[str, ...]
    table: dict[tuple[tuple[str, ...], str], str] = field(default_factory=dict)

    def value(self, parent_values: tuple[str, ...], noise_label: str) -> str:
        try:
            return self.table[(parent_values, noise_label)]
        except KeyError:
            raise ScmError(
                "mechanism for %r has no row for parents=%r noise=%r"
                % (self.variable, parent_values, noise_label)
            ) from None

    @classmethod
    def from_function(
        cls,
        variable: str,
        parents: Sequence[str],
        parent_domains: Sequence[Sequence[str]],
        noise_labels: Sequence[str],
        fn: Callable[..., str],
    ) -> "MechanismTable":
        """Tabulate fn(*parent_values, noise_label) over the full input grid."""
        table: dict[tuple[tuple[str, ...], str], str] = {}
        for pa in itertools.product(*parent_domains):
            for n in noise_labels:
                table[(tuple(pa), n)] = fn(*pa, n)
        return cls(variable=variable, parents=tuple(parents), table=table)


@dataclass
class Scm:
    """Model: ordered variables, one noise and one mechanism per variable."""

    variables: tuple[VariableSpec, ...]
    context_variable: str
    noises: dict[str, NoiseSpec]
    mechanisms: dict[str, MechanismTable]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def domain(self, name: str) -> tuple[str, ...]:
        for v in self.variables:
            if v.name == name:
                return v.domain
        raise ScmError("unknown variable %r" % (name,))

    def noise(self, name: str) -> NoiseSpec:
        try:
            return self.noises[name]
        except KeyError:
            raise ScmError("no noise term for %r" % (name,)) from None

    def mechanism(self, name: str) -> MechanismTable:
        try:
            return self.mechanisms[name]
        except KeyError:
            raise ScmError("no mechanism for %r" % (name,)) from None

    def parents(self, name: str) -> tuple[str, ...]:
        return self.mechanism(name).parents


def validate_scm(s: Scm) -> list[str]:
    """Structural checks only; distribution-level checks live with the solver.

    Returns a list of human-readable violations, empty when the model is
    structurally sound.
    """
    problems: list[str] = []
    names = [v.name for v in s.variables]
    if len(set(names)) != len(names):
        problems.append("duplicate variable names")
        return problems
    name_set = set(names)
    if s.context_variable not in name_set:
        problems.append("context variable %r is not a model variable" % (s.context_variable,))
    for v in s.variables:
        if not v.domain:
            problems.append("variable %r has an empty domain" % (v.name,))
        if len(set(v.domain)) != len(v.domain):
            problems.append("variable %r has duplicate domain labels" % (v.name,))
    for v in s.variables:
        if v.name not in s.noises:
            problems.append("variable %r has no noise term" % (v.name,))
        if v.name not in s.mechanisms:
            problems.append("variable %r has no mechanism" % (v.name,))
    for extra in sorted(set(s.noises) - name_set):
        problems.append("noise term for unknown variable %r" % (extra,))
    for extra in sorted(set(s.mechanisms) - name_set):
        problems.append("mechanism for unknown variable %r" % (extra,))
    domains = {v.name: v.domain for v in s.variables}
    for name, noise in sorted(s.noises.items()):
        if name not in name_set:
            continue
        if noise.variable != name:
            problems.append("noise keyed %r names variable %r" % (name, noise.variable))
        labels = noise.labels
        if not labels:
            problems.append("noise for %r has no labels" % (name,))
            continue
        if len(set(labels)) != len(labels):
            problems.append("noise for %r has duplicate labels" % (name,))
        if any(p < 0 for _, p in noise.pmf):
            problems.append("noise for %r has a negative probability" % (name,))
        total = sum((p for _, p in noise.pmf), Fraction(0))
        if total != 1:
            problems.append("noise pmf for %r sums to %s, not 1" % (name, total))
        if not noise.support:
            problems.append("noise for %r has empty support" % (name,))
    for name, mech in sorted(s.mechanisms.items()):
        if name not in name_set:
            continue
        if mech.variable != name:
            problems.append("mechanism keyed %r names variable %r" % (name, mech.variable))
        if name in mech.parents:
            problems.append("variable %r lists itself as a parent" % (name,))
        unknown = [p for p in mech.parents if p not in name_set]
        if unknown:
            problems.append("mechanism for %r has unknown parents %r" % (name, unknown))
            continue
        if len(set(mech.parents)) != len(mech.parents):
            problems.append("mechanism for %r repeats a parent" % (name,))
            continue
        if name not in s.noises or name not in domains:
            continue
        noise_labels = s.noises[name].labels
        pa_domains = [domains[p] for p in mech.parents]
        expected = 1
        for d in pa_domains:
            expected *= len(d)
        expected *= len(noise_labels)
        if len(mech.table) != expected or any(
            (tuple(pa), n) not in mech.table
            for pa in itertools.product(*pa_domains)
            for n in noise_labels
        ):
            problems.append(
                "mechanism for %r is not total over parents x noise labels" % (name,)
            )
            continue
        dom = set(domains[name])
        bad = sorted({v for v in mech.table.values() if v not in dom})
        if bad:
            problems.append("mechanism for %r outputs labels outside its domain: %r" % (name, bad))
    return problems


def intervene(s: Scm, var: str, value: str) -> Scm:
    """Hard intervention: replace var's mechanism by the constant `value`.

    The variable keeps its (now inert) noise term; every other mechanism and
    every noise is shared unchanged.
    """
    if value not in s.domain(var):
        raise ScmError("value %r is not in the domain of %r" % (value, var))
    noise_labels = s.noise(var).labels
    const = MechanismTable(
        variable=var,
        parents=(),
        table={((), n): value for n in noise_labels},
    )
    mechanisms = dict(s.mechanisms)
    mechanisms[var] = const
    return Scm(
        variables=s.variables,
        context_variable=s.context_variable,
        noises=s.noises,
        mechanisms=mechanisms,
    )


# --- canonical JSON document -------------------------------------------------

def _fraction_from_text(text: object, where: str) -> Fraction:
    if not isinstance(text, str):
        raise ScmFormatError("%s: probability must be a string like '1/2', got %r" % (where, text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScmFormatError("%s: bad probability %r (%s)" % (where, text, exc)) from None


def serialize_scm(s: Scm) -> str:
    """Canonical JSON: sorted object keys, deterministic row order, trailing newline.

    Variables stay in declaration order (it is semantic: dataset column
    order); mechanism rows sort by (parent assignment, noise label) and pmf
    entries by label, so serialization is byte-stable.
    """
    doc = {
        "context_variable": s.context_variable,
        "variables": [{"name": v.name, "domain": list(v.domain)} for v in s.variables],
        "noises": [
            {
                "variable": v.name,
                "pmf": [[lbl, str(p)] for lbl, p in sorted(s.noises[v.name].pmf)],
            }
            for v in s.variables
        ],
        "mechanisms": [
            {
                "variable": v.name,
                "parents": list(s.mechanisms[v.name].parents),
                "rows": [
                    {
                        "parents": {
                            p: val
                            for p, val in zip(s.mechanisms[v.name].parents, pa)
                        },
                        "noise": n,
                        "value": out,
                    }
                    for (pa, n), out in sorted(s.mechanisms[v.name].table.items())
                ],
            }
            for v in s.variables
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _expect(doc: Mapping, key: str, kind: type, where: str):
    if key not in doc:
        raise ScmFormatError("%s: missing key %r" % (where, key))
    val = doc[key]
    if not isinstance(val, kind):
        raise ScmFormatError("%s: key %r must be %s" % (where, key, kind.__name__))
    return val


def load_scm(text: str) -> Scm:
    """Parse the canonical JSON document; raises ScmFormatError with the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScmFormatError("not valid JSON: %s" % (exc,)) from None
    if not isinstance(doc, dict):
        raise ScmFormatError("top level must be an object")
    context = _expect(doc, "context_variable", str, "document")
    variables: list[VariableSpec] = []
    for i, ventry in enumerate(_expect(doc, "variables", list, "document")):
        where = "variables[%d]" % i
        if not isinstance(ventry, dict):
            raise ScmFormatError("%s: must be an object" % where)
        name = _expect(ventry, "name", str, where)
        domain = _expect(ventry, "domain", list, where)
        if not all(isinstance(d, str) for d in domain):
            raise ScmFormatError("%s: domain labels must be strings" % where)
        variables.append(VariableSpec(name=name, domain=tuple(domain)))
    noises: dict[str, NoiseSpec] = {}
    for i, nentry in enumerate(_expect(doc, "noises", list, "document")):
        where = "noises[%d]" % i
        if not isinstance(nentry, dict):
            raise ScmFormatError("%s: must be an object" % where)
        var = _expect(nentry, "variable", str, where)
        pmf_raw = _expect(nentry, "pmf", list, where)
        pmf: list[tuple[str, Fraction]] = []
        for j, item in enumerate(pmf_raw):
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
                raise ScmFormatError("%s.pmf[%d]: expected [label, probability]" % (where, j))
            pmf.append((item[0], _fraction_from_text(item[1], "%s.pmf[%d]" % (where, j))))
        if var in noises:
            raise ScmFormatError("%s: duplicate noise for %r" % (where, var))
        noises[var] = NoiseSpec(variable=var, pmf=tuple(pmf))
    mechanisms: dict[str, MechanismTable] = {}
    for i, mentry in enumerate(_expect(doc, "mechanisms", list, "document")):
        where = "mechanisms[%d]" % i
        if not isinstance(mentry, dict):
            raise ScmFormatError("%s: must be an object" % where)
        var = _expect(mentry, "variable", str, where)
        parents_raw = _expect(mentry, "parents", list, where)
        if not all(isinstance(p, str) for p in parents_raw):
            raise ScmFormatError("%s: parents must be strings" % where)
        parents = tuple(parents_raw)
        table: dict[tuple[tuple[str, ...], str], str] = {}
        for j, row in enumerate(_expect(mentry, "rows", list, where)):
            rwhere = "%s.rows[%d]" % (where, j)
            if not isinstance(row, dict):
                raise ScmFormatError("%s: must be an object" % rwhere)
            pa_map = _expect(row, "parents", dict, rwhere)
            if set(pa_map) != set(parents):
                raise ScmFormatError(
                    "%s: parent assignment keys %r do not match declared parents %r"
                    % (rwhere, sorted(pa_map), list(parents))
                )
            noise = _expect(row, "noise", str, rwhere)
            value = _expect(row, "value", str, rwhere)
            key = (tuple(pa_map[p] for p in parents), noise)
            if key in table:
                raise ScmFormatError("%s: duplicate row for %r" % (rwhere, key))
            table[key] = value
        if var in mechanisms:
            raise ScmFormatError("%s: duplicate mechanism for %r" % (where, var))
        mechanisms[var] = MechanismTable(variable=var, parents=parents, table=table)
    s = Scm(
        variables=tuple(variables),
        context_variable=context,
        noises=noises,
        mechanisms=mechanisms,
    )
    problems = validate_scm(s)
    if problems:
        raise ScmFormatError("document parses but model is invalid: " + "; ".join(problems))
    return s
