"""Spans around calls into csi_graphlab, recorded from outside the package.

`Tracer.install()` replaces each function in `TARGETS` with a recording
wrapper in every csi_graphlab namespace that binds it: `from .x import f`
copies the reference, so patching only the defining module would miss the
calls made through `laws`, `discovery` or `cli`.  Tuples of wrapped
functions (`DEFAULT_CHECKS`) and default arguments that hold them are
patched too.  `uninstall()` restores every original.

A span is (name, start, end, parent span, op id); spans live in flat arrays
until the run ends.  Counts are taken from arguments and return values in
per-function hooks that run after the span closes.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "laws", "graph_objects", "exact", "independence", "discovery",
    "transfer", "data", "scm", "graphs", "classify", "cli",
)

# Per layer: public module functions, `Class.method`, classmethods and properties.
# Tiny graph accessors (parents, children, has_edge) stay unwrapped: a span
# would cost more than the call.
TARGETS = {
    "laws": (
        "random_scm", "run_suite",
        "check_edge_inclusions", "check_union_property", "check_regime_children",
        "check_ident_sandwich", "check_solution_locality", "check_noise_factorization",
        "check_local_markov", "check_markov",
    ),
    "graph_objects": (
        "mechanism_graph", "observable_graph", "union_graph", "descriptive_graph",
        "physical_graph", "counterfactual_graph", "ident_graph",
        "is_weakly_regime_acyclic", "is_strongly_regime_acyclic",
        "support_reduction_witnesses", "ground_truth",
        "check_R_faithfulness", "check_strong_R_faithfulness",
    ),
    "exact": (
        "solve_all", "joint_pmf", "noise_observable_joint", "draw_samples",
        "JointPmf.marginal", "JointPmf.conditional", "JointPmf.support", "JointPmf.mass",
        "SolvedModel.of", "SolvedModel.regimes",
    ),
    "independence": (
        "ci_exact", "g_test", "g_test_from_tables", "conditional_mutual_information",
    ),
    "discovery": (
        "skeleton_pooled", "skeleton_masked", "detect_graph", "intersection_graph",
        "union_from_contexts", "markov_check", "ExactTester.test", "SampleTester.test",
    ),
    "transfer": ("transfer_evidence",),
    "data": ("Dataset.from_csv", "Dataset.to_csv", "Dataset.restrict"),
    "scm": ("validate_scm", "intervene", "load_scm", "serialize_scm"),
    "graphs": (
        "acyclify", "d_separated", "union_graphs",
        "DirectedGraph.ancestors", "DirectedGraph.descendants",
        "DirectedGraph.strongly_connected_components", "DirectedGraph.scc_of",
        "DirectedGraph.topological_order", "DirectedGraph.skeleton",
        "DirectedGraph.to_dot", "UndirectedSkeleton.to_dot",
    ),
    "classify": ("classify_changes",),
    "cli": ("main",),
}

GRAPH_FAMILIES = (
    "union_graph", "descriptive_graph", "physical_graph", "counterfactual_graph", "ident_graph",
)

COUNTERS = (
    "laws.random_scm.accepted", "laws.random_scm.attempts", "laws.rejections",
    "exact.noise_rows", "independence.g_test.rows_scanned",
    "independence.g_test.skipped_strata", "independence.g_test.untestable",
    "transfer.replicates", "transfer.unseen_cell_rows", "data.rows_parsed",
)

_LOW_COUNT = re.compile(r"(\d+) strata below the expected-count floor")


def _arg(a, k, i, name, default=None):
    if len(a) > i:
        return a[i]
    return k.get(name, default)


def _canon_query(x, y, z, regime):
    return (frozenset((x, y)), tuple(sorted(z)), regime)


# --- hooks: counts from arguments and return values ---------------------------------

def _hook_random_scm(rec, a, k, out):
    rec.counts["laws.random_scm.accepted"] += 1
    rec.counts["laws.random_scm.attempts"] += out.attempts
    rec.counts["laws.rejections"] += sum(out.rejections.values())


def _family_hook(fam, has_regime):
    def hook(rec, a, k, out):
        s = _arg(a, k, 0, "s")
        r = _arg(a, k, 1, "r") if has_regime else None
        rec.unique("graph_objects", (id(s), fam, r), s)
    return hook


def _hook_solve_all(rec, a, k, out):
    rec.counts["exact.noise_rows"] += len(out.probabilities)


def _hook_ci_exact(rec, a, k, out):
    p = _arg(a, k, 0, "p")
    q = _arg(a, k, 1, "q")
    rec.unique("independence.ci_exact", (id(p), _canon_query(q.x, q.y, q.z, q.regime)), p)


def _hook_g_test(rec, a, k, out):
    rec.counts["independence.g_test.rows_scanned"] += _arg(a, k, 0, "data").n_rows
    if out.warning:
        m = _LOW_COUNT.search(out.warning)
        if m:
            rec.counts["independence.g_test.skipped_strata"] += int(m.group(1))
        if "no qualifying strata" in out.warning:
            rec.counts["independence.g_test.untestable"] += 1


def _hook_tester(rec, a, k, out):
    tester = a[0]
    key = _canon_query(_arg(a, k, 1, "x"), _arg(a, k, 2, "y"),
                       _arg(a, k, 3, "z", ()), _arg(a, k, 4, "regime"))
    rec.unique("discovery", (id(tester), key), tester)


def _hook_transfer(rec, a, k, out):
    rec.counts["transfer.replicates"] += _arg(a, k, 5, "cfg").K
    rec.counts["transfer.unseen_cell_rows"] += out.details["unseen_cell_rows"]


def _hook_from_csv(rec, a, k, out):
    rec.counts["data.rows_parsed"] += out.n_rows


HOOKS = {
    "laws.random_scm": _hook_random_scm,
    "exact.solve_all": _hook_solve_all,
    "independence.ci_exact": _hook_ci_exact,
    "independence.g_test": _hook_g_test,
    "discovery.ExactTester.test": _hook_tester,
    "discovery.SampleTester.test": _hook_tester,
    "transfer.transfer_evidence": _hook_transfer,
    "data.Dataset.from_csv": _hook_from_csv,
}
for _fam in GRAPH_FAMILIES:
    HOOKS["graph_objects." + _fam] = _family_hook(_fam, _fam != "union_graph")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.raised: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._keep: list = []
        self.distinct: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._by_name: dict[str, object] = {}

    # --- recording ---

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        """Distinct keys are counted per op; the kept objects pin their ids until then."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()
        self._keep.clear()

    def unique(self, name: str, key, keep) -> None:
        self._seen[name].add(key)
        self._keep.append(keep)

    def _wrapper(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        nids, parents, ops, starts, ends, stack = (
            self.nid, self.parent, self.op, self.start, self.end, self.stack)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(rec.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*a, **k)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                rec.raised[name] += 1
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                hook(rec, a, k, out)
            return out

        return wrapper

    # --- patching ---

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type)
                              else obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        pkg_mods = [m for n, m in sorted(sys.modules.items())
                    if m is not None and (n == "csi_graphlab" or n.startswith("csi_graphlab."))]
        swap: dict[int, object] = {}
        for layer, paths in TARGETS.items():
            mod = sys.modules["csi_graphlab." + layer]
            for path in paths:
                name = layer + "." + path
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrapped(raw.__func__, name))
                    elif isinstance(raw, property):
                        new = property(self._wrapped(raw.fget, name), raw.fset,
                                       raw.fdel, raw.__doc__)
                    else:
                        new = self._wrapped(raw, name)
                    self._set(cls, attr, new)
                else:
                    orig = getattr(mod, path)
                    swap[id(orig)] = self._wrapped(orig, name)
        originals = {}
        for mod in pkg_mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in swap:
                    originals[id(val)] = val
                    self._set(mod, attr, swap[id(val)])
                elif isinstance(val, tuple) and any(id(v) in swap for v in val):
                    self._set(mod, attr, tuple(swap.get(id(v), v) for v in val))
        for fn in originals.values():
            defaults = getattr(fn, "__defaults__", None)
            if defaults and any(
                isinstance(d, tuple) and any(id(v) in swap for v in d) for d in defaults
            ):
                self._set(fn, "__defaults__", tuple(
                    tuple(swap.get(id(v), v) for v in d) if isinstance(d, tuple) else d
                    for d in defaults))

    def _wrapped(self, fn, name):
        # one wrapper per name for the whole run, so a reinstall keeps the span ids
        w = self._by_name.get(name)
        if w is None:
            w = self._by_name[name] = self._wrapper(fn, name)
        return w

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()

    # --- accounting ---

    def summary(self, traced_wall: float, rounds: int) -> tuple[dict, list[str]]:
        """Per-round self times, counts and ratios, plus span-accounting problems.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        The residual is the timed wall not covered by any top-level span.
        """
        n = len(self.nid)
        nid = np.asarray(self.nid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        n_names = len(self.names)
        fn_self = np.bincount(nid, weights=self_t, minlength=n_names)
        fn_calls = np.bincount(nid, minlength=n_names)
        top = float(dur[~has_parent].sum())
        residual = traced_wall - top

        problems = []
        tol = 1e-9 * max(1, n)
        if n and self_t.min() < -tol:
            problems.append("negative self time %.3g s in %s"
                            % (self_t.min(), self.names[int(nid[self_t.argmin()])]))
        if residual < -tol:
            problems.append("spans cover %.6f s more than the traced wall" % -residual)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer_self[name.split(".")[0]] += float(fn_self[i])
        total = sum(layer_self.values()) + residual
        if abs(total - traced_wall) > 1e-6 * max(traced_wall, 1e-3):
            problems.append("layer self times plus residual %.6f s != traced wall %.6f s"
                            % (total, traced_wall))

        per = float(rounds)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = fn_calls[i] / per
            out[name + ".self_s"] = float(fn_self[i]) / per
            out[name + ".raised"] = self.raised.get(name, 0) / per
        for layer, t in layer_self.items():
            out[layer + ".self_s"] = t / per
            out[layer + ".share"] = t / traced_wall if traced_wall > 0 else 0.0
        out["unspanned.share"] = residual / traced_wall if traced_wall > 0 else 0.0
        out["trace.spans"] = n / per
        for key, v in self.counts.items():
            out[key] = v / per

        def frac(num, den):
            return num / den if den else 0.0

        calls = {name: fn_calls[i] for i, name in enumerate(self.names)}
        family_calls = sum(calls.get("graph_objects." + f, 0) for f in GRAPH_FAMILIES)
        queries = (calls.get("discovery.ExactTester.test", 0)
                   + calls.get("discovery.SampleTester.test", 0))
        out["graph_objects.unique_frac"] = frac(self.distinct["graph_objects"], family_calls)
        out["independence.ci_exact.unique_frac"] = frac(
            self.distinct["independence.ci_exact"], calls.get("independence.ci_exact", 0))
        out["discovery.queries"] = queries / per
        out["discovery.unique_frac"] = frac(self.distinct["discovery"], queries)
        out["independence.g_test.untestable_frac"] = frac(
            self.counts["independence.g_test.untestable"], calls.get("independence.g_test", 0))
        out["laws.random_scm.accept_frac"] = frac(
            self.counts["laws.random_scm.accepted"], self.counts["laws.random_scm.attempts"])
        out["laws.rejections"] = self.counts["laws.rejections"] / per
        return out, problems

    def save(self, path) -> None:
        """Write every span (names indexed by `nid`) as one compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            nid=np.asarray(self.nid, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )
