import hashlib
import itertools
import json

import numpy as np
import pytest

import discovery_reference as ref
from csi_graphlab import cli, discovery, independence
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.data import Dataset
from csi_graphlab.discovery import (
    DiscoveryError,
    ExactTester,
    SampleTester,
    detect_graph,
    intersection_graph,
    markov_check,
    skeleton_masked,
    skeleton_pooled,
    union_from_contexts,
)
from csi_graphlab.exact import SolvedModel, draw_samples
from csi_graphlab.graphs import UndirectedSkeleton, acyclify
from csi_graphlab.graph_objects import (
    check_R_faithfulness,
    descriptive_graph,
    ident_graph,
    union_graph,
)
from csi_graphlab.independence import ci_exact
from csi_graphlab.laws import RandomModelSpec, random_scm
from csi_graphlab.scm import serialize_scm
from fraction_reference import PIPELINE_MODELS, ci_exact as reference_ci_exact, fraction_pmf

SEPARATOR_SEARCHES = "799488609217f7fa9b3e585d537d33b9a35b811735600b6c44ffc6f9f8f83e82"
SAMPLED_SEARCHES = "23cdf3f155ccc5d5d77d1fd3c6c46b2d5a67a526e6c184f8e956fca49844ad9c"


def solved(name):
    return SolvedModel.of(get_example(name))


def pairs(sk):
    return sk.sorted_pairs()


def non_ctx(sk, ctx):
    return {p for p in sk.pairs if ctx not in p}


def test_pooled_skeleton_on_intro():
    t = ExactTester(solved("intro"))
    certs = []
    sk = skeleton_pooled(t, certificates=certs)
    assert pairs(sk) == [("R", "T"), ("T", "Y")]
    assert [(c.x, c.y, c.z, c.regime) for c in certs] == [("R", "Y", ("T",), None)]


def test_masked_skeletons_on_intro():
    t = ExactTester(solved("intro"))
    assert pairs(skeleton_masked(t, "0")) == []
    assert pairs(skeleton_masked(t, "1")) == [("T", "Y")]
    with pytest.raises(DiscoveryError):
        skeleton_masked(t, "7")


def test_intersection_on_intro():
    t = ExactTester(solved("intro"))
    pooled = skeleton_pooled(t)
    assert pairs(intersection_graph(pooled, skeleton_masked(t, "0"), "R")) == [("R", "T")]
    assert pairs(intersection_graph(pooled, skeleton_masked(t, "1"), "R")) == [
        ("R", "T"), ("T", "Y"),
    ]


def test_intersection_rejects_node_mismatch():
    a = UndirectedSkeleton(("R", "T", "Y"))
    b = UndirectedSkeleton(("T",))
    with pytest.raises(DiscoveryError):
        intersection_graph(a, b, "R")


def test_intersection_identity_when_masked_is_restriction():
    m = solved("intro")
    t = ExactTester(m)
    pooled = skeleton_pooled(t)
    masked = UndirectedSkeleton(("T", "Y"), [p for p in pooled.pairs if "R" not in p])
    assert intersection_graph(pooled, masked, "R") == pooled


def test_detect_graphs_frozen():
    cases = {
        "intro": {"0": [("R", "T")], "1": [("R", "T"), ("T", "Y")]},
        "exo-gate": {"0": [("R", "Y")], "1": [("R", "Y"), ("X", "Y")]},
        "non-markov(1/3)": {"b0": [("R", "X"), ("R", "Y"), ("X", "Y")]},
    }
    for name, by_regime in cases.items():
        t = ExactTester(solved(name))
        for r, want in by_regime.items():
            assert pairs(detect_graph(t, r)) == want, (name, r)


def test_detect_graph_cap_and_unknown_regime():
    t = ExactTester(solved("intro"))
    with pytest.raises(DiscoveryError):
        detect_graph(t, "0", max_subsets=1)
    with pytest.raises(DiscoveryError):
        detect_graph(t, "9")


class CountingTester:
    """Forwards to a tester and counts the queries it is asked: one by one, or
    every query of the runs handed to `step_hits`."""

    def __init__(self, inner):
        self.inner = inner
        self.variables = inner.variables
        self.context = inner.context
        self.regimes = inner.regimes
        self.queries = 0

    def test(self, *args, **kwargs):
        self.queries += 1
        return self.inner.test(*args, **kwargs)

    def step_hits(self, runs):
        self.queries += sum(map(len, runs))
        return self.inner.step_hits(runs)


def test_detect_graph_checks_the_cap_before_the_first_query():
    # intro: the T-Y pool is empty and fits max_subsets=1; the context pairs'
    # pool of one variable does not
    t = CountingTester(ExactTester(solved("intro")))
    certificates = []
    with pytest.raises(DiscoveryError, match="over 1 variables exceeds max_subsets=1"):
        detect_graph(t, "0", max_subsets=1, certificates=certificates)
    assert t.queries == 0
    assert certificates == []
    assert pairs(detect_graph(t, "0", max_subsets=2)) == [("R", "T")]


def test_discover_checks_the_cap_before_the_first_query(monkeypatch, tmp_path, capsys):
    # R and 14 binary columns: detect_graph's pools of 13 variables exceed the default cap
    rng = np.random.default_rng(14)
    columns = ("R",) + tuple("V%02d" % i for i in range(14))
    data = Dataset.from_rows(columns, rng.integers(0, 2, (3000, 15)).astype(str).tolist())
    t = CountingTester(SampleTester(data, 0.01, "R"))
    certificates = []
    message = "conditioning-set search over 13 variables exceeds max_subsets=4096"
    with pytest.raises(DiscoveryError, match=message):
        discovery.discover(t, t.regimes, certificates)
    assert t.queries == 0
    assert certificates == []

    built = []
    monkeypatch.setattr(discovery, "g_test_tables", lambda *args: built.append(args))
    csv = tmp_path / "wide.csv"
    csv.write_text(data.to_csv())
    assert cli.main(["discover", "--data", str(csv), "--alpha", "0.01"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: %s\n" % message
    assert built == []


def test_cli_discovery_makes_one_builder_call_per_step(monkeypatch, tmp_path, capsys):
    """`discover --data` on the 8-variable sample_discover model at 3x10^4 rows:
    every phase's step shares one `g_test_tables` call, with one kernel call
    per block."""
    m = random_scm(RandomModelSpec(n_vars=8, max_domain=3, seed=3))
    csv = tmp_path / "samples.csv"
    csv.write_text(draw_samples(m.scm, 3 * 10**4, 4, m.solved.table).to_csv())
    calls = {"build": 0, "kernel": 0}
    build, kernel = discovery.g_test_tables, discovery.g_test_from_tables

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(discovery, "g_test_tables", counted("build", build))
    monkeypatch.setattr(discovery, "g_test_from_tables", counted("kernel", kernel))
    assert cli.main(["discover", "--data", str(csv), "--alpha", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"]
    assert 0 < calls["build"] <= 6 and calls["build"] <= calls["kernel"] <= 6, calls


def test_union_from_contexts_recovers_union_when_faithful():
    m = solved("intro")
    t = ExactTester(m)
    pooled = skeleton_pooled(t)
    det = {r: detect_graph(t, r) for r in m.regimes}
    got = union_from_contexts(det, pooled, "R")
    assert got == union_graph(m).skeleton()


def test_union_from_contexts_misses_edge_without_strong_faithfulness():
    m = solved("not-strong-faithful")
    t = ExactTester(m)
    pooled = skeleton_pooled(t)
    det = {r: detect_graph(t, r) for r in m.regimes}
    got = union_from_contexts(det, pooled, "R")
    want = union_graph(m).skeleton()
    assert set(want.pairs) - set(got.pairs) == {("X", "Y")}


def test_union_from_contexts_single_regime_equals_pooled():
    m = solved("p1-limit")
    t = ExactTester(m)
    pooled = skeleton_pooled(t)
    det = {r: detect_graph(t, r) for r in m.regimes}
    assert union_from_contexts(det, pooled, "R") == pooled
    with pytest.raises(DiscoveryError):
        union_from_contexts({}, pooled, "R")


@pytest.mark.parametrize("name", list_examples())
def test_pooled_skeleton_matches_acyclified_union_when_strongly_faithful(name):
    m = solved(name)
    t = ExactTester(m)
    sk = skeleton_pooled(t)
    target = acyclify(union_graph(m)).skeleton()
    if name == "not-strong-faithful":
        assert sk != target
    else:
        assert sk == target


@pytest.mark.parametrize("name", list_examples())
def test_detect_sandwich_and_intersection_agreement(name):
    m = solved(name)
    ctx = m.scm.context_variable
    t = ExactTester(m)
    assert check_R_faithfulness(m).holds
    pooled = skeleton_pooled(t)
    for r in m.regimes:
        det = detect_graph(t, r)
        inter = intersection_graph(pooled, skeleton_masked(t, r), ctx)
        assert non_ctx(inter, ctx) == non_ctx(det, ctx), r
        low = non_ctx(descriptive_graph(m, r).skeleton(), ctx)
        high = non_ctx(ident_graph(m, r).skeleton(), ctx)
        assert low <= non_ctx(det, ctx) <= high, r
        ctx_edges = {p for p in det.pairs if ctx in p}
        assert ctx_edges <= {p for p in pooled.pairs if ctx in p}, r


@pytest.mark.parametrize("name", list_examples())
def test_markov_check_passes_on_corpus(name):
    m = solved(name)
    rep = markov_check(m)
    assert rep.applicable
    assert rep.passed, [o for o in rep.failures]


def test_markov_obligations_on_intro_are_frozen():
    rep = markov_check(SolvedModel.of(get_example("intro")))
    got = [(o.x, o.y, o.regime, o.clause, o.separator) for o in rep.obligations]
    assert got == [
        ("T", "Y", "0", "masked_regime", ()),
        ("R", "Y", None, "context_fallback", ("T",)),
    ]


def test_sample_tester_recovers_intro_skeletons():
    m = solved("intro")
    d = draw_samples(m.scm, 20_000, seed=31, table=m.table)
    t = SampleTester(d, alpha=0.01, context="R")
    assert t.regimes == ("0", "1")
    assert pairs(skeleton_pooled(t)) == [("R", "T"), ("T", "Y")]
    assert pairs(skeleton_masked(t, "0")) == []
    assert pairs(skeleton_masked(t, "1")) == [("T", "Y")]


def test_sample_discovery_is_invariant_to_tabulation_and_row_order():
    m = random_scm(RandomModelSpec(n_vars=6, max_domain=3, seed=11))
    data = draw_samples(m.scm, 3000, 5, m.solved.table)
    order = np.random.default_rng(1).permutation(data.n_rows)
    shuffled = Dataset(data.columns, data.categories, data.codes[order])

    def discovered(d):
        t = SampleTester(d, alpha=0.01, context="R")
        certs = []
        found = [t.regimes, skeleton_pooled(t, certs).to_dot()]
        for r in t.regimes:
            found.append(skeleton_masked(t, r, certs).to_dot())
            found.append(detect_graph(t, r, certificates=certs).to_dot())
        return found, certs

    want = discovered(data)
    assert want[1]
    assert discovered(data.tabulate()) == want
    assert discovered(shuffled) == want


def test_sample_tester_validation():
    d = draw_samples(get_example("intro"), 100, seed=1)
    with pytest.raises(DiscoveryError):
        SampleTester(d, alpha=0.05, context="Q")
    with pytest.raises(DiscoveryError):
        SampleTester(d, alpha=1.5, context="R")


def test_discovery_is_deterministic():
    m = solved("non-markov(1/3)")
    t = ExactTester(m)
    a = skeleton_pooled(t).to_dot()
    b = skeleton_pooled(t).to_dot()
    assert a == b
    assert detect_graph(t, "b0").to_dot() == detect_graph(t, "b0").to_dot()


def _separator_searches(m):
    """Everything the separating-set searches decide on one solved model."""
    t = ExactTester(m)

    def run(search, *args):
        certs = []
        sk = search(t, *args, certificates=certs)
        return [sk.sorted_pairs(), [
            [c.x, c.y, list(c.z), c.regime, c.method, c.p_value] for c in certs
        ]]

    faith = check_R_faithfulness(m)
    markov = markov_check(m)
    return {
        "faithful": [faith.holds, faith.violations],
        "markov": [markov.applicable, markov.passed, [
            [o.x, o.y, o.regime, o.clause, [list(z) for z in o.candidates],
             None if o.separator is None else list(o.separator), o.passed]
            for o in markov.obligations
        ]],
        "pooled": run(skeleton_pooled),
        "masked": {r: run(skeleton_masked, r) for r in m.regimes},
        "detect": {r: run(detect_graph, r) for r in m.regimes},
    }


def test_separator_searches_are_pinned():
    """R-faithfulness violations, Markov obligations and exact-oracle
    certificates, byte for byte, on the corpus and 160 random models."""
    models = [(name, solved(name)) for name in list_examples()]
    models += [
        ("random-%d-%d" % (n, k), random_scm(RandomModelSpec(n_vars=n, seed=k)).solved)
        for n in range(3, 7) for k in range(40)
    ]
    payload = {name: _separator_searches(m) for name, m in models}
    randoms = [v for name, v in payload.items() if name.startswith("random-")]
    assert len(randoms) == 160
    assert sum(not v["faithful"][0] for v in randoms) == 32
    assert sum(len(v["markov"][2]) for v in randoms) == 1660
    blob = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SEPARATOR_SEARCHES


def sampled_datasets():
    """(name, rows) of random 4- to 8-variable models and intro-mediator, at 10^3 and 10^4 rows."""
    models = [("random-%d-%d" % (n, k), random_scm(RandomModelSpec(n_vars=n, max_domain=3, seed=k)).solved)
              for n in range(4, 9) for k in range(4)]
    models.append(("intro-mediator", solved("intro-mediator")))
    return [("%s-%d" % (name, rows), draw_samples(m.scm, rows, 17 * i + 1, m.table))
            for i, (name, m) in enumerate(models) for rows in (10**3, 10**4)]


def _sampled_searches(data, alpha):
    """Skeletons and certificates of G-test discovery, with each certificate's verdict warning."""
    t = SampleTester(data, alpha, "R")

    def run(search, *args):
        certs = []
        sk = search(t, *args, certificates=certs)
        return [sk.sorted_pairs(), [
            [c.x, c.y, list(c.z), c.regime, c.method, c.p_value,
             t._memo[independence.CiQuery(c.x, c.y, c.z, c.regime)].warning]
            for c in certs
        ]]

    return {
        "pooled": run(skeleton_pooled),
        "masked": {r: run(skeleton_masked, r) for r in t.regimes},
        "detect": {r: run(detect_graph, r) for r in t.regimes},
    }


def test_sampled_separator_searches_are_pinned():
    """G-test skeletons, certificates (p-values included) and the warnings of
    the verdicts they cite, byte for byte, on 42 datasets at two alphas."""
    payload = {"%s-%s" % (name, alpha): _sampled_searches(data, alpha)
               for name, data in sampled_datasets() for alpha in (0.01, 0.05)}
    assert len(payload) == 84
    certs = [c for v in payload.values() for run in (v["pooled"], *v["masked"].values(),
             *v["detect"].values()) for c in run[1]]
    assert len(certs) == 5051
    assert sum(c[-1] is not None for c in certs) == 3905
    blob = json.dumps(payload, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SAMPLED_SEARCHES


EXACT_CASES = list_examples() + ["pipeline-%d-%d" % nk for nk in PIPELINE_MODELS]


def exact_case(case):
    """The corpus model, or `pipeline-n-k`'s RandomModelSpec(n_vars=n, max_domain=3, seed=k)."""
    if case.startswith("pipeline-"):
        n, k = map(int, case.split("-")[1:])
        return random_scm(RandomModelSpec(n_vars=n, max_domain=3, seed=k)).scm
    return get_example(case)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_exact_memo_verdicts_equal_fresh_ci_exact(case, monkeypatch, tmp_path, capsys):
    s = exact_case(case)
    testers = []

    class Recording(ExactTester):
        def __init__(self, solved):
            super().__init__(solved)
            testers.append(self)

    decided = []

    def counted(p, q, context=None):
        decided.append(q)
        return ci_exact(p, q, context)

    monkeypatch.setattr(cli, "ExactTester", Recording)
    monkeypatch.setattr(independence, "ci_exact", counted)
    model = tmp_path / "model.json"
    model.write_text(serialize_scm(s))
    assert cli.main(["discover", "--exact", str(model)]) == 0
    capsys.readouterr()
    (tester,) = testers
    joint = tester._solved.joint
    assert sorted(decided, key=repr) == sorted(tester._memo, key=repr)  # each query decided once
    for q, verdict in tester._memo.items():
        assert verdict == ci_exact(joint, q, context=tester.context)
        assert verdict == reference_ci_exact(fraction_pmf(joint), q, context=tester.context)


def test_one_solve_decides_each_exact_query_once(monkeypatch):
    """Exact testers of one solve share its memo: repeated Markov checks and
    the R-faithfulness search never decide a query twice."""
    m = solved("intro-mediator")
    decided = []

    def counted(p, q, context=None):
        decided.append(q)
        return ci_exact(p, q, context)

    monkeypatch.setattr(independence, "ci_exact", counted)
    first = markov_check(m)
    after_first = len(decided)
    assert first.passed and after_first > 0
    assert markov_check(m) == first
    assert len(decided) == after_first
    assert check_R_faithfulness(m).holds
    assert len(decided) == len(set(decided))
    assert set(decided) == set(ExactTester(m)._memo)


def _hex(v):
    return (v.independent, v.p_value.hex(), v.statistic.hex(), v.method, v.warning)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_lockstep_exact_discovery_matches_the_sequential_reference(case, monkeypatch, tmp_path, capsys):
    """Same report, certificates and decided queries as the one-pair-at-a-time loops:
    the exact step decides nothing past a search's first independent query."""
    s = exact_case(case)
    for new, old in ref.assert_lockstep_matches(lambda: ExactTester(SolvedModel.of(s))):
        assert set(new._memo) == set(old._memo)

    model = tmp_path / "model.json"
    model.write_text(serialize_scm(s))
    testers = []

    class Recording(ExactTester):
        def __init__(self, solved):
            super().__init__(solved)
            testers.append(self)

    monkeypatch.setattr(cli, "ExactTester", Recording)
    reports = []
    for module in (discovery, ref):
        monkeypatch.setattr(cli, "discover", module.discover)
        assert cli.main(["discover", "--exact", str(model)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    lockstep, sequential = testers
    assert set(lockstep._memo) == set(sequential._memo)


@pytest.mark.parametrize("alpha", [0.01, 0.05])
def test_lockstep_sample_discovery_matches_the_sequential_reference(alpha):
    """Same skeletons and certificates; every verdict the loops read is in the
    lockstep memo, bit for bit, and every lockstep verdict is that of `g_test`."""
    for name, data in sampled_datasets():
        for new, old in ref.assert_lockstep_matches(lambda: SampleTester(data, alpha, "R")):
            assert set(old._memo) <= set(new._memo), name
            for q, verdict in old._memo.items():
                assert _hex(new._memo[q]) == _hex(verdict), (name, q)
            for q, verdict in new._memo.items():
                assert _hex(verdict) == _hex(independence.g_test(data, q, alpha, context="R")), \
                    (name, q)


@pytest.mark.parametrize("tester_class", [SampleTester, ExactTester])
def test_discover_reads_every_hit_through_test(tester_class, monkeypatch):
    """`discover` on the 8-variable sample_discover model reads each search
    through the tester's `test`: every certificate's query is one `test` read.
    On 10^4 sampled rows each query read is memoized with `g_test`'s verdict,
    bit for bit; on a fresh exact solve the queries read are the memo's keys."""
    m = random_scm(RandomModelSpec(n_vars=8, max_domain=3, seed=3))
    if tester_class is SampleTester:
        data = ref.random_samples(8, 3, 10**4)
        tester = SampleTester(data, 0.01, "R")
    else:
        tester = ExactTester(SolvedModel.of(m.scm))
    read = set()
    test = tester_class.test

    def recording_test(self, x, y, z=(), regime=None):
        read.add((x, y, tuple(z), regime))
        return test(self, x, y, z, regime)

    monkeypatch.setattr(tester_class, "test", recording_test)
    certificates = []
    discovery.discover(tester, tester.regimes, certificates)
    assert certificates
    assert {(c.x, c.y, c.z, c.regime) for c in certificates} <= read
    if tester_class is ExactTester:
        assert read == set(tester._memo)
        return
    assert read <= set(tester._memo)
    for q in read:
        want = independence.g_test(data, independence.CiQuery(*q), 0.01, context="R")
        assert _hex(tester._memo[q]) == _hex(want), q


def test_stacked_step_verdicts_equal_g_test_per_query():
    """A step of queries whose tables have many (S, nx, ny) shapes, on raw rows and
    on a count table: each memoized verdict is `g_test`'s, bit for bit.  Each
    search holds one set, so every query falls in the first step."""
    rng = np.random.default_rng(5)
    n = 4000
    r = rng.integers(0, 2, n)
    a = rng.integers(0, 2, n)
    b = (a + rng.integers(0, 2, n)) % 3
    c = rng.integers(0, 4, n)
    d = (b * c + rng.integers(0, 2, n)) % 5
    columns = ("R", "A", "B", "C", "D")
    data = Dataset.from_rows(columns, np.stack([r, a, b, c, d], axis=1).astype(str).tolist())
    step = [(x, y, [z], (None, "1")) for x, y in itertools.permutations(columns[1:], 2)
            for z in independence.subsets([v for v in columns[1:] if v not in (x, y)])]
    queries = [independence.CiQuery(x, y, z, reg) for x, y, sets, regs in step
               for z in sets for reg in regs]
    shapes = {ref.g_test_table(data, q, "R").shape for q in queries}
    assert len(queries) == 96 and len(shapes) == 48
    for source in (data, data.tabulate()):
        tester = SampleTester(source, 0.05, "R")
        hits = tester.first_separators(step)
        assert set(tester._memo) == set(queries)
        for q, verdict in tester._memo.items():
            assert _hex(verdict) == _hex(independence.g_test(data, q, 0.05, context="R"))
        fresh = SampleTester(source, 0.05, "R")
        assert hits == [ref.first_separator(fresh.test, *search) for search in step]
        assert any(hits) and not all(hits)


def _detect_searches(tester, regime):
    """`detect_graph`'s searches: every subset of the other non-context variables,
    pooled before masked, and pooled only for the context pairs."""
    ctx = tester.context
    others = [v for v in tester.variables if v != ctx]
    pairs = [(x, y, (None, regime)) for x, y in itertools.combinations(others, 2)]
    pairs += [(ctx, y, (None,)) for y in others]
    return [(x, y, independence.subsets([v for v in others if v not in (x, y)]), regimes)
            for x, y, regimes in pairs]


def test_exact_tester_answers_mixed_size_searches_like_the_reference():
    """Whole searches of every set size: the hits of `first_separator` over a
    fresh tester, and exactly the queries it decides."""
    m = random_scm(RandomModelSpec(n_vars=6, max_domain=3, seed=2))
    new, old = ExactTester(SolvedModel.of(m.scm)), ExactTester(SolvedModel.of(m.scm))
    hits = new.first_separators(_detect_searches(new, new.regimes[0]))
    assert hits == [ref.first_separator(old.test, *search)
                    for search in _detect_searches(old, old.regimes[0])]
    assert {0, 1, 2} <= {len(hit[0]) for hit in hits if hit is not None} and None in hits
    assert set(new._memo) == set(old._memo)


def test_sample_tester_decides_no_query_past_the_size_a_search_resolved_at(monkeypatch):
    """Whole searches of every set size: the hits of `first_separator` over a
    fresh tester, bit for bit, and no query of a search is decided at a set
    size above the one its hit has."""
    data = ref.random_samples(6, 2, 10**4)
    new, old = SampleTester(data, 0.01, "R"), SampleTester(data, 0.01, "R")
    decided = []
    build = discovery.g_test_tables

    def recording_build(table, queries, context=None):
        decided.extend(queries)
        return build(table, queries, context)

    monkeypatch.setattr(discovery, "g_test_tables", recording_build)
    regime = new.regimes[0]
    hits = new.first_separators(_detect_searches(new, regime))
    want = [ref.first_separator(old.test, *search) for search in _detect_searches(old, regime)]
    assert [None if h is None else (h[0], h[1], _hex(h[2])) for h in hits] == \
        [None if h is None else (h[0], h[1], _hex(h[2])) for h in want]
    resolved_at = {(x, y): len(hit[0]) for (x, y, _, _), hit
                   in zip(_detect_searches(new, regime), hits) if hit is not None}
    assert {0, 1, 2} <= set(resolved_at.values()) and None in hits
    assert all(len(q.z) <= resolved_at.get((q.x, q.y), len(q.z)) for q in decided)
    assert set(decided) == set(new._memo) >= set(old._memo)
    for q, verdict in old._memo.items():
        assert _hex(new._memo[q]) == _hex(verdict), q


def test_each_step_makes_one_kernel_call_per_block(monkeypatch):
    """A discovery pass on 10^4 rows, through the one-skeleton functions and
    through `discover`: each `g_test_tables` call of a step is followed by
    one kernel call per block it returned, on that block's cells and tests.
    Each `_tally` counts one block's cells, over at most `_PAIR_BUDGET`
    (query, row) pairs unless the block holds one query, and a tiny budget,
    which cuts every step into many blocks, leaves every verdict bit-identical."""
    data = ref.random_samples(8, 3, 10**4)
    events, tallied = [], []
    build, kernel, tally = discovery.g_test_tables, discovery.g_test_from_tables, independence._tally

    def recording_build(table, queries, context=None):
        blocks = build(table, queries, context)
        events.append(("build", blocks))
        return blocks

    def recording_kernel(cells, tests, alpha, min_expected=5.0):
        events.append(("kernel", cells, tests))
        return kernel(cells, tests, alpha, min_expected)

    def recording_tally(ids, counts, n):
        tallied.append((len(ids), n))
        return tally(ids, counts, n)

    monkeypatch.setattr(discovery, "g_test_tables", recording_build)
    monkeypatch.setattr(discovery, "g_test_from_tables", recording_kernel)
    monkeypatch.setattr(independence, "_tally", recording_tally)
    runs = {
        "one_pass": lambda t: ref.one_pass(t, skeleton_pooled, skeleton_masked, detect_graph),
        "discover": lambda t: ref.whole_run(t, discovery.discover),
    }
    memos, default = {}, independence._PAIR_BUDGET
    for budget, (name, run) in itertools.product((default, 300, 1), runs.items()):
        monkeypatch.setattr(independence, "_PAIR_BUDGET", budget)
        events.clear()
        tallied.clear()
        tester = SampleTester(data, 0.01, "R")
        run(tester)
        blocks = []
        for event in events:
            if event[0] == "build":
                blocks += event[1]
            else:  # the next block in order, cells and tests as built
                cells, tests = blocks.pop(0)
                assert event[1] is cells and event[2] is tests
        assert not blocks
        built = [(len(cells), int(tests.max()) + 1)
                 for e in events if e[0] == "build" for cells, tests in e[1]]
        assert [n for _, n in tallied] == [n_cells for n_cells, _ in built]
        assert all(k == 1 or pairs <= budget for (pairs, _), (_, k) in zip(tallied, built))
        assert sum(k for _, k in built) == len(tester._memo)
        if budget == 1:
            assert all(k == 1 for _, k in built)
        else:
            assert len(built) < len(tester._memo)
        memos[budget, name] = {q: _hex(v) for q, v in tester._memo.items()}
    for name in runs:
        assert memos[default, name] == memos[300, name] == memos[1, name]
    assert memos[default, "one_pass"] == memos[default, "discover"]


# --- sampled discovery at population scale ---


def test_sampled_discovery_at_population_scale_equals_exact_discovery():
    """Each corpus model's exact joint, and each of 60 random 5- to 7-variable
    models', read as a count table of about 2^POPULATION_BITS samples: the
    G-test's skeletons and certificate queries are the exact oracle's."""
    models = {name: solved(name) for name in list_examples()}
    models.update({(n, k): random_scm(RandomModelSpec(n_vars=n, max_domain=3, seed=k)).solved
                   for n in (5, 6, 7) for k in range(1, 21)})
    results = {key: ref.population_matches(sm) for key, sm in models.items()}
    skipped = [key for key, r in results.items() if r is None]
    print("%d of %d models match at 2^%d samples; %d skipped past 2^62"
          % (sum(r is True for r in results.values()), len(models), ref.POPULATION_BITS,
             len(skipped)))
    assert [key for key, r in results.items() if r is False] == []
    assert skipped == []


def test_population_scale_is_a_parameter_of_the_check():
    # at 2^16 samples these three models' sampled discovery still differs from the
    # exact one: the detect skeletons and certificates for (7, 6) and (7, 10), only
    # the certificates for (7, 12)
    for n, k in ((7, 6), (7, 10), (7, 12)):
        sm = random_scm(RandomModelSpec(n_vars=n, max_domain=3, seed=k)).solved
        assert ref.population_matches(sm, bits=16) is False, (n, k)
        assert ref.population_matches(sm) is True, (n, k)
        data = ref.population_table(sm)
        assert data.counts.sum() <= 1 << ref.POPULATION_BITS
        assert sorted(map(tuple, data.codes.tolist())) == sorted(
            tuple(data.code_of(c, v) for c, v in zip(data.columns, key))
            for key in sm.joint.weights)
