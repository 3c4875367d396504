import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import csi_graphlab
from csi_graphlab.cli import EXIT_LAW_FAILURE, EXIT_OK, EXIT_USAGE, CliError, _deliver, main
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.data import Dataset
from csi_graphlab.exact import draw_samples
from csi_graphlab.laws import SuiteSummary
from csi_graphlab.scm import load_scm, serialize_scm


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_model(tmp_path, name, filename="model.scm"):
    path = tmp_path / filename
    path.write_text(serialize_scm(get_example(name)))
    return str(path)


def test_corpus_list(capsys):
    rc, out, err = invoke(capsys, "corpus", "list")
    assert rc == EXIT_OK
    assert out.splitlines() == list_examples()


def test_corpus_export_round_trips(capsys):
    rc, out, _ = invoke(capsys, "corpus", "export", "intro")
    assert rc == EXIT_OK
    assert load_scm(out) == get_example("intro")
    rc, _, err = invoke(capsys, "corpus", "export", "no-such")
    assert rc == EXIT_USAGE
    assert "no-such" in err
    rc, _, err = invoke(capsys, "corpus", "export")
    assert rc == EXIT_USAGE
    assert "corpus list" in err


def test_ground_truth_report(capsys, tmp_path):
    scm = write_model(tmp_path, "intro")
    rc, out, _ = invoke(capsys, "ground-truth", scm)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["regimes"] == ["0", "1"]
    assert len(doc["dot"]) == 2 * len(doc["regimes"]) + 3
    assert doc["strongly_regime_acyclic"] is True
    by_edge = {tuple(e["edge"]): e for e in doc["edges"]}
    ty = by_edge[("T", "Y")]
    assert ty["union"] and ty["descriptive"] == {"0": False, "1": True}
    assert ty["physical"] == {"0": True, "1": True}
    rc, out, _ = invoke(capsys, "ground-truth", scm, "--full")
    assert len(json.loads(out)["dot"]) == 4 * 2 + 3


def test_ground_truth_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
        serialize_scm(get_example("intro")).encode())))
    rc, out, _ = invoke(capsys, "ground-truth", "-")
    assert rc == EXIT_OK
    assert json.loads(out)["command"] == "ground-truth"


NOT_UTF8 = b"R,X,Y\n0,a\xff,b\n1,b,a\n"


def test_a_file_that_is_not_utf8_exits_2_naming_the_flag_and_file(capsys, tmp_path):
    csv = tmp_path / "latin.csv"
    csv.write_bytes(NOT_UTF8)
    rc, out, err = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "--data file %r is not UTF-8: " % (str(csv),) in err
    assert "can't decode byte 0xff in position 9" in err


def test_stdin_that_is_not_utf8_exits_2_as_the_file_does(capsys, monkeypatch):
    # the C locale's UTF-8 mode reads stdin with surrogateescape; the bytes decode strictly
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8",
                                                      errors="surrogateescape"))
    rc, out, err = invoke(capsys, "discover", "--data", "-", "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "--data stdin is not UTF-8: " in err
    assert "can't decode byte 0xff in position 9" in err


def test_stdin_and_file_give_the_same_report(capsys, tmp_path, monkeypatch):
    text = draw_samples(get_example("intro"), 500, 3).to_csv().replace("\n", "\r\n")
    csv = tmp_path / "crlf.csv"
    csv.write_bytes(text.encode())
    rc, from_file, _ = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert rc == EXIT_OK
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()), newline="\n"))
    rc, from_stdin, _ = invoke(capsys, "discover", "--data", "-", "--alpha", "0.05")
    assert (rc, from_stdin) == (EXIT_OK, from_file)


def test_out_dir_refuses_overwrite(capsys, tmp_path):
    scm = write_model(tmp_path, "intro")
    out_dir = tmp_path / "artifacts"
    rc, out, _ = invoke(capsys, "ground-truth", scm, "--out", str(out_dir))
    assert rc == EXIT_OK and out == ""
    names = sorted(p.name for p in out_dir.iterdir())
    assert "report.json" in names and "union.dot" in names
    assert len(names) == 2 * 2 + 3 + 1
    # stdout mode and --out mode produce the identical report
    rc, stdout_doc, _ = invoke(capsys, "ground-truth", scm)
    assert (out_dir / "report.json").read_text() == stdout_doc
    rc, _, err = invoke(capsys, "ground-truth", scm, "--out", str(out_dir))
    assert rc == EXIT_USAGE
    assert "--force" in err and "report.json" in err
    rc, _, _ = invoke(capsys, "ground-truth", scm, "--out", str(out_dir), "--force")
    assert rc == EXIT_OK


def test_out_writes_nothing_when_a_file_name_is_not_plain(capsys, tmp_path):
    # a context label becomes part of discover's per-context DOT file names
    rows = [(r, x, str((int(x) + i) % 2)) for i in range(40) for r in ("a/b", "c") for x in "01"]
    csv = tmp_path / "e.csv"
    csv.write_text(Dataset.from_rows(["R", "X", "Y"], rows).to_csv())
    out_dir = tmp_path / "out" / "y"
    argv = ("discover", "--data", str(csv), "--alpha", "0.05")
    rc, out, err = invoke(capsys, *argv, "--out", str(out_dir))
    assert (rc, out) == (EXIT_USAGE, "")
    assert "'detect-a/b.dot'" in err
    assert not out_dir.exists()
    rc, out, _ = invoke(capsys, *argv)
    assert rc == EXIT_OK
    assert "detect-a/b.dot" in json.loads(out)["dot"]
    for name in ("..", ".", "a\0b", "sub/x.dot"):
        args = argparse.Namespace(out=str(out_dir), force=False)
        with pytest.raises(CliError, match=re.escape(repr(name))):
            _deliver(args, {"report.json": "{}\n", name: ""})
        assert not out_dir.exists()


def test_missing_model_file_names_it(capsys, tmp_path):
    rc, _, err = invoke(capsys, "ground-truth", str(tmp_path / "nope.scm"))
    assert rc == EXIT_USAGE
    assert "nope.scm" in err


def test_discover_exact_report(capsys, tmp_path):
    scm = write_model(tmp_path, "intro-mediator")
    rc, out, _ = invoke(capsys, "discover", "--exact", scm)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    assert doc["pooled_skeleton"] == [["M", "R"], ["M", "T"], ["T", "Y"]]
    assert doc["per_regime"]["0"]["detect"] == [["M", "R"]]
    assert doc["per_regime"]["0"]["masked"] == []
    assert doc["union_reconstruction"] == doc["pooled_skeleton"]
    assert doc["union_directed"] == [["M", "T"], ["R", "M"], ["T", "Y"]]
    certs = doc["certificates"]
    assert certs and set(certs[0]) == {"x", "y", "z", "regime", "method", "p_value"}


def test_discover_single_regime_flag(capsys, tmp_path):
    scm = write_model(tmp_path, "intro-mediator")
    rc, out, _ = invoke(capsys, "discover", "--exact", scm, "--regime", "1")
    assert rc == EXIT_OK
    assert list(json.loads(out)["per_regime"]) == ["1"]
    rc, _, err = invoke(capsys, "discover", "--exact", scm, "--regime", "9")
    assert rc == EXIT_USAGE
    assert "--regime" in err and "'9'" in err


@pytest.mark.parametrize("flag, value", [("--alpha", "0.05"), ("--context", "Q"),
                                         ("--context", "R")])
def test_discover_exact_rejects_the_data_mode_flags(capsys, tmp_path, flag, value):
    # the exact oracle has no test level, and the model names its own context variable
    scm = write_model(tmp_path, "intro-mediator")
    rc, out, err = invoke(capsys, "discover", "--exact", scm, flag, value)
    assert rc == EXIT_USAGE and out == ""
    assert flag in err and "--exact" in err


def test_discover_sample_mode_recovers_the_skeletons(capsys, tmp_path):
    data = draw_samples(get_example("intro"), 6000, 11)
    csv = tmp_path / "intro.csv"
    csv.write_text(data.to_csv())
    rc, out, _ = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert (doc["mode"], doc["context"]) == ("sample", "R")  # --context defaults to R
    assert doc["pooled_skeleton"] == [["R", "T"], ["T", "Y"]]
    assert doc["per_regime"]["0"]["detect"] == [["R", "T"]]
    assert "union_directed" not in doc
    rc, _, err = invoke(capsys, "discover", "--data", str(csv))
    assert rc == EXIT_USAGE
    assert "--alpha" in err


def test_header_only_csv_exits_2(capsys, tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("R,X,Y\n")
    rc, out, err = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "no rows to test" in err


def test_two_row_csv_report_is_pinned(capsys, tmp_path):
    csv = tmp_path / "two.csv"
    csv.write_text("R,X,Y\n0,a,b\n1,b,a\n")
    rc, out, _ = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a2d54b069df9b79c0c194b53ca26983bcd89fb4ad0d95388fd9ae561dc707fec")


def test_an_overlong_csv_field_exits_2(capsys, tmp_path):
    csv = tmp_path / "long.csv"
    csv.write_text("R,X,Y\n0,a,b\n1,%s,a\n" % ("b" * 200_000))
    rc, out, err = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "malformed CSV: field larger than field limit" in err
    assert "Traceback" not in err


def test_a_bom_prefixed_header_names_the_columns_the_dataset_has(capsys, tmp_path):
    csv = tmp_path / "bom.csv"
    csv.write_bytes("\ufeffR,X,Y\n0,a,b\n1,b,a\n".encode())
    rc, out, err = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "context column 'R' not in dataset; its columns are '\\ufeffR', 'X', 'Y'" in err


def test_duplicate_csv_column_is_named(capsys, tmp_path):
    csv = tmp_path / "dup.csv"
    csv.write_text("R,X,X\n0,a,b\n1,b,a\n")
    rc, out, err = invoke(capsys, "discover", "--data", str(csv), "--alpha", "0.05")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "duplicate column name 'X'" in err


def test_classify_skeleton_mode(capsys, tmp_path):
    scm = write_model(tmp_path, "intro-mediator")
    rc, report, _ = invoke(capsys, "discover", "--exact", scm)
    path = tmp_path / "disc.json"
    path.write_text(report)
    rc, out, _ = invoke(capsys, "classify", str(path))
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["mode"] == "skeleton"
    assert doc["counts"] == {"non_physical": 1, "physical": 0, "undetermined": 1}
    verdicts = {tuple(c["edge"]): c for c in doc["changes"]["0"]}
    assert verdicts[("T", "Y")]["classification"] == "non_physical"
    assert verdicts[("T", "Y")]["rule"] == "R1-skeleton"
    assert verdicts[("M", "T")]["classification"] == "undetermined"
    assert doc["changes"].get("1", []) == []


def test_classify_oriented_mode(capsys, tmp_path):
    scm = write_model(tmp_path, "intro-mediator")
    rc, report, _ = invoke(capsys, "discover", "--exact", scm)
    path = tmp_path / "disc.json"
    path.write_text(report)
    rc, out, _ = invoke(capsys, "classify", str(path), "--mode", "oriented")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["counts"] == {"non_physical": 2, "physical": 0, "undetermined": 0}
    assert all(c["rule"] == "R1-parent" for c in doc["changes"]["0"])


def test_classify_input_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc, _, err = invoke(capsys, "classify", str(bad))
    assert rc == EXIT_USAGE
    assert "not valid JSON" in err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"context": "R", "nodes": ["R", "X"]}))
    rc, _, err = invoke(capsys, "classify", str(missing))
    assert rc == EXIT_USAGE
    assert "'per_regime'" in err
    # oriented mode needs orientations only exact-mode reports carry
    sample_like = tmp_path / "sample.json"
    sample_like.write_text(json.dumps({
        "context": "R",
        "nodes": ["R", "X"],
        "pooled_skeleton": [["R", "X"]],
        "per_regime": {"0": {"detect": [["R", "X"]]}},
    }))
    rc, _, err = invoke(capsys, "classify", str(sample_like), "--mode", "oriented")
    assert rc == EXIT_USAGE
    assert "union_directed" in err
    rc, _, _ = invoke(capsys, "classify", str(sample_like))
    assert rc == EXIT_OK
    # malformed values exit 2 and name the key (and the regime, inside one)
    good = {
        "context": "R",
        "nodes": ["R", "X"],
        "pooled_skeleton": [["R", "X"]],
        "union_directed": [["R", "X"]],
        "per_regime": {"0": {"detect": [["R", "X"]]}},
    }
    cases = [
        ({"per_regime": {"0": 5}}, "regime '0': key 'per_regime'"),
        ({"per_regime": {"0": {"detect": [1]}}}, "regime '0': key 'detect'"),
        ({"per_regime": {"0": {"detect": [["R"]]}}}, "regime '0': key 'detect'"),
        ({"per_regime": {"0": {"detect": "RX"}}}, "regime '0': key 'detect'"),
        ({"pooled_skeleton": [["R", 1]]}, "key 'pooled_skeleton'"),
        ({"union_directed": 3}, "key 'union_directed'"),
        ({"nodes": "RX"}, "key 'nodes'"),
        ({"nodes": ["R", 1]}, "key 'nodes'"),
    ]
    for change, culprit in cases:
        doc = tmp_path / "malformed.json"
        doc.write_text(json.dumps({**good, **change}))
        for mode in ("skeleton", "oriented"):
            rc, _, err = invoke(capsys, "classify", str(doc), "--mode", mode)
            if mode == "skeleton" and "union_directed" in change:
                assert rc == EXIT_OK
                continue
            if mode == "oriented" and "pooled_skeleton" in change:
                assert rc == EXIT_OK
                continue
            assert rc == EXIT_USAGE, (change, mode)
            assert culprit in err, (change, mode, err)


def transfer_csv(tmp_path):
    data = draw_samples(get_example("fig1-change-overlap"), 4000, 7)
    path = tmp_path / "data.csv"
    path.write_text(data.to_csv())
    return str(path)


def test_transfer_test_cli(capsys, tmp_path):
    csv = transfer_csv(tmp_path)
    args = ("transfer-test", csv, "--x", "X", "--y", "Y", "--r0", "0",
            "--context", "C", "--K", "20", "--N", "500", "--seed", "3")
    rc, out, _ = invoke(capsys, *args)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["evidence_physical"] is True
    assert doc["estimated_power_under_null"] == 1.0
    assert doc["config"] == {"K": 20, "N": 500, "alpha": 0.05, "seed": 3,
                             "min_power": 0.8, "pooled_null": False}
    assert len(doc["replicates"]) == 20
    assert all(r["rejects_null"] for r in doc["replicates"])
    rc, again, _ = invoke(capsys, *args)
    assert again == out


def test_transfer_seed_from_environment(capsys, tmp_path, monkeypatch):
    csv = transfer_csv(tmp_path)
    base = ("transfer-test", csv, "--x", "X", "--y", "Y", "--r0", "0",
            "--context", "C", "--K", "5", "--N", "300")
    monkeypatch.setenv("CSI_GRAPHLAB_SEED", "3")
    rc, from_env, _ = invoke(capsys, *base)
    assert rc == EXIT_OK
    monkeypatch.delenv("CSI_GRAPHLAB_SEED")
    rc, from_flag, _ = invoke(capsys, *base, "--seed", "3")
    assert from_env == from_flag
    monkeypatch.setenv("CSI_GRAPHLAB_SEED", "x")
    rc, _, err = invoke(capsys, *base)
    assert rc == EXIT_USAGE
    assert "CSI_GRAPHLAB_SEED" in err


def test_transfer_bad_column_names_it(capsys, tmp_path):
    csv = transfer_csv(tmp_path)
    rc, _, err = invoke(capsys, "transfer-test", csv, "--x", "Q", "--y", "Y",
                        "--r0", "0", "--context", "C")
    assert rc == EXIT_USAGE
    assert "'Q'" in err


def test_transfer_repeated_z_column_is_named(capsys, tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text(draw_samples(get_example("intro-mediator"), 400, 7).to_csv())
    rc, out, err = invoke(capsys, "transfer-test", str(csv), "--x", "T", "--y", "Y",
                          "--z", "M,M", "--r0", "1", "--K", "2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "z repeats column 'M'" in err


def test_transfer_n_beyond_numpy_draws_exits_2(capsys, tmp_path):
    csv = transfer_csv(tmp_path)
    rc, out, err = invoke(capsys, "transfer-test", csv, "--x", "X", "--y", "Y", "--r0", "0",
                          "--context", "C", "--K", "2", "--N", str(2**63))
    assert rc == EXIT_USAGE
    assert out == ""
    assert "N must be from 1 to 2^63 - 1, got 9223372036854775808" in err
    assert "Traceback" not in err


def test_transfer_evidence_holds_at_n_of_10_to_10(capsys, tmp_path):
    # at N = 10^10 a stratum's row sum times column sum passes 2^63; the G-test
    # used to wrap it in int64 and default every replicate to independence
    path = tmp_path / "data.csv"
    path.write_text(draw_samples(get_example("fig1-change-overlap"), 4000, 5).to_csv())
    base = ("transfer-test", str(path), "--x", "X", "--y", "Y", "--r0", "0",
            "--context", "C", "--K", "5")
    for n in ("2000", "10000000000"):
        rc, out, _ = invoke(capsys, *base, "--N", n)
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert (doc["estimated_power_under_null"], doc["evidence_physical"]) == (1.0, True), n


def test_transfer_over_the_table_budget_exits_2(capsys, tmp_path):
    rows = [
        (str(i % 2), str(i % 10), str(i // 10 % 10), str(i % 103), str(7 * i % 103))
        for i in range(206)
    ]
    path = tmp_path / "wide.csv"
    path.write_text(Dataset.from_rows(["R", "X", "Y", "Z0", "Z1"], rows).to_csv())
    rc, out, err = invoke(capsys, "transfer-test", str(path), "--x", "X", "--y", "Y",
                          "--z", "Z0,Z1", "--r0", "0", "--K", "5")
    assert rc == EXIT_USAGE
    assert out == ""
    assert "_TABLE_BUDGET" in err and "1060900 cells" in err


def test_sample_matches_the_library(capsys, tmp_path):
    scm = write_model(tmp_path, "intro")
    rc, out, _ = invoke(capsys, "sample", scm, "--n", "50", "--seed", "7")
    assert rc == EXIT_OK
    assert out == draw_samples(get_example("intro"), 50, 7).to_csv()
    rc, _, err = invoke(capsys, "sample", scm, "--n", "-1", "--seed", "7")
    assert rc == EXIT_USAGE
    assert "nonnegative" in err


@pytest.mark.parametrize("name, n, seed, digest", [
    ("intro", 50, 7, "21d455469f015e9e9cc687e2a77aaa7e03f24a762d9c034e261a4ac4dca2c574"),
    ("intro-mediator", 10**6, 3,
     "21a36b6c4bd8de7617a79c3367a997c0ccc1ab65f7bd86ec25c617dcde67fb93"),
])
def test_sample_stdout_is_pinned(capsys, tmp_path, name, n, seed, digest):
    scm = write_model(tmp_path, name)
    rc, out, _ = invoke(capsys, "sample", scm, "--n", str(n), "--seed", str(seed))
    assert rc == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_passes_and_is_byte_stable(capsys):
    rc, out, _ = invoke(capsys, "verify", "--count", "20", "--seed", "3")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["fixture_failures"] == []
    assert sorted(doc["fixtures"]) == list_examples()
    assert all(
        status in ("passed", "skipped")
        for checks in doc["fixtures"].values()
        for status in checks.values()
    )
    assert doc["suite"]["count"] == 20 and doc["suite"]["seed"] == 3
    rc, again, _ = invoke(capsys, "verify", "--count", "20", "--seed", "3")
    assert again == out


def test_verify_reports_law_failures_with_exit_3(capsys, monkeypatch):
    broken = SuiteSummary(
        count=1, seed=0, models=(),
        tallies={"edge_inclusions": {"passed": 0, "failed": 1, "skipped": 0}},
        failures=({"model_index": 0, "model_seed": 0, "check": "edge_inclusions",
                   "witnesses": []},),
        rejections={},
    )
    monkeypatch.setattr("csi_graphlab.cli.run_suite", lambda *a, **kw: broken)
    rc, out, _ = invoke(capsys, "verify", "--count", "1")
    assert rc == EXIT_LAW_FAILURE
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["suite"]["failures"]


def test_verify_spec_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_vars": 3, "max_domain": 3, "max_parents": 2, "seed": 4,
        "require": {"strongly_regime_acyclic": True},
    }))
    rc, out, _ = invoke(capsys, "verify", "--count", "6", "--spec", str(spec))
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert [m["n_vars"] for m in doc["suite"]["models"]] == [2, 3] * 3
    assert doc["suite"]["seed"] == 4

    spec.write_text(json.dumps({"n_var": 3}))
    rc, _, err = invoke(capsys, "verify", "--spec", str(spec))
    assert rc == EXIT_USAGE and "'n_var'" in err
    spec.write_text(json.dumps({"require": {"acyclic": True}}))
    rc, _, err = invoke(capsys, "verify", "--spec", str(spec))
    assert rc == EXIT_USAGE and "'acyclic'" in err
    spec.write_text(json.dumps({"n_vars": "three"}))
    rc, _, err = invoke(capsys, "verify", "--spec", str(spec))
    assert rc == EXIT_USAGE and "'n_vars'" in err
    spec.write_text("{broken")
    rc, _, err = invoke(capsys, "verify", "--spec", str(spec))
    assert rc == EXIT_USAGE and "not valid JSON" in err


def test_json_inputs_must_hold_an_object(capsys, tmp_path):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    for args, where in [(("classify", str(array)), "discovery report %r"),
                        (("verify", "--spec", str(array)), "spec file %r")]:
        rc, out, err = invoke(capsys, *args)
        assert (rc, out) == (EXIT_USAGE, "")
        assert where % str(array) + ": top level must be an object" in err


def test_verify_seed_precedence(capsys, tmp_path, monkeypatch):
    """--seed, then CSI_GRAPHLAB_SEED, then the spec's own seed."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_vars": 2, "seed": 4}))
    base = ("verify", "--count", "1", "--spec", str(spec))

    def suite_seed(*extra):
        rc, out, _ = invoke(capsys, *base, *extra)
        assert rc == EXIT_OK
        return json.loads(out)["suite"]["seed"]

    monkeypatch.delenv("CSI_GRAPHLAB_SEED", raising=False)
    assert suite_seed() == 4
    monkeypatch.setenv("CSI_GRAPHLAB_SEED", "3")
    assert suite_seed() == 3
    assert suite_seed("--seed", "5") == 5
    monkeypatch.setenv("CSI_GRAPHLAB_SEED", "x")
    rc, _, err = invoke(capsys, *base)
    assert rc == EXIT_USAGE and "CSI_GRAPHLAB_SEED" in err


def _cli_stdout_under_hash_seed(hash_seed, *argv):
    package_root = str(Path(csi_graphlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "CSI_GRAPHLAB_SEED"}
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "csi_graphlab.cli", *argv],
        env=env, capture_output=True, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ("verify", "--count", "20", "--seed", "1"),
    ("ground-truth", "--full", "MODEL"),
    ("discover", "--exact", "MODEL"),
    ("discover", "--data", "CSV", "--alpha", "0.01"),
    ("classify", "REPORT"),
    ("classify", "REPORT", "--mode", "oriented"),
    ("transfer-test", "CSV", "--x", "T", "--y", "Y", "--r0", "0", "--K", "20"),
])
def test_output_is_independent_of_hash_seed(tmp_path, argv):
    paths = {"MODEL": write_model(tmp_path, "non-markov(1/3)"), "CSV": tmp_path / "data.csv",
             "REPORT": tmp_path / "discovered" / "report.json"}
    paths["CSV"].write_text(draw_samples(get_example("intro-mediator"), 3000, 1).to_csv())
    if "REPORT" in argv:
        # a report whose pooled edges vanish in some context, so classify lists changes
        model = write_model(tmp_path, "intro-mediator", "mediator.scm")
        assert main(["discover", "--exact", model, "--out", str(paths["REPORT"].parent)]) == EXIT_OK
    argv = [str(paths.get(a, a)) for a in argv]
    outs = {_cli_stdout_under_hash_seed(seed, *argv) for seed in (0, 12345)}
    assert len(outs) == 1
    assert outs.pop().startswith(b"{")


def test_unknown_command_exits_2(capsys):
    rc, _, err = invoke(capsys, "no-such-command")
    assert rc == EXIT_USAGE
    rc, _, _ = invoke(capsys, "--help")
    assert rc == EXIT_OK


def test_repeated_invocations_give_the_same_bytes(capsys, monkeypatch):
    """Help, a usage error and two subcommands, back to back in one process
    and twice over, print what each prints when run alone in a fresh one."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("--help",),
        ("verify", "--count", "many"),
        ("corpus", "export", "intro"),
        ("verify", "--count", "3", "--seed", "1"),
    ]
    runs = [[invoke(capsys, *argv) for argv in calls] for _ in range(2)]
    assert runs[0] == runs[1]
    assert [rc for rc, _, _ in runs[0]] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    package_root = str(Path(csi_graphlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "CSI_GRAPHLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for argv, got in zip(calls, runs[0]):
        proc = subprocess.run(
            [sys.executable, "-m", "csi_graphlab.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
