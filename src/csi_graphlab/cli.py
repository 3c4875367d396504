"""Command-line front end over the library pipelines.

One executable, seven subcommands: exact ground-truth graphs, skeleton
discovery (exact or sampled), edge-change classification, the bootstrap
transfer test, dataset sampling, the law suite, and corpus access.  Each
subcommand returns its files in order, and `main` delivers them in one
place: stdout prints the first (a JSON report with sorted keys and embedded
DOT text, the samples CSV, the corpus list or a model), and `--out DIR`
writes them all, the per-graph DOT files and CSV tables included.  Reports
carry the library's tuples and dataclasses as they are.  Outputs are
byte-stable for fixed inputs and seeds.

Exit codes: 0 success, 2 validation error, 3 law-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .classify import classify_changes
from .corpus import get_example, list_examples
from .data import Dataset
from .discovery import ExactTester, SampleTester, discover, intersection_graph, union_from_contexts
from .exact import SolvedModel, draw_samples
from .graph_objects import ground_truth, union_graph
from .graphs import DirectedGraph, UndirectedSkeleton, acyclify
from .laws import DEFAULT_CHECKS, RandomModelSpec, Requirements, run_suite
from .scm import load_scm, serialize_scm
from .transfer import TransferConfig, transfer_evidence

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_LAW_FAILURE"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LAW_FAILURE = 3


class CliError(ValueError):
    """Invalid flags, files, or fields caught by the command layer."""


# --- shared plumbing -----------------------------------------------------------------

def _read_source(path: str, flag: str) -> str:
    """Read an input; '-' means stdin.  The bytes of either source decode as
    strict UTF-8 with universal newlines, as `Path.read_text` reads a file."""
    if path == "-":
        raw, where = sys.stdin.buffer.read(), "stdin"
    else:
        try:
            raw, where = Path(path).read_bytes(), "file %r" % (path,)
        except OSError as e:
            raise CliError("cannot read %s file %r: %s" % (flag, path, e.strerror)) from None
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as e:
        raise CliError("%s %s is not UTF-8: %s" % (flag, where, e)) from None


def _json_object(path: str, flag: str, where: str) -> dict:
    """The JSON object in a positional input; errors name it as `where`."""
    try:
        doc = json.loads(_read_source(path, flag))
    except json.JSONDecodeError as e:
        raise CliError("%s is not valid JSON: %s" % (where, e)) from None
    if not isinstance(doc, dict):
        raise CliError("%s: top level must be an object" % where)
    return doc


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _deliver(args, files: dict[str, str]) -> None:
    """Print the first file to stdout, or write all of them under --out.

    A name that is not a plain file name (a context label can put a '/'
    into one), and existing files unless --force is set, abort the whole
    run before anything is created or written.
    """
    if args.out is None:
        sys.stdout.write(next(iter(files.values())))
        return
    for name in files:
        if name in (".", "..") or "\0" in name or Path(name).name != name:
            raise CliError("cannot write %r under --out: not a plain file name" % (name,))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not args.force:
        clashes = sorted(name for name in files if (out / name).exists())
        if clashes:
            raise CliError(
                "refusing to overwrite %s in %r (pass --force)"
                % (", ".join(clashes), str(out))
            )
    for name, text in files.items():
        (out / name).write_text(text)


def _resolve_seed(explicit: int | None, default: int | None = 0) -> int | None:
    """Flag wins, then CSI_GRAPHLAB_SEED, then `default`."""
    if explicit is not None:
        return explicit
    env = os.environ.get("CSI_GRAPHLAB_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise CliError(
            "environment variable CSI_GRAPHLAB_SEED must be an integer, got %r" % env
        ) from None


def _load_model(path: str, flag: str) -> SolvedModel:
    return SolvedModel.of(load_scm(_read_source(path, flag)))


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    """Header and rows in the dialect of `Dataset.to_csv`."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


# --- ground-truth --------------------------------------------------------------------

# per-regime graph families in report order; without --full only the first two get DOT files
_FAMILIES = ("descriptive", "physical", "counterfactual", "ident")


def _cmd_ground_truth(args) -> tuple[dict[str, str], int]:
    gt = ground_truth(_load_model(args.scm, "model"))

    dots = {
        "mechanism.dot": gt.mechanism.to_dot("mechanism"),
        "union.dot": gt.union.to_dot("union"),
        "acyclified-union.dot": acyclify(gt.union).to_dot("acyclified-union"),
    }
    for r in gt.regimes:
        for fam in _FAMILIES if args.full else _FAMILIES[:2]:
            name = "%s-%s" % (fam, r)
            dots[name + ".dot"] = getattr(gt.per_regime[r], fam).to_dot(name)

    all_edges = gt.mechanism.edges | gt.union.edges
    for rg in gt.per_regime.values():
        for fam in _FAMILIES:
            all_edges |= getattr(rg, fam).edges
    table = [
        {
            "edge": e,
            "mechanism": e in gt.mechanism.edges,
            "union": e in gt.union.edges,
            **{
                fam: {r: e in getattr(gt.per_regime[r], fam).edges for r in gt.regimes}
                for fam in _FAMILIES
            },
        }
        for e in sorted(all_edges)
    ]

    doc = {
        "command": "ground-truth",
        "context": gt.context,
        "regimes": gt.regimes,
        "weakly_regime_acyclic": gt.weakly_regime_acyclic,
        "strongly_regime_acyclic": gt.strongly_regime_acyclic,
        "edges": table,
        "dot": dots,
    }
    return {"report.json": _json_doc(doc), **dots}, EXIT_OK


# --- discover ------------------------------------------------------------------------

def _cmd_discover(args) -> tuple[dict[str, str], int]:
    if args.exact is not None:
        for flag, value in (("--alpha", args.alpha), ("--context", args.context)):
            if value is not None:
                raise CliError("%s applies to --data mode only, not --exact" % flag)
        solved = _load_model(args.exact, "--exact")
        tester = ExactTester(solved)
        mode = "exact"
    else:
        if args.alpha is None:
            raise CliError("--alpha is required with --data")
        data = Dataset.tabulate_csv(_read_source(args.data, "--data"))
        context = "R" if args.context is None else args.context
        tester = SampleTester(data, args.alpha, context)
        mode = "sample"

    regimes = tester.regimes
    if args.regime is not None:
        if args.regime not in tester.regimes:
            raise CliError(
                "--regime %r is not an observed context value (have: %s)"
                % (args.regime, ", ".join(tester.regimes))
            )
        regimes = (args.regime,)

    certs: list = []
    pooled, masked, detect_by_regime = discover(tester, regimes, certs)
    per_regime = {r: {
        "masked": masked[r].sorted_pairs(),
        "detect": detect_by_regime[r].sorted_pairs(),
        "intersection": intersection_graph(pooled, masked[r], tester.context).sorted_pairs(),
    } for r in regimes}
    reunion = union_from_contexts(detect_by_regime, pooled, tester.context)

    dots = {"pooled-skeleton.dot": pooled.to_dot("pooled-skeleton")}
    for r in regimes:
        dots["detect-%s.dot" % r] = detect_by_regime[r].to_dot("detect-%s" % r)
    dots["union-reconstruction.dot"] = reunion.to_dot("union-reconstruction")

    doc = {
        "command": "discover",
        "mode": mode,
        "context": tester.context,
        "nodes": tester.variables,
        "regimes": regimes,
        "observed_regimes": tester.regimes,
        "pooled_skeleton": pooled.sorted_pairs(),
        "per_regime": per_regime,
        "union_reconstruction": reunion.sorted_pairs(),
        # each certificate's own fields; asdict would deep-copy every record
        "certificates": [vars(c) for c in certs],
        "dot": dots,
    }
    if mode == "exact":
        # oracle orientations, so classify --mode oriented has a pooled graph to work from
        doc["union_directed"] = union_graph(solved).sorted_edges()
    return {"report.json": _json_doc(doc), **dots}, EXIT_OK


# --- classify ------------------------------------------------------------------------

def _require_key(doc: dict, key: str, where: str):
    if key not in doc:
        raise CliError("%s: missing key %r" % (where, key))
    return doc[key]


def _require_pairs(doc: dict, key: str, where: str) -> list[tuple[str, str]]:
    """The value of `key`: a list of [name, name] pairs."""
    value = _require_key(doc, key, where)
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(v, str) for v in p)
        for p in value
    ):
        raise CliError("%s: key %r must be a list of [name, name] pairs" % (where, key))
    return [tuple(p) for p in value]


def _cmd_classify(args) -> tuple[dict[str, str], int]:
    where = "discovery report %r" % args.report
    doc = _json_object(args.report, "report", where)

    context = _require_key(doc, "context", where)
    nodes = _require_key(doc, "nodes", where)
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise CliError("%s: key 'nodes' must be a list of names" % where)
    per_regime = _require_key(doc, "per_regime", where)
    if not isinstance(per_regime, dict) or not per_regime:
        raise CliError("%s: key 'per_regime' must be a non-empty object" % where)
    detect = {}
    for r, entry in per_regime.items():
        at = "%s, regime %r" % (where, r)
        if not isinstance(entry, dict):
            raise CliError("%s: key 'per_regime' must map each regime to an object" % at)
        detect[r] = UndirectedSkeleton(nodes, _require_pairs(entry, "detect", at))

    if args.mode == "oriented":
        if "union_directed" not in doc:
            raise CliError(
                "%s has no key 'union_directed'; oriented mode needs the "
                "directed pooled graph that exact-mode discover emits" % where
            )
        pooled = DirectedGraph(nodes, _require_pairs(doc, "union_directed", where))
    else:
        pooled = UndirectedSkeleton(nodes, _require_pairs(doc, "pooled_skeleton", where))

    report = classify_changes(
        pooled, detect, mode=args.mode, context=context, regimes=sorted(detect)
    )
    out_doc = {
        "command": "classify",
        "mode": report.mode,
        "context": report.context,
        "counts": report.counts(),
        # each change is filed under its regime, so the record leaves it out
        "changes": {
            r: [{k: v for k, v in asdict(c).items() if k != "regime"} for c in items]
            for r, items in report.changes.items()
        },
        "violations": report.violations,
    }
    return {
        "report.json": _json_doc(out_doc),
        "changes.csv": _csv_text(
            ["regime", "tail", "head", "classification", "rule", "justification"],
            report.rows(),
        ),
    }, EXIT_OK


# --- transfer-test -------------------------------------------------------------------

def _cmd_transfer_test(args) -> tuple[dict[str, str], int]:
    data = Dataset.tabulate_csv(_read_source(args.csv, "data"))
    z = tuple(t for t in (args.z or "").split(",") if t)
    cfg = TransferConfig(
        K=args.K,
        N=args.N,
        alpha=args.alpha,
        seed=_resolve_seed(args.seed),
        min_power=args.min_power,
    )
    verdict = transfer_evidence(
        data, args.x, args.y, z, args.r0, cfg,
        context=args.context, pooled_null=args.pooled_null,
    )
    details = dict(verdict.details)
    p_values = details.pop("per_replicate_p_values")
    doc = {
        "command": "transfer-test",
        "x": args.x,
        "y": args.y,
        "z": z,
        "r0": args.r0,
        "context": args.context,
        "config": {**asdict(cfg), "pooled_null": args.pooled_null},
        "estimated_power_under_null": verdict.estimated_power_under_null,
        "observed_independent_in_r0": verdict.observed_independent_in_r0,
        "evidence_physical": verdict.evidence_physical,
        "details": details,
        "replicates": [
            {"index": k, "p_value": p, "rejects_null": p < cfg.alpha}
            for k, p in enumerate(p_values)
        ],
    }
    return {
        "report.json": _json_doc(doc),
        "replicates.csv": _csv_text(
            ["replicate", "p_value", "rejects_null"],
            [(k, p, str(p < cfg.alpha).lower()) for k, p in enumerate(p_values)],
        ),
    }, EXIT_OK


# --- sample --------------------------------------------------------------------------

def _cmd_sample(args) -> tuple[dict[str, str], int]:
    s = load_scm(_read_source(args.scm, "model"))
    return {"samples.csv": draw_samples(s, args.n, _resolve_seed(args.seed)).to_csv()}, EXIT_OK


# --- verify --------------------------------------------------------------------------

def _spec_from_file(path: str) -> RandomModelSpec:
    where = "spec file %r" % path
    doc = _json_object(path, "--spec", where)
    known = [f.name for f in fields(RandomModelSpec)]
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise CliError("%s: unknown key(s) %s" % (where, ", ".join(map(repr, unknown))))
    kwargs = {k: doc[k] for k in known if k in doc and k != "require"}
    for k, v in kwargs.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise CliError("%s: key %r must be an integer" % (where, k))
    if "require" in doc:
        req = doc["require"]
        if not isinstance(req, dict):
            raise CliError("%s: key 'require' must be an object" % where)
        bad = sorted(set(req) - {f.name for f in fields(Requirements)})
        if bad:
            raise CliError(
                "%s: unknown require key(s) %s" % (where, ", ".join(map(repr, bad)))
            )
        for k, v in req.items():
            if not isinstance(v, bool):
                raise CliError("%s: require key %r must be a boolean" % (where, k))
        kwargs["require"] = Requirements(**req)
    return RandomModelSpec(**kwargs)


def _cmd_verify(args) -> tuple[dict[str, str], int]:
    spec = _spec_from_file(args.spec) if args.spec else RandomModelSpec()
    # no flag and no environment variable: the spec's own seed
    seed = _resolve_seed(args.seed, default=None)

    fixture_results: dict[str, dict[str, str]] = {}
    fixture_failures: list[dict] = []
    for name in list_examples():
        s = get_example(name)
        solved = SolvedModel.of(s)
        statuses: dict[str, str] = {}
        for chk in DEFAULT_CHECKS:
            res = chk(s, solved)
            statuses[res.name] = res.status
            if not res.passed:
                fixture_failures.append({
                    "fixture": name,
                    "check": res.name,
                    "witnesses": res.witnesses,
                })
        fixture_results[name] = statuses

    summary = run_suite(args.count, spec=spec, seed=seed)
    ok = not fixture_failures and summary.ok
    doc = {
        "command": "verify",
        "ok": ok,
        "fixtures": fixture_results,
        "fixture_failures": fixture_failures,
        "suite": summary.to_dict(),
    }
    return {"report.json": _json_doc(doc)}, EXIT_OK if ok else EXIT_LAW_FAILURE


# --- corpus --------------------------------------------------------------------------

def _cmd_corpus(args) -> tuple[dict[str, str], int]:
    if args.action == "list":
        return {"corpus-list.txt": "\n".join(list_examples()) + "\n"}, EXIT_OK
    if args.name is None:
        raise CliError("corpus export needs a fixture name (see 'corpus list')")
    try:
        s = get_example(args.name)
    except ValueError as e:
        raise CliError("corpus export: %s" % e) from None
    return {"model.scm": serialize_scm(s)}, EXIT_OK


# --- parser --------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="DIR",
                        help="write output files into DIR instead of stdout")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing files under --out")

    parser = argparse.ArgumentParser(
        prog="csi-graphlab",
        description="Exact regime graphs, context-specific discovery, change "
                    "classification, and transfer evidence for finite categorical "
                    "models with a context variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground-truth", parents=[common],
                       help="solve a model and emit every graph object")
    p.add_argument("scm", help="model JSON file, or - for stdin")
    p.add_argument("--full", action="store_true",
                   help="also emit counterfactual and audit graphs as DOT")
    p.set_defaults(handler=_cmd_ground_truth)

    p = sub.add_parser("discover", parents=[common],
                       help="skeleton discovery from a model or a dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--exact", metavar="SCM",
                     help="model JSON file for exact-oracle discovery, or -")
    src.add_argument("--data", metavar="CSV",
                     help="dataset CSV for G-test discovery, or -")
    p.add_argument("--alpha", type=float, help="test level for --data mode")
    p.add_argument("--regime", help="restrict per-context output to one context value")
    p.add_argument("--context", default=None,
                   help="context column name for --data mode (default R)")
    p.set_defaults(handler=_cmd_discover)

    p = sub.add_parser("classify", parents=[common],
                       help="label vanished edges from a discovery report")
    p.add_argument("report", help="discover output JSON, or - for stdin")
    p.add_argument("--mode", choices=("skeleton", "oriented"), default="skeleton",
                   help="evidence strength; oriented needs union_directed in the report")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("transfer-test", parents=[common],
                       help="bootstrap evidence that a mechanism changed in one context")
    p.add_argument("csv", help="dataset CSV, or - for stdin")
    p.add_argument("--x", required=True, help="candidate cause column")
    p.add_argument("--y", required=True, help="outcome column")
    p.add_argument("--z", default="", help="comma-separated conditioning columns")
    p.add_argument("--r0", required=True, help="context value whose stratum lost the edge")
    p.add_argument("--K", type=int, default=200, help="bootstrap replicates (default 200)")
    p.add_argument("--N", type=int, default=2000, help="rows per replicate (default 2000)")
    p.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    p.add_argument("--seed", type=int, default=None,
                   help="replicate seed (default: CSI_GRAPHLAB_SEED or 0)")
    p.add_argument("--min-power", type=float, default=0.8, dest="min_power",
                   help="power gate for an evidence verdict (default 0.8)")
    p.add_argument("--context", default="R", help="context column name (default R)")
    p.add_argument("--pooled-null", action="store_true", dest="pooled_null",
                   help="estimate the null mechanism from all rows, not just other contexts")
    p.set_defaults(handler=_cmd_transfer_test)

    p = sub.add_parser("sample", parents=[common],
                       help="draw iid rows from a model's observable joint")
    p.add_argument("scm", help="model JSON file, or - for stdin")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: CSI_GRAPHLAB_SEED or 0)")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("verify", parents=[common],
                       help="run every law on the corpus and on random models")
    p.add_argument("--count", type=int, default=50,
                   help="number of random models (default 50)")
    p.add_argument("--seed", type=int, default=None,
                   help="suite seed (default: CSI_GRAPHLAB_SEED, else the spec seed)")
    p.add_argument("--spec", metavar="JSON",
                   help="random-model spec file overriding the defaults")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("corpus", parents=[common],
                       help="list built-in example models or export one")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?", help="fixture name for export")
    p.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed the usage message
        return int(e.code or 0)
    try:
        files, code = args.handler(args)
        _deliver(args, files)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
