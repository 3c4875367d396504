#!/usr/bin/env python3
"""Benchmark for csi_graphlab: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24   # table, every workload
    python3 perfbench/run.py --smoke                                 # self-test at tiny sizes

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its src/.  Set-up is measured in SETUP_SAMPLES
fresh processes (the last one also runs the workload), each of which then
times a fixed probe; `setup_s` is the median set-up scaled to reference
speed by the median probe, as the `_ref` metrics are (see worker.py).
The last line of stdout is the JSON result; the full record, with the
environment, goes to .perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "transfer", "sample_discover", "exact_pipeline")
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0  # the whole call, set-up samples included
# Counts named by their last component; everything else by its suffix.
ROW_COUNTS = ("noise_rows", "rows_scanned", "rows_parsed", "unseen_cell_rows")


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last in ROW_COUNTS:
        return "rows"
    if last.endswith("frac") or last == "share":
        return "fraction"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON line and its set-up seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker %s exited with %d" % (" ".join(argv), proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["setup_end"] - t0


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    src_lines = {
        p.name: len(p.read_text().splitlines())
        for p in sorted((ROOT / "src" / "csi_graphlab").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
    }


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setups, probes = [], []
    for _ in range(SETUP_SAMPLES - 1):
        sample, setup = run_worker(common + ["--setup-only"], deadline)
        setups.append(setup)
        probes.append(sample["setup_probe_s"])
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", str(out_dir / (stem + "-spans.npz"))]
    result, setup = run_worker(common + extra, deadline)
    setups.append(setup)
    probes.append(result["setup_probe_s"])
    result["setup_samples_s"] = setups
    result["setup_probe_samples_s"] = probes
    result.setdefault("raw", {})["setup_s"] = statistics.median(setups)
    result["env"] = environment()
    if trace:
        metrics = dict(result.pop("per_layer"))
    else:
        metrics = {
            "setup_s": statistics.median(setups) * result["setup_probe_ref_s"]
                       / statistics.median(probes),
            "wall_ref_s": result["wall_ref_s"],
            "op_p50_ref_ms": result["op_p50_ref_ms"],
            "op_p90_ref_ms": result["op_p90_ref_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    result["metrics"] = metrics
    (out_dir / (stem + ".json")).write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def declared_metrics(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def contract_line(result: dict, trace: int) -> dict:
    """The result line: exactly the declared metrics, each with its unit."""
    metrics = {}
    units = {"setup_s": "s", "wall_ref_s": "s", "op_p50_ref_ms": "ms", "op_p90_ref_ms": "ms",
             "peak_rss_mb": "MB"}
    for m in declared_metrics(trace):
        name = m["name"]
        unit = units[name] if not trace else unit_of(name)
        if name not in result["metrics"] or unit != m["unit"]:
            raise RuntimeError("metric %s (%s) not produced as declared (%s)"
                               % (name, unit, m["unit"]))
        metrics[name] = {"value": result["metrics"][name], "unit": unit}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def describe(workload: str, result: dict) -> str:
    frac = result["failed"] / result["attempted"]
    raw = "".join(", raw %s %.6g" % kv for kv in sorted(result.get("raw", {}).items()))
    return ("%s: %d ops in %d rounds, failed_frac %.4f, correct %s%s%s"
            % (workload, result["attempted"], result["rounds"], frac, result["correct"], raw,
               "" if not result["problems"] else "; problems: " + "; ".join(result["problems"])))


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: every declared metric must appear
    with its unit, outputs must be correct and the span accounting must hold."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result = measure(workload, 1, 0.5, trace, smoke=True)
                line = contract_line(result, trace)
                ok = line["correct"]
                print(describe(workload, result) + " [trace %d]" % trace)
            except (RuntimeError, subprocess.SubprocessError, KeyError, ValueError) as e:
                ok = False
                print("%s [trace %d]: %s" % (workload, trace, e))
            bad += not ok
    print("smoke: %s" % ("ok" if not bad else "%d failure(s)" % bad))
    return 0 if not bad else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = ap.parse_args()

    if not (ROOT / "src" / "csi_graphlab" / "__init__.py").is_file():
        print("no src/csi_graphlab under %s: run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        print("%-16s %9s %10s %13s %13s %11s %11s %9s" % (
            "workload", "setup_s", "wall_ref_s", "op_p50_ref_ms", "op_p90_ref_ms", "peak_rss_mb",
            "failed_frac", "wall_s"))
        ok = True
        for workload in WORKLOADS:
            result = measure(workload, args.seed, args.seconds, 0, smoke=False)
            m = result["metrics"]
            print("%-16s %9.3f %10.3f %13.2f %13.2f %11.1f %11.4f %9.3f" % (
                workload, m["setup_s"], m["wall_ref_s"], m["op_p50_ref_ms"], m["op_p90_ref_ms"],
                m["peak_rss_mb"], result["failed"] / result["attempted"], result["raw"]["wall_s"]),
                flush=True)
            ok = ok and result["correct"]
        return 0 if ok else 1
    result = measure(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    print(describe(args.workload, result))
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    print(json.dumps(contract_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
