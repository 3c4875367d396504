"""One benchmark process: set up a workload, run it closed-loop, print one JSON line.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's src/ and BLAS threads pinned to 1.  Everything from interpreter
start to the end of the workload's constructor is set-up; `--setup-only`
stops there.

Untraced mode runs the workload's round of ops again and again while the
next round still fits in --seconds (at least one).  On a shared machine
whose speed drifts by up to half within minutes, raw latencies drift with
it, so every untraced round also times a fixed yardstick that never
changes, `probe()`, repeated the workload's `probe_repeat` times so that
it lasts about as long as the workload's typical op.  It runs in
`probe_slots` slots spread evenly over the round, between ops.  Each
round's latencies are scaled by PROBE_REF_S * probe_repeat / (the median
of that round's probe times): seconds at the speed of a machine on which
one probe takes PROBE_REF_S.  An op's latency is its median over the
rounds of the scaled latencies, and the `*_ref_*` metrics are built from
those.  The raw medians, unscaled, are reported next to them.

Set-up is scaled the same way, by one probe of SETUP_PROBE_REPEAT runs
timed right after it, outside the set-up interval (see run.py).

Traced mode alternates an untraced and a traced round; both must give the
same digests, and their wall-time ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import csi_graphlab  # noqa: E402  (set-up time includes this import)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


PROBE_REF_S = 0.01  # about one probe's time on the 2-core machine of the README baseline
SETUP_PROBE_REPEAT = 30  # the probe timed right after set-up, which takes about a second


def probe(repeat: int) -> float:
    """Time `repeat` runs of a fixed mix of Fraction sums, dict updates and a numpy sort."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        acc, counts = Fraction(0), {}
        for i in range(1, 2500):
            acc += Fraction(1, i % 89 + 1)
            key = (i % 53, i % 7)
            counts[key] = counts.get(key, 0) + 1
        x = np.random.default_rng(0).integers(0, 3, 100_000)
        np.argsort(x, kind="stable")
        np.bincount(x)
    return time.perf_counter() - t0


def _pinned(name: str, plan, seed: int, smoke: bool) -> dict:
    if smoke or (plan.seeded and seed != workloads.DEFAULT_SEED):
        return {}
    return json.loads((Path(__file__).parent / "digests.json").read_text())[name]


class Runner:
    def __init__(self, plan, pinned: dict):
        self.plan = plan
        self.ops = plan.ops()
        self.reference: list[str] = pinned.get("ops", [])
        self.pinned_rounds: dict[str, str] = pinned.get("rounds", {})
        self.latencies: list[list[float]] = []  # per round, per op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.round_digests: dict[str, str] = {}
        self.probes: list[list[float]] = []  # per round, per slot
        self.probe_every = max(1, len(self.ops) // plan.probe_slots)

    def time_round(self, tracer: Tracer | None = None) -> list:
        """Run one round; return the outputs, None for an op that raised.

        An untraced round also times the probe in its slots.
        """
        outputs, lat, probes = [], [], []
        clock = time.perf_counter
        for k, (_, fn) in enumerate(self.ops):
            if tracer is None and k % self.probe_every == 0:
                probes.append(probe(self.plan.probe_repeat))
            if tracer is not None:
                tracer.begin_op(k)
            t0 = clock()
            try:
                out = fn()
            except Exception as e:  # a raising op is a failed op, and the run goes on
                out = None
                self.problems.append("op %d raised %s: %s" % (k, type(e).__name__, e))
            lat.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
            outputs.append(out)
        self.attempted += len(self.ops)
        self.latencies.append(lat)
        if probes:
            self.probes.append(probes)
        return outputs

    def grade(self, outputs: list) -> None:
        """Count ops that raised, or whose digest differs from the reference (the
        pinned digests, else round 0's), and apply the workload's own checks."""
        digests = [workloads.digest(o) if o is not None else "raised" for o in outputs]
        if not self.reference:
            self.reference = digests
        for k, (d, want) in enumerate(zip(digests, self.reference)):
            if d != want:
                self.failed += 1
                if d != "raised":
                    self.problems.append("op %d: digest %s != %s" % (k, d, want))
        problems, round_digests = self.plan.check(outputs)
        self.problems += problems
        for key, d in round_digests.items():
            want = self.pinned_rounds.get(key, d)
            if d != want:
                self.problems.append("%s digest %s != pinned %s" % (key, d, want))
            self.round_digests.setdefault(key, d)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans to this .npz file")
    args = ap.parse_args()

    src = Path(csi_graphlab.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print("csi_graphlab imported from %s, not from %s/src" % (src, ROOT), file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        setup_end = time.monotonic()
        setup_probe = {"setup_end": setup_end, "setup_probe_s": probe(SETUP_PROBE_REPEAT),
                       "setup_probe_ref_s": PROBE_REF_S * SETUP_PROBE_REPEAT}
        if args.setup_only:
            print(json.dumps(setup_probe))
            return 0
        result = _measure(args, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_probe)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(args, plan) -> dict:
    runner = Runner(plan, _pinned(args.workload, plan, args.seed, args.smoke))
    start = time.perf_counter()
    out: dict = {}
    if not args.trace:
        while True:
            t0 = time.perf_counter()
            runner.grade(runner.time_round())
            t1 = time.perf_counter()
            if t1 - start + (t1 - t0) > args.seconds:
                break
        ref = PROBE_REF_S * plan.probe_repeat
        scaled = [[t * ref / statistics.median(probes) for t in lat]
                  for lat, probes in zip(runner.latencies, runner.probes)]
        per_op = [statistics.median(ts) for ts in zip(*scaled)]
        raw_per_op = [statistics.median(ts) for ts in zip(*runner.latencies)]
        out["raw"] = {"wall_s": sum(raw_per_op), "op_p50_ms": 1e3 * statistics.median(raw_per_op),
                      "op_p90_ms": 1e3 * _percentile(raw_per_op, 0.9),
                      "probe_s": statistics.median(p for probes in runner.probes for p in probes)}
        out["wall_ref_s"] = sum(per_op)
        out["op_p50_ref_ms"] = 1e3 * statistics.median(per_op)
        out["op_p90_ref_ms"] = 1e3 * _percentile(per_op, 0.9)
        rounds = len(runner.latencies)
    else:
        tracer = Tracer()
        walls, traced_walls = [], []
        while True:
            t0 = time.perf_counter()
            runner.grade(runner.time_round())
            walls.append(sum(runner.latencies[-1]))
            tracer.install()
            try:
                outputs = runner.time_round(tracer)
            finally:
                tracer.uninstall()
            runner.grade(outputs)
            traced_walls.append(sum(runner.latencies[-1]))
            t1 = time.perf_counter()
            if t1 - start + (t1 - t0) > args.seconds:
                break
        layers, span_problems = tracer.summary(sum(traced_walls), len(traced_walls))
        runner.problems += span_problems
        layers["trace.overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
        out["per_layer"] = layers
        rounds = len(walls)
        if args.spans:
            tracer.save(args.spans)
    out.update({
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "correct": runner.failed == 0 and not runner.problems,
        "op_digests": runner.reference,
        "round_digests": runner.round_digests,
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
