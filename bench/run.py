"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload group --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (bench/rep.py), so the library's
lru_caches start cold, as they do for a command-line user.  Repetitions run
one after another while the next is expected to end within --seconds (at
least two); repetition i of seed s always gets the same inputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; no wrappers are
installed.  --trace 1 alternates an untraced and a traced repetition on the
same inputs and reports the per-layer metrics, trace.overhead_ratio and the
exact-count self-test.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a readable summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REP = os.path.join(ROOT, "bench", "rep.py")
MIN_REPS = 2  # untraced repetitions per run, even when one outlasts --seconds
MIN_SETUPS = 3  # set-ups timed per run; extra set-up-only starts make up the count
REP_TIMEOUT_S = 120
TAIL_LADDER = (50, 90, 95, 99, 99.9)


def spawn(args: argparse.Namespace, rep: int, trace: int = 0, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable,
        REP,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--rep", str(rep),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times_ms: list) -> tuple:
    """Highest ladder percentile with at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    best = None
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            best = (q, ordered[min(n - 1, int(n * q / 100))])
    return best


def end_to_end(args, reps: list) -> dict:
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, len(setups), setup_only=True)["setup_s"])
    op_ms = [t * 1000 for r in reps for t in r["op_s"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_ms) / sum(r["wall_s"] for r in reps),
        "op_p50_ms": statistics.median(op_ms),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }
    found = tail(op_ms)
    if found:
        print(f"op_tail_ms p{found[0]} = {found[1]:.4f} ms over {len(op_ms)} ops", file=sys.stderr)
    else:
        print(f"op_tail_ms: {len(op_ms)} ops, too few for a tail percentile", file=sys.stderr)
    return values


def per_layer(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    values["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in untraced)
    return values


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "nilstab", "__init__.py")):
        print("run.py: no source tree at src/nilstab; run from a repository checkout", file=sys.stderr)
        return 2

    # Start another repetition (or untraced + traced pair) only while it is
    # expected to end within --seconds, judged by the last one's length.
    start = time.monotonic()
    untraced, traced = [], []
    rep, last = 0, 0.0
    while rep < (1 if args.trace else MIN_REPS) or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        untraced.append(spawn(args, rep))
        if args.trace:
            traced.append(spawn(args, rep, trace=1))
        last = time.monotonic() - began
        rep += 1

    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(untraced, traced)
        self_test = [f for r in traced for f in r["self_test_failures"]]
        for line in sorted({s for r in traced for s in r["self_test_skipped"]}):
            print(f"self-test skipped: {line}", file=sys.stderr)
        for line in self_test:
            print(f"self-test FAILED: {line}", file=sys.stderr)
        print(f"self-test: {'FAILED' if self_test else 'passed'}", file=sys.stderr)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(args, untraced)
        self_test = []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload:10} {name:40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(
        f"{args.workload:10} {'failed_frac':40} {failed / attempted:>14.6g} ({failed}/{attempted} ops)",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0 and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
