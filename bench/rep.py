"""One repetition of a workload, in a fresh interpreter started by run.py.

    python3 bench/rep.py --workload NAME --seed N --rep I --trace 0|1 --spawned-at T

Builds the repetition's inputs (set-up), runs its operations in order (the
timed phase), then checks every output.  With `--trace 1` the layer wrappers
record the timed phase only.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)

FAILED = object()  # output slot of an operation that raised


def run_ops(ops, tracer):
    """The timed phase: each operation's output and its time in seconds."""
    outputs, times = [], []
    if tracer is not None:
        tracer.start()
    start = time.perf_counter()
    for i, (kind, run, _) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, kind)
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:  # an operation that raises counts as failed; keep going
            traceback.print_exc()
            out = FAILED
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        outputs.append(out)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    return outputs, times, wall


def count_failures(ops, outputs) -> int:
    failed = 0
    for (kind, _, check), out in zip(ops, outputs):
        try:
            ok = out is not FAILED and check(out)
        except Exception:  # a check that raises is a failed output
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"output check failed: {kind}", file=sys.stderr)
            failed += 1
    return failed


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ops = workloads.build(args.workload, args.seed, args.rep)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outputs, times, wall = run_ops(ops, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        wall_s=wall,
        op_s=times,
        peak_rss_mib=peak_rss_mib,
        attempted=len(ops),
        failed=count_failures(ops, outputs),
    )
    if tracer is not None:
        failures, skipped = tracer.self_test(args.workload)
        result.update(layers=tracer.metrics(), self_test_failures=failures, self_test_skipped=skipped)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
