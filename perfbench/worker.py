"""One benchmark process: import, generate inputs, warm up, run, check.

Started by run.py, never by hand.  With --role setup the process stops at
the point where the first timed operation would start and reports only
how long it took to get there; with --role run it goes on through the
timed operations and reports their durations and the checks' outcome.

The set-up clock starts in the parent, just before this process is
spawned (--t0, a time.monotonic() reading, which is system-wide on Linux),
so setup_s covers interpreter start, ``import gmono.cli``, input
generation and the warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    # The library under test is the checkout's own source tree, imported
    # before anything else so that import_ms counts numpy and scipy too.
    sys.path.insert(0, str(ROOT / "src"))
    before = len(sys.modules)
    start = time.perf_counter()
    import gmono.cli  # noqa: F401

    import_ms = 1000.0 * (time.perf_counter() - start)
    modules_loaded = len(sys.modules) - before
    import gmono

    if Path(gmono.__file__).resolve().parent != ROOT / "src" / "gmono":
        print(f"gmono imported from {gmono.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import workloads

    w = workloads.WORKLOADS[args.workload]
    ops = w.ops(args.seed, args.seconds)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    wrong = []  # outputs that failed a check
    for op in w.warmup():
        wrong += [f"warm-up {op.kind}: {p}" for p in op.check(op.args, op.run(op.args))]
    setup_s = time.monotonic() - args.t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    durations = []
    cpu_start = time.process_time()
    errors = []  # operations that raised
    known_fault = 0
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            out = tracer.op(i, op.run, op.args) if tracer else op.run(op.args)
        except Exception as exc:  # counted as a failed operation, and reported
            durations.append(time.perf_counter() - t)
            errors.append(f"op {i} ({op.kind}) raised {type(exc).__name__}: {exc}")
            continue
        durations.append(time.perf_counter() - t)
        found = op.check(op.args, out)
        if found and op.known_fault:
            known_fault += 1
        else:
            wrong += [f"op {i} ({op.kind}): {p}" for p in found]

    # CPU time of the loop, checks included: set beside the wall-clock
    # durations, it shows how much of a slow run was the host.
    cpu_s = time.process_time() - cpu_start
    result = {
        "setup_s": setup_s,
        "loop_cpu_s": cpu_s,
        "durations_s": durations,
        "attempted": len(ops),
        "failed": len(errors) + known_fault,
        "correct": not wrong,
        "errors": errors[:20],
        "wrong": wrong[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_ms": import_ms,
        "modules_loaded": modules_loaded,
        "tracing_loaded": "tracing" in sys.modules,
    }
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.metrics(import_ms, modules_loaded)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "metrics": result["metrics"], **tracer.summary()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
