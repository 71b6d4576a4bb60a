"""gmono benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload atoms-oracle --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from the
checkout's ``src``.  With --trace 0 the last line of standard output holds
the end-to-end metrics (ops_per_s, op_p50_ms, op_tail_ms, setup_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of a traced
run, and the spans go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("atoms-oracle", "continuous-quad", "table-chains")
SETUP_SAMPLES = 5  # fresh processes timed to the first operation; the run's own is one
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def host_loop_ms() -> float:
    """CPU time of a fixed pure-Python loop: tells host drift from a
    regression, since it runs no gmono code."""
    start = time.process_time()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return 1000.0 * (time.process_time() - start)


def spawn(role: str, args, env, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_ms(durations) -> tuple:
    """The highest percentile with at least ten operations beyond it, in
    ms, and that percentile.  Below forty operations there is no such
    tail; the maximum stands in for it (short test runs only)."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - 11 if n >= 40 else n - 1
    return 1000.0 * ordered[rank], 100.0 * (rank + 1) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "gmono" / "__init__.py").is_file():
        print("perfbench: no src/gmono next to perfbench/; run from a gmono checkout",
              file=sys.stderr)
        return 2

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    loop_ms = host_loop_ms()
    # Set-up samples: half before the timed run, half after, so that their
    # median does not rest on one stretch of host load.
    extra_setups = 0 if args.trace else SETUP_SAMPLES - 1
    setup = lambda: spawn("setup", args, env)["setup_s"]
    try:
        setups = [setup() for _ in range(extra_setups // 2)]
        extra = ("--trace-out", str(out_dir / f"trace-{stem}.json")) if args.trace else ()
        res = spawn("run", args, env, extra)
        setups += [setup() for _ in range(extra_setups - extra_setups // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["metrics"]
    else:
        setups.append(res["setup_s"])
        durations = res["durations_s"]
        done = res["attempted"] - len(res["errors"])
        tail, pct = tail_ms(durations)
        metrics = {
            "ops_per_s": {"value": done / sum(durations), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(durations), "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    detail = {**summary, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "host_loop_ms": loop_ms,
              "loop_wall_s": sum(res["durations_s"]), "loop_cpu_s": res["loop_cpu_s"],
              "import_ms": res["import_ms"], "modules_loaded": res["modules_loaded"],
              "tracing_loaded": res["tracing_loaded"],
              "errors": res["errors"], "wrong": res["wrong"]}
    if not args.trace:
        detail.update(tail_percentile=pct, setup_samples_s=setups,
                      durations_ms=[round(1000.0 * d, 3) for d in durations])
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for line in res["errors"] + res["wrong"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: host loop {loop_ms:.1f} ms, import {res['import_ms']:.0f} ms",
          file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
