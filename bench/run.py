"""Benchmark of qgeo's public API: closed-loop workloads with one client.

    python3 bench/run.py --workload bounds_pairs --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository (it imports qgeo from ``src/``). With
``--trace 0`` it prints the end-to-end metrics of one timed run, with times
rescaled to a reference machine speed (bench/speed.py); its set-up time is
the median of several fresh processes. With
``--trace 1`` it prints the per-layer metrics of a separate traced run and
writes its spans to ``.bench_out/``. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.

Every workload process is pinned to one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bounds_pairs", "evolve_flow", "verify_campaign")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "wall_s": "s", "peak_rss_mb": "MB"}
# Printed but left out of the JSON metrics, so it carries no regression
# bound: the mean campaign time is 1 / ops_per_s, which is gated already.
PRINTED_ONLY = ("wall_s",)


def time_limit(seconds: float) -> float:
    """Limit on the whole invocation, workers included: the timed run may
    overrun ``seconds`` by up to one pass over its inputs, and its checks and
    set-up probes are not counted in ``seconds``."""
    return 90.0 + 2.0 * seconds


class BenchError(Exception):
    pass


def worker(mode: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker exceeded the time limit of "
                         f"{time_limit(args.seconds):g} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    res = worker("run", args, deadline)
    values = {name: res[name] for name in ("setup_s", "ops_per_s", "op_p50_ms",
                                          "op_tail_ms", "peak_rss_mb")}
    if args.workload == "verify_campaign":
        values["wall_s"] = 1.0 / res["ops_per_s"]
    each = f"{res['pool']} inputs, each the median of {res['passes']} passes"
    notes = {
        "setup_s": f"median of {res['setups']} fresh processes spread over the run",
        "ops_per_s": f"{each}; as measured: {res['raw_ops_per_s']:.6g} 1/s, each input "
                     f"at its fastest",
        "op_p50_ms": each,
        "op_tail_ms": f"p{res['tail_percentile']} of all {res['ops']} ops, "
                      f"{res['ops'] - int(res['ops'] * res['tail_percentile'] / 100)} beyond",
        "wall_s": "mean campaign time, 1 / ops_per_s",
    }
    for name in UNITS:
        if name in values:
            print(f"  {name:<12} {values[name]:12.6g} {UNITS[name]:<4} {notes.get(name, '')}")
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items() if name not in PRINTED_ONLY}
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qgeo" / "__init__.py").is_file():
        print(f"no qgeo sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + time_limit(args.seconds)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            res = worker("trace", args, deadline)
            metrics = res["metrics"]
            print(f"  traced {res['ops']} ops; spans in "
                  f".bench_out/spans_{args.workload}_seed{args.seed}.csv.gz")
        else:
            res, metrics = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    failed, attempted = res["failed"], res["attempted"]
    print(f"  {'failed_frac':<12} {failed / attempted:12.6g} {'':<4} "
          f"{failed} of {attempted} ops {res['failures'] or ''}")
    print("env " + json.dumps(res["env"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
