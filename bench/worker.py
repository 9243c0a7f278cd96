"""One workload process of the qgeo benchmark; bench/run.py starts it.

    python3 bench/worker.py {setup,run,trace} --workload NAME --seed N [--seconds S]

``setup`` imports qgeo and builds the inputs, ``run`` adds the timed closed
loop (and starts ``setup`` processes between its ops), ``trace`` the traced
run. Times are probed and rescaled to a reference speed (speed.py). The
last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the process's first statement

import speed  # noqa: E402  (first, so that the set-up is probed from here on)

if __name__ == "__main__":
    PROBE = speed.Probe()
    SETUP = PROBE.section().start(T0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qgeo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_PERCENTILE = 80   # over all ops; needs >= 50 for ten samples beyond it
TRACE_PASSES = 3       # untraced/traced pairs over the fixed trace op list
SETUP_SAMPLES = 10     # fresh set-up processes spread evenly over the timed run


class Ledger:
    """Attempted ops and failures by exception or check name."""

    def __init__(self, workload: workloads.Workload, tol, probe: speed.Probe) -> None:
        self.workload = workload
        self.tol = tol
        self.probe = probe
        self.attempted = 0
        self.failures: Counter = Counter()

    def attempt(self, inp) -> speed.Section:
        """Run one op, check its output, and return the op's timing."""
        self.attempted += 1
        raised = None
        with self.probe.section() as timing:
            try:
                out = self.workload.op(inp, self.tol)
            except qgeo.QGeoError as exc:
                raised = type(exc).__name__
        if raised is not None:
            self.failures[raised] += 1
            return timing
        problem = self.workload.check(inp, out, self.tol)
        if problem is not None:
            self.failures[f"check:{problem}"] += 1
        return timing

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": sum(self.failures.values()),
                "failures": dict(self.failures)}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (import qgeo, build the inputs) at the
    reference speed."""
    proc = subprocess.run([sys.executable, __file__, "setup", "--workload", workload,
                           "--seed", str(seed)],
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(ledger: Ledger, pool: list, seconds: float, between) -> tuple:
    """Closed loop with one client over whole passes of the input pool, until
    the ops have taken ``seconds`` in total, so every run covers the same
    inputs whatever its speed. Checks, and ``between()`` every
    ``seconds / SETUP_SAMPLES`` of op time, run between ops and are not
    timed. Successive passes run pinned to successive CPUs of the process's
    set, so that each input is sampled on every CPU. Returns the latencies
    as measured and at the reference speed, one row per pass."""
    cpus = sorted(os.sched_getaffinity(0))
    raw: list[list[float]] = []
    ref: list[list[float]] = []
    busy = next_sample = 0.0
    while busy < seconds:
        os.sched_setaffinity(0, {cpus[len(raw) % len(cpus)]})
        raw.append([])
        ref.append([])
        for inp in pool:
            timing = ledger.attempt(inp)
            raw[-1].append(timing.raw_s)
            ref[-1].append(timing.ref_s)
            busy += timing.raw_s
            if busy >= next_sample:
                between()
                next_sample += seconds / SETUP_SAMPLES
    return np.array(raw), np.array(ref)


def run(ledger: Ledger, pool: list, args: argparse.Namespace, setup_s: float) -> dict:
    """Times are at the reference speed (see speed.py). Rescaled, an
    input's fastest pass is mostly one whose probes happened to read slow,
    so the steady figures are medians: each input's latency is its median
    over the passes, and set-up time the median of this process's own and
    of fresh processes started during the run."""
    setups = [setup_s]
    raw, ref = timed_passes(ledger, pool, args.seconds,
                            lambda: setups.append(setup_sample(args.workload, args.seed)))
    per_input = np.median(ref, axis=0)
    return {
        "setup_s": float(np.median(setups)),
        "setups": len(setups),
        "ops": ref.size,
        "passes": len(ref),
        "pool": len(pool),
        "ops_per_s": len(pool) / float(per_input.sum()),
        "op_p50_ms": float(np.median(per_input)) * 1e3,
        "op_tail_ms": float(np.percentile(ref, TAIL_PERCENTILE)) * 1e3,
        "tail_percentile": TAIL_PERCENTILE,
        "raw_ops_per_s": len(pool) / float(raw.min(axis=0).sum()),
    }


def trace(ledger: Ledger, inputs: list, workload: str, seed: int) -> dict:
    """Run each op of the fixed list without, then with, the wrappers, so
    both timings of an op see the same machine state."""
    op_list = inputs[:ledger.workload.trace_ops]
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for p in range(TRACE_PASSES):
        for k, inp in enumerate(op_list):
            untraced += ledger.attempt(inp).ref_s
            tracer.op = p * len(op_list) + k
            with tracing.installed(tracer):
                traced += ledger.attempt(inp).ref_s
    tracer.write(ROOT / ".bench_out" / f"spans_{workload}_seed{seed}.csv.gz")
    ops = TRACE_PASSES * len(op_list)
    return {"ops": ops, "metrics": tracer.metrics(ops, traced, untraced)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    loaded_from = Path(qgeo.__file__).resolve().parent
    if loaded_from != ROOT / "src" / "qgeo":
        print(f"qgeo imported from {loaded_from}, not from this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tol = qgeo.default_tolerances()
    inputs = workload.make(args.seed, tol)
    SETUP.stop()
    result = {"setup_s": SETUP.ref_s, "setup_raw_s": SETUP.raw_s}
    if args.mode != "setup":
        result["env"] = environment()
        ledger = Ledger(workload, tol, PROBE)
        for inp in inputs[:workload.warmup]:  # warm-up: checked, not timed
            ledger.attempt(inp)
        if args.mode == "run":
            result.update(run(ledger, inputs, args, result["setup_s"]))
        else:
            result.update(trace(ledger, inputs, args.workload, args.seed))
        result.update(ledger.summary())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
