"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. Two traced runs with one seed report identical ``.calls`` counts, for
   every workload.
2. Correct outputs pass the checks, while a deliberately wrong output and an
   op that raises are each counted as a failed op without stopping the run.

Prints one line per check and exits 0 only if all of them hold.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent

import speed  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402
import qgeo  # noqa: E402
import qgeo.verify  # noqa: E402

SEED = 7


def traced_calls(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def failures(workload: str, n_ops: int) -> dict:
    tol = qgeo.default_tolerances()
    wl = workloads.WORKLOADS[workload]
    ledger = worker.Ledger(wl, tol, speed.Probe())
    for inp in wl.make(SEED, tol)[:n_ops]:
        ledger.attempt(inp)
    return dict(ledger.failures)


def main() -> int:
    ok = True

    def report(name: str, passed: bool, detail: object) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")

    for workload in workloads.WORKLOADS:
        first, second = traced_calls(workload), traced_calls(workload)
        report(f"{workload} traced .calls repeat", first == second and bool(first),
               f"{len(first)} counts, e.g. linalg.check_hermitian.calls="
               f"{first.get('linalg.check_hermitian.calls')}")

    for workload in workloads.WORKLOADS:
        got = failures(workload, 2)
        report(f"{workload} correct outputs pass", got == {}, got)

    real_decomposition = qgeo.decomposition

    def wrong_decomposition(*args, **kwargs):
        rep = real_decomposition(*args, **kwargs)
        return dataclasses.replace(rep, combined_bound=rep.combined_bound + 1.0)

    with mock.patch.object(qgeo, "decomposition", wrong_decomposition):
        got = failures("bounds_pairs", 3)
    report("bounds_pairs wrong combined bound counted", got == {"check:combined_is_max": 3}, got)

    real_evolve = qgeo.evolve

    def wrong_evolve(*args, **kwargs):
        res = real_evolve(*args, **kwargs)
        shifted = {k: v + 1e-3 for k, v in res.expectations.items()}
        return dataclasses.replace(res, expectations=shifted)

    with mock.patch.object(qgeo, "evolve", wrong_evolve):
        got = failures("evolve_flow", 2)
    report("evolve_flow wrong expectation counted", got == {"check:final_expectation": 2}, got)

    def raising_run_all(cfg):
        raise qgeo.SpectrumDrift("injected")

    with mock.patch.object(qgeo.verify, "run_all", raising_run_all):
        got = failures("verify_campaign", 2)
    report("verify_campaign raising campaign counted", got == {"SpectrumDrift": 2}, got)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
