"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload evolve_flow --seeds 1-10 --seconds 30 [--out runs.jsonl]

Prints, per metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median), the
figures that decide whether the benchmark is steady enough for its bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append each result line here")
    args = parser.parse_args()

    rows = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        if args.out:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **row}) + "\n")
        print(f"seed {seed}: correct={row['correct']} failed={row['failed']}/{row['attempted']}",
              file=sys.stderr)

    print(f"{args.workload}: {len(rows)} runs, all correct: {all(r['correct'] for r in rows)}")
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        unit = rows[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<44} median {med:12.6g} {unit:<5} q1 {q1:10.6g} q3 {q3:10.6g}"
              f"  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
