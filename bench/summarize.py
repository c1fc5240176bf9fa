"""Repeat bench/run.py over seeds and print each metric's median and quartiles.

    python3 bench/summarize.py --workloads pipeline,linear --seeds 1-10

Without --workloads it runs all four.  The spread column is
(q3 - q1) / median, the figure BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="pipeline,completion,linear,enumerate")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds.start}-"
              f"{args.seeds.stop - 1}, {attempted} operations, {failed} failed, "
              f"correct {correct}\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {first['unit']} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {spread:.3f} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
