"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 bench/repeat.py [--workloads certify,cover,checks] [--seeds 1-10] [--trace 0]

For every workload it runs ``bench/run.py`` once per seed, one run at a
time, each run as long as ``run_seconds`` in BENCHMARK.json, and prints each metric's median, first and third quartiles and their
spread as a share of the median (``statistics.quantiles(values, n=4)``),
together with the operations attempted and failed and whether every run
was correct.  Runs print their own lines to stderr as they finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = str(json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="certify,cover,checks")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", RUN_SECONDS, "--trace", args.trace]
            done = subprocess.run(argv, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results.append(result)
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"== {workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"attempted {attempted}, failed {failed} (per run {', '.join(shares)})")
        print(f"{'metric':42} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print(f"{key:42} {first['unit']:6} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
