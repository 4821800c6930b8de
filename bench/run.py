"""dircover benchmark: times the CLI on one workload and checks every output.

    python3 bench/run.py --workload certify|cover|checks --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/``.  With ``--trace 0`` it sets the inputs up several times,
then runs as many whole rounds of CLI commands as fit in ``--seconds``, one
child process at a time, and reports the end-to-end metrics, with times
scaled to a reference host speed sampled by a probe process that runs
beside it (see harness.HostSpeed).  With ``--trace 1`` it runs the same
operations in-process with every public dircover function wrapped, and
reports per-layer metrics (see trace_layers.py).  The last line of stdout is the JSON result; scratch
files live under ``.bench_work/`` in the checkout and are removed at exit.
See README.md for the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from harness import PROBE, ROOT, Tally, Timed, pin_to_one_cpu, reference_self_test, run_op, set_up
from workloads import WORKLOADS

SETUP_REPEATS = 11


def timed_run(name: str, work: Path, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    tally = Tally()
    setups, unscaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        inputs, took, scaled = set_up(name, work, seed)
        unscaled_setups.append(took)
        setups.append(scaled)
    if name == "cover":
        tally.problems += reference_self_test(seed)

    # Whole rounds, as many as fit in the time given (at least one).
    rounds: list[list[Timed]] = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        done = []
        for op in WORKLOADS[name].round(work, inputs):
            timed = run_op(op, work)
            tally.record(op, timed.outcome)
            done.append(timed)
        rounds.append(done)

    def per_round(pick) -> float:
        return statistics.median(sum(pick(t) for t in r) for r in rounds)

    metrics = {
        "wall_s": (per_round(lambda t: t.scaled_s), "s"),
        "peak_rss_mb": (max(t.rss_mb for r in rounds for t in r), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = [
        f"rounds {len(rounds)}, operations per round {len(rounds[0])}",
        f"unscaled wall_s {per_round(lambda t: t.wall_s):.4f} s",
        f"unscaled setup_s {statistics.median(unscaled_setups):.4f} s",
    ]
    for command in dict.fromkeys(t.op.command for t in rounds[0]):
        spent = per_round(lambda t: t.scaled_s if t.op.command == command else 0.0)
        notes.append(f"{command}_s {spent:.4f} s")
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dircover" / "cli.py").is_file():
        print(f"error: no dircover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work = run_dir / "inputs"
    try:
        with PROBE.running(run_dir / "speed.txt"):
            if args.trace:
                from trace_layers import traced_run

                metrics, tally, notes = traced_run(args.workload, work, args.seed)
            else:
                metrics, tally, notes = timed_run(args.workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for note in notes:
        print(note)
    for problem in tally.problems[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"attempted {tally.attempted}, failed {tally.failed}, wrong outputs {len(tally.problems)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
