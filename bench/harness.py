"""Pieces shared by the timed and the traced run: the checkout, the
host-speed probe, child processes, the tally of operations, the cover
reference's self-test and the workload set-up."""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from reference import cover_counts, stab_counts
from speed_probe import SPEED_PERIOD_S
from workloads import WORKLOADS, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 150.0

# The 2-core virtual machine this benchmark was tuned on runs a process up
# to 2x slower in phases that last from a fraction of a second to minutes,
# set by load outside it, and only on the CPU the process runs on.  So a
# probe process (speed_probe.py) runs on the benchmark's CPU for the whole
# run and samples the CPU time of a small fixed loop every few tens of
# milliseconds.  An interval is scaled by the ratio of SPEED_REF_S, the
# loop's time on that machine at full speed, to the mean of the samples
# taken while the interval ran, so scaled times read in seconds of that
# machine at full speed.  Being a process of its own, with its collector
# off, the probe shares no interpreter, heap or collection with the
# program it scales, only the CPU.
SPEED_REF_S = 0.00047
PROBE_START_S = 10.0


class SpeedProbe:
    """The probe process and the samples it has written so far."""

    def __init__(self) -> None:
        self.path: Path | None = None
        self.samples: list[tuple[float, float]] = []  # (monotonic start, seconds)
        self._offset = 0

    @contextlib.contextmanager
    def running(self, path: Path):
        """Run the probe, writing to ``path``, for the ``with`` block; waits for its first sample."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
        self.path, self.samples, self._offset = path, [], 0
        proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("speed_probe.py")), str(path)])
        try:
            deadline = time.monotonic() + PROBE_START_S
            while not self._read():
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the speed probe gave no sample")
                time.sleep(0.01)
            yield
        finally:
            proc.kill()
            proc.wait()
            self.path = None

    def _read(self) -> list[tuple[float, float]]:
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            chunk = f.read()
        done = chunk[: chunk.rfind(b"\n") + 1]
        self._offset += len(done)
        fresh = [tuple(map(float, line.split())) for line in done.decode().splitlines()]
        self.samples += fresh
        return fresh

    def during(self, start: float, end: float) -> list[float]:
        """Samples begun while [start, end] ran, or from one period before it;
        failing those, the first sample after it."""
        self._read()
        inside = [s for at, s in self.samples if start - SPEED_PERIOD_S <= at <= end]
        deadline = time.monotonic() + PROBE_START_S
        while not inside:
            if time.monotonic() > deadline:
                raise RuntimeError("the speed probe stopped sampling")
            time.sleep(0.01)
            inside = [s for at, s in self._read() if at >= start]
        return inside


PROBE = SpeedProbe()


class HostSpeed:
    """The host's speed while the ``with`` block it guards runs."""

    def __enter__(self) -> "HostSpeed":
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.monotonic()

    def scale(self, seconds: float) -> float:
        """The length of an interval timed inside the block, at the reference speed."""
        return seconds * SPEED_REF_S / statistics.mean(PROBE.during(self.start, self.end))


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Timed:
    op: Op
    outcome: Outcome
    wall_s: float
    scaled_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DS_PRECISION_BITS", None)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[Outcome, float, float]:
    """Run one child to its end; returns its outcome, wall time and peak RSS.

    Output goes to files so that the parent can reap the child with wait4,
    which also yields the child's own resource usage.  A watchdog kills a
    child that outlives OP_TIMEOUT_S.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )
    return outcome, wall, usage.ru_maxrss / 1024.0


def run_op(op: Op, cwd: Path) -> Timed:
    if op.prepare:
        op.prepare()
    with HostSpeed() as speed:
        outcome, wall, rss = run_child(["-m", "dircover.cli", *op.argv], cwd)
    return Timed(op, outcome, wall, speed.scale(wall), rss)


class Tally:
    """Operations attempted and failed, and the reasons behind wrong outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        problem = op.check(outcome)
        if problem is None:
            return
        if op.known_fault:
            self.failed += 1
        else:
            self.problems.append(f"{' '.join(op.argv)}: {problem}")


def reference_self_test(seed: int) -> list[str]:
    """The cover reference must reproduce the unit square and agree with dircover's oracle."""
    sys.path.insert(0, str(ROOT / "src"))
    from dircover.geometry import Point
    from dircover.oracle import oracle_spectrum

    problems = []
    square = [(Fraction(x), Fraction(y)) for x in (0, 1) for y in (0, 1)]
    if cover_counts(square) != {2, 3, 4}:
        problems.append(f"reference gives {sorted(cover_counts(square))} for the unit square")
    rng = random.Random(seed)
    for _ in range(40):
        rows: dict[tuple[Fraction, Fraction], None] = {}
        size = rng.randint(2, 8)
        while len(rows) < size:
            rows.setdefault(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2)))
        rows = list(rows)
        oracle = oracle_spectrum([Point(x, y) for x, y in rows])
        if cover_counts(rows) != oracle:
            problems.append(f"reference {sorted(cover_counts(rows))} != oracle {sorted(oracle)} for {rows}")
        # With distinct x-coordinates there are no vertical chords to skip.
        if len({x for x, _ in rows}) == size and stab_counts(rows) != oracle:
            problems.append(f"stab reference {sorted(stab_counts(rows))} != oracle {sorted(oracle)} for {rows}")
    return problems


def set_up(name: str, work: Path, seed: int) -> tuple[object, float, float]:
    """Make the workload's inputs afresh and what its checks expect; returns
    those and the set-up time, unscaled and scaled.

    The set-up time covers writing the input files and one
    ``dircover --help`` child, which compiles and caches dircover's bytecode
    that a fresh checkout would otherwise charge to the first timed
    operation, so work that the program moves into start-up shows in it.
    The expected outputs are computed after, untimed.
    """
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name]
    with HostSpeed() as speed:
        start = time.perf_counter()
        written = workload.setup(work, seed)
        outcome, _, _ = run_child(["-m", "dircover.cli", "--help"], work)
        took = time.perf_counter() - start
    if outcome.code != 0:
        raise RuntimeError(f"dircover.cli does not start: {outcome.stderr.strip()[-300:]}")
    return workload.expect(written), took, speed.scale(took)
