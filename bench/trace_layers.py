"""Per-layer metrics from a traced, in-process pass over the workloads.

The benchmark wraps dircover's functions from outside the program: every
public module-level function becomes a span (name, start, end, parent and
the operation it belongs to), except the leaf predicates and helpers in
LEAVES, which are only counted so that their time stays in their caller's
self time.  A layer's self time is its spans' duration minus the time of
the spans nested directly inside them.

A traced run makes one pass over the rounds of all three workloads, so that
every layer metric is measured whatever the workload, and it times the
selected workload's round untraced before and after the pass; the
difference is the tracing overhead.  Times are scaled to the reference host
speed (see harness.HostSpeed) operation by operation, as in a timed run,
and so are the self times accrued during each operation.  A reported layer
metric that is missing or not above 0 marks the run incorrect.  The spans
are written to ``.bench_work/trace-<workload>.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from harness import ROOT, HostSpeed, Tally, reference_self_test, run_child, set_up
from workloads import WORKLOADS, Op, Outcome

MODULES = ("field", "geometry", "spectrum", "polygon", "counterexample", "fileio", "oracle", "randgen", "checks", "cli")
LEAVES = {
    "field": {"parse_rational", "format_rational", "euler_phi", "zeta"},
    "geometry": {"cross", "incident", "parallel", "collinear", "dual_point_to_line", "dual_line_to_point"},
    "polygon": {"chord_class", "polygon_direction_count", "rotation_parameters"},
    "randgen": {"make_rng", "random_rational", "random_point"},
}
# Methods traced under a layer name: (module, class, attribute, metric name, spanned).
METHODS = (
    ("geometry", "Direction", "between", "geometry.direction_between", True),
    ("geometry", "Direction", "parallel_to", "geometry.parallel_to", False),
    ("field", "CycloElement", "__mul__", "field.mul", False),
    ("field", "CycloElement", "__rmul__", "field.mul", False),
)
# Field multiply microbenchmarks: polygon size n, whose coordinates live in Q(zeta_m).
MUL_FIELDS = {"m24": 24, "m100": 25, "m140": 35}

REPORTED = (
    ("field.mul_us.m24", "us"),
    ("field.mul_us.m100", "us"),
    ("field.mul_us.m140", "us"),
    ("field.mul.calls", "count"),
    ("geometry.parallel_to.calls", "count"),
    ("geometry.direction_between.calls", "count"),
    ("geometry.direction_between.self_s", "s"),
    ("geometry.ensure_distinct_points.calls", "count"),
    ("geometry.ensure_distinct_points.self_s", "s"),
    ("geometry.concurrent_family.self_s", "s"),
    ("spectrum.pair_directions.self_s", "s"),
    ("spectrum.pair_directions.calls", "count"),
    ("spectrum.pair_directions.classes", "count"),
    ("spectrum.lines_in_direction.self_s", "s"),
    ("spectrum.lines_in_direction.calls", "count"),
    ("spectrum.generic_direction.self_s", "s"),
    ("spectrum.vertical_class_count.self_s", "s"),
    ("polygon.choose_rotation.self_s", "s"),
    ("polygon.instantiate_polygon.calls", "count"),
    ("counterexample.verify.self_s", "s"),
    ("counterexample.read_bundle.self_s", "s"),
    ("counterexample.write_bundle.self_s", "s"),
    ("counterexample.approximate_lines.self_s", "s"),
    ("fileio.parse_points.self_s", "s"),
    ("fileio.parse_lines.self_s", "s"),
    ("oracle.oracle_spectrum.self_s", "s"),
    ("oracle.oracle_spectrum.calls", "count"),
    ("randgen.random_point_set.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Spans and counters for wrapped functions, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, root id, name, start, end)
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.scaled_self_s: defaultdict[str, float] = defaultdict(float)
        self.classes = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []  # [span id, seconds spent in child spans]
        self._root = 0
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        if root:
            self._root = sid
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            took = end - start
            self.self_s[name] += took - frame[1]
            self.calls[name] += 1
            if parent is not None:
                parent[1] += took
            self.spans.append((sid, parent[0] if parent else 0, self._root, name, start, end))

    def spanned(self, name: str, fn):
        span = self.span
        if name == "spectrum.pair_directions":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    result = fn(*args, **kwargs)
                self.classes += len(result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap dircover's functions everywhere a module refers to them."""
        wrapped = {}
        for layer in MODULES:
            mod = importlib.import_module(f"dircover.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    leaf = attr in LEAVES.get(layer, ()) or inspect.isgeneratorfunction(fn)
                    wrapped[id(fn)] = self.counted(name, fn) if leaf else self.spanned(name, fn)
        for mod in [m for key, m in sys.modules.items() if key == "dircover" or key.startswith("dircover.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        for layer, cls_name, attr, name, spanned in METHODS:
            cls = getattr(importlib.import_module(f"dircover.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            fn = self.spanned(name, fn) if spanned else self.counted(name, fn)
            self._set(cls, attr, classmethod(fn) if isinstance(raw, classmethod) else fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path, origin: float) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "columns": ["id", "parent", "root", "name", "start_us", "end_us"],
            "names": names,
            "spans": [
                [sid, parent, root, index[name], round((start - origin) * 1e6), round((end - origin) * 1e6)]
                for sid, parent, root, name, start, end in self.spans
            ],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def run_in_process(op: Op) -> Outcome:
    """Run one CLI operation through ``dircover.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["dircover.cli"].main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print before exiting with 1
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue())


def run_round(name: str, work: Path, inputs, tally: Tally, tracer: Tracer | None = None) -> float:
    """One round in-process; returns the time spent inside the operations,
    each scaled by the host's speed while it ran, as in a timed run.  With a
    tracer, each operation's self times are scaled the same way."""
    spent = 0.0
    here = os.getcwd()
    os.chdir(work)
    try:
        for op in WORKLOADS[name].round(work, inputs):
            if op.prepare:
                op.prepare()
            before = dict(tracer.self_s) if tracer else {}
            with HostSpeed() as speed:
                start = time.perf_counter()
                if tracer is None:
                    outcome = run_in_process(op)
                else:
                    with tracer.span(f"op.{name}.{op.command}", root=True):
                        outcome = run_in_process(op)
                took = time.perf_counter() - start
            spent += speed.scale(took)
            if tracer:
                factor = speed.scale(1.0)
                for key, value in tracer.self_s.items():
                    tracer.scaled_self_s[key] += (value - before.get(key, 0.0)) * factor
            tally.record(op, outcome)
    finally:
        os.chdir(here)
    return spent


def mul_microseconds(n: int) -> float:
    """Median time of one multiply of two coordinates of the regular n-gon."""
    from dircover.polygon import PolygonConfig, RationalRotation, instantiate_polygon

    pts = instantiate_polygon(PolygonConfig(n), RationalRotation.from_parameter(Fraction(1, 2)))
    pairs = [(p.x, q.y) for p in pts[:8] for q in pts[-8:]]

    def per_multiply(reps: int) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            for a, b in pairs:
                a * b
        return (time.perf_counter() - start) / (reps * len(pairs))

    reps = 1
    while per_multiply(reps) * reps * len(pairs) < 0.05:
        reps *= 2
    return statistics.median(per_multiply(reps) for _ in range(7)) * 1e6


def cli_import_seconds(work: Path) -> float:
    """Import time of dircover.cli in a fresh interpreter, less a bare interpreter's start."""
    bare, full = [], []
    for _ in range(5):
        for argv, into in ((["-c", "pass"], bare), (["-c", "import dircover.cli"], full)):
            with HostSpeed() as speed:
                outcome, wall, _ = run_child(argv, work)
            if outcome.code != 0:
                raise RuntimeError(f"python {' '.join(argv)} failed: {outcome.stderr.strip()[-300:]}")
            into.append(speed.scale(wall))
    return statistics.median(full) - statistics.median(bare)


def traced_run(selected: str, work: Path, seed: int) -> tuple[dict, Tally, list[str]]:
    os.environ.pop("DS_PRECISION_BITS", None)
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("dircover.cli")
    tally = Tally()
    tally.problems += reference_self_test(seed)
    inputs = {name: set_up(name, work / name, seed)[0] for name in WORKLOADS}

    def untraced_round() -> float:
        return run_round(selected, work / selected, inputs[selected], tally)

    before = untraced_round()
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced = {name: run_round(name, work / name, inputs[name], tally, tracer) for name in WORKLOADS}
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_work" / f"trace-{selected}.json", origin)
    # Untraced rounds before and after the traced pass, so that drift and
    # warm-up weigh on both sides of the overhead alike.
    after = untraced_round()
    untraced = (before + after) / 2

    values = {}
    for key, n in MUL_FIELDS.items():
        with HostSpeed() as mul_speed:
            took = mul_microseconds(n)
        values[f"field.mul_us.{key}"] = mul_speed.scale(took)
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
    for name, spent in tracer.scaled_self_s.items():
        values[f"{name}.self_s"] = spent
    values["spectrum.pair_directions.classes"] = tracer.classes
    values["cli.import_s"] = cli_import_seconds(work)
    overhead = traced[selected] - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / untraced
    # A layer that was not traced or never ran would read 0, which looks
    # like a gain; it marks the run incorrect instead.
    for key, _ in REPORTED:
        if key not in values:
            tally.problems.append(f"layer metric {key} was not measured")
        elif not key.startswith("trace.") and values[key] <= 0:
            tally.problems.append(f"layer metric {key} reads {values[key]}")
    metrics = {key: (values.get(key, 0), unit) for key, unit in REPORTED}
    notes = [f"traced pass {sum(traced.values()):.3f} s over {', '.join(traced)}; {len(tracer.spans)} spans"]
    notes += [
        f"untraced {selected} round {untraced:.4f} s (before {before:.4f}, after {after:.4f}),"
        f" traced {traced[selected]:.4f} s"
    ]
    return metrics, tally, notes
