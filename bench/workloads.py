"""The three workloads: their seeded inputs, the CLI operations of one round, and
the check each operation's output must pass.

A round is a fixed list of operations, so every run attempts whole rounds of
the same operations and the share of failed ones never depends on the seed
or on the run length.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from reference import bundle_stab_counts, cover_counts, parse_pairs, polygon_stab_counts, stab_counts


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI invocation, run in the workload's directory.

    ``check`` returns None when the output is right and a reason otherwise.
    For a ``known_fault`` operation a reason counts the operation as failed
    instead of marking the run incorrect.
    """

    command: str
    argv: list[str]
    check: Callable[[Outcome], Optional[str]]
    prepare: Optional[Callable[[], None]] = None
    known_fault: bool = False


def _line(out: Outcome, prefix: str) -> Optional[str]:
    for line in out.stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    return None


def _expect(out: Outcome, code: int, lines: dict[str, str]) -> Optional[str]:
    if out.code != code:
        return f"exit {out.code}, expected {code}: {out.stderr.strip()[-200:]}"
    for prefix, want in lines.items():
        got = _line(out, prefix)
        if got != want:
            return f"{prefix!r} reads {got!r}, expected {want!r}"
    return None


def _spaced(counts) -> str:
    return " ".join(map(str, sorted(counts)))


# --- certify ---------------------------------------------------------------

# Even n run in Q(zeta_n) with phi(n) <= 16; odd n in Q(zeta_4n) with phi 40-60.
CERTIFY_SIZES = (24, 31, 48)
TAMPERED_SIZE = 24
CONTROL_SIZE = 7


@dataclass
class CertifyInputs:
    tamper_pair: tuple[int, int]


def certify_setup(work: Path, seed: int) -> CertifyInputs:
    work.mkdir(parents=True)
    i, j = random.Random(seed).sample(range(TAMPERED_SIZE), 2)
    return CertifyInputs((i, j))


def _check_counterexample(n: int, path: Path) -> Callable[[Outcome], Optional[str]]:
    want = polygon_stab_counts(n)

    def check(out: Outcome) -> Optional[str]:
        problem = _expect(
            out,
            0,
            {
                "stab spectrum:": _spaced(want),
                f"forbidden {[n - 2, n - 1]} hit:": "none",
                "certificate:": "pass",
            },
        )
        if problem:
            return problem
        try:
            got = bundle_stab_counts(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"bundle {path.name}: {exc}"
        if got != want:
            return f"bundle {path.name} evaluates to stab counts {sorted(got)}, expected {sorted(want)}"
        return None

    return check


def _check_verify(n: int) -> Callable[[Outcome], Optional[str]]:
    lines = {
        "pairwise non-parallel:": "ok",
        "non-concurrent:": "ok",
        "stab spectrum:": _spaced(polygon_stab_counts(n)),
        f"forbidden {[n - 2, n - 1]} hit:": "none",
        "verdict:": "pass",
    }
    return lambda out: _expect(out, 0, lines)


def _tamper(work: Path, pair: tuple[int, int]) -> Callable[[], None]:
    def prepare() -> None:
        doc = json.loads((work / f"b{TAMPERED_SIZE}.json").read_text(encoding="utf-8"))
        i, j = pair
        doc["lines"][j]["a"] = doc["lines"][i]["a"]
        (work / "tampered.json").write_text(json.dumps(doc), encoding="utf-8")

    return prepare


def _check_tampered(out: Outcome) -> Optional[str]:
    problem = _expect(out, 1, {"verdict:": "fail"})
    if problem is None and not (_line(out, "pairwise non-parallel:") or "").startswith("FAIL"):
        problem = "the shared slope of the tampered bundle is not reported"
    return problem


def _check_missing_dir(out: Outcome) -> Optional[str]:
    if out.code != 2 or "Traceback" in out.stderr:
        return f"exit {out.code} (expected 2 without a traceback)"
    return None


def certify_round(work: Path, inputs: CertifyInputs) -> list[Op]:
    ops = []
    for n in CERTIFY_SIZES:
        bundle = f"b{n}.json"
        ops.append(
            Op(
                "counterexample",
                ["counterexample", "--n", str(n), "--out", bundle],
                _check_counterexample(n, work / bundle),
            )
        )
        ops.append(Op("verify", ["verify", bundle], _check_verify(n)))
    n = CONTROL_SIZE
    ops.append(
        Op(
            "counterexample",
            ["counterexample", "--n", str(n), "--variant", "center"],
            lambda out: _expect(out, 1, {f"forbidden {[n - 2, n - 1]} hit:": str(n - 2), "certificate:": "fail"}),
        )
    )
    ops.append(Op("verify", ["verify", "tampered.json"], _check_tampered, prepare=_tamper(work, inputs.tamper_pair)))
    ops.append(
        Op(
            "counterexample",
            ["counterexample", "--n", str(n), "--out", "no-such-dir/b.json"],
            _check_missing_dir,
            known_fault=True,
        )
    )
    return ops


# --- cover -----------------------------------------------------------------

COVER_RANDOM_SIZES = (50, 70)
COVER_LATTICE_SIDE = 12
COORDINATE_BOUND = 50


@dataclass
class CoverFile:
    name: str
    rows: int
    vertical: int
    spectrum: frozenset[int]
    stab: frozenset[int]


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _random_rows(rng: random.Random, size: int) -> list[tuple[Fraction, Fraction]]:
    def coord() -> Fraction:
        return Fraction(rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND), rng.randint(1, COORDINATE_BOUND))

    rows: dict[tuple[Fraction, Fraction], None] = {}
    while len(rows) < size:
        rows.setdefault((coord(), coord()))
    return list(rows)


def cover_setup(work: Path, seed: int) -> list[tuple[str, str]]:
    """Write random rational files and a shuffled integer lattice; returns each file's name and text."""
    work.mkdir(parents=True)
    rng = random.Random(seed)
    sets = [(f"random{size}", _random_rows(rng, size)) for size in COVER_RANDOM_SIZES]
    side = range(COVER_LATTICE_SIDE)
    lattice = [(Fraction(x), Fraction(y)) for x in side for y in side]
    rng.shuffle(lattice)
    sets.append((f"lattice{COVER_LATTICE_SIDE}", lattice))
    written = []
    for name, rows in sets:
        text = "".join(f"{_fmt(x)} {_fmt(y)}\n" for x, y in rows)
        (work / f"{name}.txt").write_text(text, encoding="utf-8")
        written.append((f"{name}.txt", text))
    return written


def cover_expect(written: list[tuple[str, str]]) -> list[CoverFile]:
    """What each file must give read as points and as lines, from the integer reference."""
    files = []
    for name, text in written:
        parsed = parse_pairs(text)
        files.append(
            CoverFile(
                name=name,
                rows=len(parsed),
                vertical=len({x for x, _ in parsed}),
                spectrum=cover_counts(parsed),
                stab=stab_counts(parsed),
            )
        )
    return files


def cover_round(work: Path, files: list[CoverFile]) -> list[Op]:
    ops = []
    for f in files:
        ops.append(
            Op(
                "spectrum",
                ["spectrum", f.name],
                lambda out, f=f: _expect(
                    out,
                    0,
                    {"points:": str(f.rows), "counts:": _spaced(f.spectrum), "vertical classes:": str(f.vertical)},
                ),
            )
        )
        ops.append(
            Op(
                "stab",
                ["stab", f.name],
                lambda out, f=f: _expect(out, 0, {"lines:": str(f.rows), "stab counts:": _spaced(f.stab)}),
            )
        )
    return ops


# --- checks ----------------------------------------------------------------

# Passes each suite reports at its default trial count; duality adds one
# engineered incident pair per ten random pairs.
CHECK_PASSES = {"pinchasi": 1000, "oracle": 200, "affine": 100, "duality": 11000}


def checks_setup(work: Path, seed: int) -> int:
    work.mkdir(parents=True)
    return seed


def _check_suite(passes: int) -> Callable[[Outcome], Optional[str]]:
    def check(out: Outcome) -> Optional[str]:
        lines = out.stdout.strip().splitlines()
        last = lines[-1] if lines else ""
        fields = dict(tok.split("=", 1) for tok in last.split()[1:] if "=" in tok)
        if out.code != 0 or not last.startswith("RESULT ") or fields.get("pass") != str(passes) or fields.get("fail") != "0":
            return f"exit {out.code}, {last!r} (expected pass={passes} fail=0)"
        return None

    return check


def checks_round(work: Path, seed: int) -> list[Op]:
    return [
        Op("check", ["check", suite, "--seed", str(seed)], _check_suite(passes))
        for suite, passes in CHECK_PASSES.items()
    ]


def _as_written(inputs):
    return inputs


@dataclass(frozen=True)
class Workload:
    """``setup`` writes a workload's inputs from the seed, ``expect`` turns
    what it wrote into what the round's checks need, and ``round`` lists the
    round's operations."""

    setup: Callable[[Path, int], object]
    expect: Callable[[object], object]
    round: Callable[[Path, object], list[Op]]


WORKLOADS = {
    "certify": Workload(certify_setup, _as_written, certify_round),
    "cover": Workload(cover_setup, cover_expect, cover_round),
    "checks": Workload(checks_setup, _as_written, checks_round),
}
