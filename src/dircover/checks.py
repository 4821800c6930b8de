"""Randomized property-check suites behind the ``check`` CLI subcommands.

Each suite runs seeded trials, collects pass/fail/skip counts, and renders
a line-oriented plain-text report ending in a machine-readable summary
``RESULT pass=<int> fail=<int> skip=<int>``.  A failure here indicates an
implementation bug, never new mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Point, affine_apply, collinear, dual_point_to_line, incident
from .oracle import MAX_ORACLE_POINTS, oracle_spectrum
from .randgen import (
    RandomConfig,
    make_rng,
    random_invertible_map,
    random_point,
    random_point_set,
    random_rational,
)
from .spectrum import spectrum


@dataclass
class CheckReport:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, text: str) -> None:
        self.failed += 1
        self.lines.append(f"FAIL {text}")

    def summary(self) -> str:
        return f"RESULT pass={self.passed} fail={self.failed} skip={self.skipped}"

    def render(self) -> str:
        return "\n".join([f"check {self.name}", *self.lines, self.summary()])

    def merge(self, other: "CheckReport") -> None:
        self.passed += other.passed
        self.failed += other.failed
        self.skipped += other.skipped
        self.lines.extend(other.lines)


def duality_check(cfg: RandomConfig) -> CheckReport:
    """incident(p, dual(q)) must equal incident(q, dual(p)) for all pairs.

    Random generic pairs are almost never incident, so an extra batch of
    engineered coincidences (the defining equality forced to hold exactly),
    one per ten random pairs, exercises the true branch as well.
    """
    rng = make_rng(cfg)
    engineered = max(1, cfg.count // 10)
    rep = CheckReport("duality")
    bound = cfg.coordinate_bound
    for _ in range(cfg.count):
        p = random_point(rng, bound)
        q = random_point(rng, bound)
        if incident(p, dual_point_to_line(q)) == incident(q, dual_point_to_line(p)):
            rep.passed += 1
        else:
            rep.fail(f"asymmetric incidence for p={p} q={q}")
    for _ in range(engineered):
        a = random_rational(rng, bound)
        b = random_rational(rng, bound)
        x = random_rational(rng, bound)
        q = Point(a, b)
        p = Point(x, -(a * x + b))
        if incident(p, dual_point_to_line(q)) and incident(q, dual_point_to_line(p)):
            rep.passed += 1
        else:
            rep.fail(f"engineered incidence not symmetric for p={p} q={q}")
    rep.note(f"{cfg.count} random pairs + {engineered} engineered incident pairs")
    return rep


def _all_collinear(pts: list[Point]) -> bool:
    return all(collinear(pts[0], pts[1], p) for p in pts[2:])


def pinchasi_check(cfg: RandomConfig) -> CheckReport:
    """max(I(Q) \\ {n}) >= floor((n+1)/2) for non-collinear n-point sets.

    Collinear draws are skipped (the bound presumes non-collinearity) and the
    rejection rate is reported; generation continues until ``cfg.count``
    non-collinear sets have been checked.
    """
    if cfg.size < 3:
        raise ValueError("the bound needs at least 3 points per set")
    rng = make_rng(cfg)
    rep = CheckReport("pinchasi")
    bound = (cfg.size + 1) // 2
    attempts = 0
    while rep.passed + rep.failed < cfg.count:
        attempts += 1
        if attempts > 200 * cfg.count + 1000:
            raise RuntimeError("collinear rejection rate implausibly high")
        pts = random_point_set(rng, cfg.size, cfg.coordinate_bound)
        if _all_collinear(pts):
            rep.skipped += 1
            continue
        counts = spectrum(pts).counts
        achieved = max(counts - {cfg.size})
        if achieved >= bound:
            rep.passed += 1
        else:
            rep.fail(f"max(I(Q) minus n) = {achieved} < {bound} for {pts}")
    rep.note(f"size={cfg.size} bound={bound} collinear_rejected={rep.skipped}")
    return rep


def affine_check(cfg: RandomConfig) -> CheckReport:
    """Spectra are invariant under random invertible affine maps."""
    rng = make_rng(cfg)
    rep = CheckReport("affine")
    for _ in range(cfg.count):
        pts = random_point_set(rng, cfg.size, cfg.coordinate_bound)
        amap = random_invertible_map(rng, cfg.coordinate_bound)
        image = affine_apply(amap, pts)
        if spectrum(pts).counts == spectrum(image).counts:
            rep.passed += 1
        else:
            rep.fail(f"spectrum changed under {amap} for {pts}")
    rep.note(f"{cfg.count} (set, map) pairs of size {cfg.size}")
    return rep


def oracle_check(cfg: RandomConfig) -> CheckReport:
    """The engine agrees with the independent brute-force oracle on small sets."""
    rng = make_rng(cfg)
    rep = CheckReport("oracle")
    cap = min(cfg.size, MAX_ORACLE_POINTS - 2)
    for _ in range(cfg.count):
        size = rng.randint(2, max(2, cap))
        pts = random_point_set(rng, size, cfg.coordinate_bound)
        if spectrum(pts).counts == oracle_spectrum(pts):
            rep.passed += 1
        else:
            rep.fail(f"engine vs oracle mismatch for {pts}")
    rep.note(f"{cfg.count} sets of 2..{max(2, cap)} points")
    return rep
