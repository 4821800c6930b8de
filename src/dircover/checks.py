"""Randomized property-check suites behind the ``check`` CLI subcommands.

Each suite runs seeded trials, collects pass/fail/skip counts, and renders
a line-oriented plain-text report ending in a machine-readable summary
``RESULT pass=<int> fail=<int> skip=<int>``.  A failure here indicates an
implementation bug, never new mathematics.  :data:`SUITES` maps each suite's
name to its function; a suite's keyword defaults are the CLI's defaults.
"""

from __future__ import annotations

import random

from .geometry import Point, affine_apply, dual_point_to_line, incident
from .oracle import MAX_ORACLE_POINTS, oracle_spectrum
from .randgen import _rationals, random_invertible_map, random_point_set
from .spectrum import pair_directions


class CheckReport:
    """A suite's pass, fail and skip counters and report lines, updated as its trials run."""

    def __init__(self, name: str):
        self.name = name
        self.passed = self.failed = self.skipped = 0
        self.lines: list[str] = []

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


def duality_check(seed: int, trials: int = 10000, bound: int = 50) -> CheckReport:
    """incident(p, dual(q)) must equal incident(q, dual(p)) for all pairs.

    Random generic pairs are almost never incident, so an extra batch of
    engineered coincidences (the defining equality forced to hold exactly),
    one per ten random pairs, exercises the true branch as well.
    """
    rng = random.Random(seed)
    engineered = max(1, trials // 10)
    rep = CheckReport("duality")
    draws = _rationals(rng, bound, 4 * trials)
    for px, py, qx, qy in zip(draws, draws, draws, draws):
        p, q = Point(px, py), Point(qx, qy)
        if incident(p, dual_point_to_line(q)) == incident(q, dual_point_to_line(p)):
            rep.passed += 1
        else:
            rep.fail(f"asymmetric incidence for p={p} q={q}")
    draws = _rationals(rng, bound, 3 * engineered)
    for a, b, x in zip(draws, draws, draws):
        q = Point(a, b)
        p = Point(x, -(a * x + b))
        if incident(p, dual_point_to_line(q)) and incident(q, dual_point_to_line(p)):
            rep.passed += 1
        else:
            rep.fail(f"engineered incidence not symmetric for p={p} q={q}")
    rep.note(f"{trials} random pairs + {engineered} engineered incident pairs")
    return rep


def pinchasi_check(seed: int, trials: int = 1000, bound: int = 50) -> CheckReport:
    """max(I(Q) \\ {n}) >= floor((n+1)/2) for non-collinear n-point sets.

    The trials are spread over the sizes n = 3..12: each size checks
    trials // 10 sets, the first trials % 10 sizes one more, and size n
    draws from random.Random(seed + n).  Collinear draws are skipped (the
    bound presumes non-collinearity) and each size notes how many it skipped.

    I(Q) is read as {n} and the class counts of
    :func:`spectrum.pair_directions`, which for distinct points (as
    random_point_set draws them) is exactly ``spectrum(pts).counts``; no
    Direction or witness is built here.
    """
    rep = CheckReport("pinchasi")
    base, extra = divmod(trials, 10)
    for n in range(3, 13):
        quota = base + (n - 3 < extra)
        if quota == 0:
            continue
        rng = random.Random(seed + n)
        least = (n + 1) // 2
        checked = rejected = 0
        while checked < quota:
            if checked + rejected >= 200 * quota + 1000:
                raise RuntimeError("collinear rejection rate implausibly high")
            pts = random_point_set(rng, n, bound)
            counts = {n, *pair_directions(pts).values()}
            # three or more points are collinear iff one line covers them all: 1 in I(Q)
            if 1 in counts:
                rejected += 1
                continue
            checked += 1
            achieved = max(counts - {n})
            if achieved >= least:
                rep.passed += 1
            else:
                rep.fail(f"max(I(Q) minus n) = {achieved} < {least} for {pts}")
        rep.skipped += rejected
        rep.note(f"size={n} bound={least} collinear_rejected={rejected}")
    return rep


def affine_check(seed: int, trials: int = 100, size: int = 6, bound: int = 50) -> CheckReport:
    """Spectra are invariant under random invertible affine maps.

    A spectrum is read as {size} and the class counts of
    :func:`spectrum.pair_directions`, as in :func:`pinchasi_check`; no
    witness partition is built.  A wrong translation leaves spectra alone, so
    the image of a trial's first point must also equal m @ p + t, computed here.
    """
    rng = random.Random(seed)
    rep = CheckReport("affine")
    for _ in range(trials):
        pts = random_point_set(rng, size, bound)
        amap = random_invertible_map(rng, bound)
        image = affine_apply(amap, pts)
        (m00, m01), (m10, m11) = amap.m
        (tx, ty), p = amap.t, pts[0]
        if image[0] != Point(m00 * p.x + m01 * p.y + tx, m10 * p.x + m11 * p.y + ty):
            rep.fail(f"image {image[0]} of {p} under {amap} is not m @ p + t")
        elif {size, *pair_directions(pts).values()} == {size, *pair_directions(image).values()}:
            rep.passed += 1
        else:
            rep.fail(f"spectrum changed under {amap} for {pts}")
    rep.note(f"{trials} (set, map) pairs of size {size}")
    return rep


def oracle_check(seed: int, trials: int = 200, size: int = 6, bound: int = 50) -> CheckReport:
    """The engine agrees with the independent brute-force oracle on small sets.

    The engine's spectrum is read as {n} and the class counts of
    :func:`spectrum.pair_directions`, as in :func:`pinchasi_check`; no
    witness partition is built.
    """
    rng = random.Random(seed)
    rep = CheckReport("oracle")
    cap = min(size, MAX_ORACLE_POINTS - 2)
    for _ in range(trials):
        pts = random_point_set(rng, rng.randint(2, max(2, cap)), bound)
        if {len(pts), *pair_directions(pts).values()} == oracle_spectrum(pts):
            rep.passed += 1
        else:
            rep.fail(f"engine vs oracle mismatch for {pts}")
    rep.note(f"{trials} sets of 2..{max(2, cap)} points")
    return rep


SUITES = {
    "duality": duality_check,
    "pinchasi": pinchasi_check,
    "affine": affine_check,
    "oracle": oracle_check,
}
