"""Differential tests of the one-pass spectrum engine against the two-pass one.

The reference below is the earlier engine, kept here only: it collects one
representative per chord-direction class first, then builds the full
parallel cover for every class.  The production engine counts each class
from its chords in the same scan and builds partitions only as witnesses,
so counts, witness partitions and stab spectra must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from dircover.geometry import Direction, Point, dual_point_to_line
from dircover.polygon import PolygonConfig, choose_rotation, instantiate_polygon
from dircover.spectrum import LinePartition, spectrum, stab_spectrum


def two_pass_directions(pts):
    if all(isinstance(p.x, Fraction) and isinstance(p.y, Fraction) for p in pts):
        seen = {}
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                seen.setdefault(Direction.between(pts[i], pts[j]))
        return list(seen)
    reps = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = Direction.between(pts[i], pts[j])
            if all(not d.parallel_to(r) for r in reps):
                reps.append(d)
    return reps


def two_pass_partition(pts, direction):
    groups = {}
    for p in pts:
        groups.setdefault(p.x * direction.dy - p.y * direction.dx, []).append(p)
    return LinePartition(direction, tuple(tuple(g) for g in groups.values()))


def two_pass_generic(dirs):
    t = 0
    while any(Direction(Fraction(1), Fraction(t)).parallel_to(d) for d in dirs):
        t += 1
    return Direction(Fraction(1), Fraction(t))


def two_pass_spectrum(pts):
    witnesses = {}
    dirs = two_pass_directions(pts) if len(pts) >= 2 else []
    for d in dirs:
        part = two_pass_partition(pts, d)
        witnesses.setdefault(len(part.groups), part)
    if len(pts) not in witnesses:
        witnesses[len(pts)] = LinePartition(
            two_pass_generic(dirs), tuple((p,) for p in pts), generic=True
        )
    return witnesses, len({p.x for p in pts})


def two_pass_stab(lines):
    duals = [Point(line.a, line.b) for line in lines]
    counts = {len(lines)}
    if len(duals) >= 2:
        for d in two_pass_directions(duals):
            if not d.is_vertical:
                counts.add(len(two_pass_partition(duals, d).groups))
    return frozenset(counts)


def random_sets():
    rng = random.Random(20220713)
    sets = []
    for size in range(2, 31):
        for bound in (3, 40):
            rows = {}
            while len(rows) < size:
                x, y = (Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(2))
                rows.setdefault(Point(x, y))
            sets.append(pytest.param(list(rows), id=f"random{size}-b{bound}"))
    return sets


LATTICE = [Point(x, y) for x in range(8) for y in range(8)]
random.Random(8).shuffle(LATTICE)


def polygons():
    out = []
    for n in (7, 8, 12, 13):
        for center in (False, True):
            cfg = PolygonConfig(n, center)
            pts = instantiate_polygon(cfg, choose_rotation(cfg))
            out.append(pytest.param(pts, id=f"polygon{n}{'c' if center else ''}"))
    return out


@pytest.mark.parametrize("pts", random_sets() + [pytest.param(LATTICE, id="lattice8")] + polygons())
def test_agrees_with_two_pass_engine(pts):
    witnesses, vertical = two_pass_spectrum(pts)
    rep = spectrum(pts)
    assert rep.counts == frozenset(witnesses)
    assert dict(rep.witnesses) == witnesses
    assert rep.vertical_count == vertical
    lines = [dual_point_to_line(p) for p in pts]
    assert stab_spectrum(lines) == two_pass_stab(lines)
