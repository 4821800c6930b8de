"""Differential tests of the one-pass engines against the earlier ones.

The spectrum reference below is the earlier engine, kept here only: it
collects one representative per chord-direction class first, then builds
the full parallel cover for every class.  The production engine counts each
class from its chords in the same scan and builds partitions only as
witnesses, so every class in order, its count, the witness partitions and
the stab spectra must agree exactly.

For cyclotomic input the production scan buckets chords by their slope
modulo a prime and runs the exact parallelism test only within a bucket.
The reference compares every chord with every class, so agreement on large
polygons, on chords parallel to within 10**-30, on coordinates with
30-digit denominators, on a prime the scan must skip and with every chord
forced into one bucket shows that the buckets only ever skip tests that
would have said "not parallel".  The gap scan of ``float_crosscheck``, kept
in ``tests/support.py``, is compared with its earlier double loop.

Inside a bucket the production scan tests chords on packed integers, and
keeps the field test (``Direction.parallel_to``) only for points whose
coefficients pass its gate.  Both paths, forced past the gate either way,
must give the same classes on every corpus of this module, the rational
ones embedded in a cyclotomic field; random chord pairs of small polygons,
all in one bucket, must agree too.  On such pairs the folded cross product
F that the exactness proof bounds must stay inside the width the points
were packed at, and vanish exactly when the packed remainder modulo
Phi_m(2**k) does.  A packed test made to pass every chord (modulus 1)
must be caught by the field re-check of each class's first absorbed chord,
and ``verify`` must then end as an internal error, with no traceback.
Hostile bundles, a 32-digit rotation and 30-digit noise, take the field
path and verify within seconds.

Rational input runs on integer triples (X, Y, W), one per point.  The
two-pass reference keeps the earlier ``Fraction`` arithmetic (chord
directions by ``Direction.between``, cover keys by ``x*dy - y*dx``), so
agreement on sets with distinct 30-digit denominators, mixed integers and
fractions, vertical and horizontal chords and large negative coordinates
shows that the integer keys class and partition exactly as it does.  The
integer brute-force oracle is compared with a copy of its earlier
``Fraction`` form, kept here only.  The rational classing kernel's keys and
counts must match ``pair_directions``, the two-pass reference and the
oracle, and ``generic_direction``, which now takes (dx, dy) pairs, must pick
what its earlier form, a set of ``Direction`` objects kept here, picks, on
these corpora and on mixed rational and cyclotomic lists.

``AffineMap.apply`` computes a rational image coordinate on integer
numerators and denominators; its values must equal the scalar arithmetic
m00*x + m01*y + t it replaced, on random maps and points at bounds 1, 50
and 10**30, and a map or point with one cyclotomic scalar must keep that
scalar arithmetic.

The certificate references are the earlier O(n^2) slope scans of
``verify`` (its parallel witness) and of ``concurrent_family``; the
production code finds both from one pass over the slopes, so the witness
pair, the concurrency flag and the verdict must agree exactly.

The rotation reference is the earlier search of ``choose_rotation``: it
walks 0 and then the Calkin-Wilf enumeration of the positive rationals as
tangent half-angle parameters and takes the first rotation that gives the
configuration pairwise distinct x-coordinates.  The closed form must pick
the same rotation for every vertex count it is compared on.
"""

import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircover.counterexample import (
    CounterexampleBundle,
    construct,
    read_bundle,
    verify,
    write_bundle,
)
from dircover.cli import main
from dircover.errors import DegenerateInputError, OrderMismatchError
from dircover import geometry
from dircover.field import CycloElement, _real_bounds, cyclotomic_poly, euler_phi, residue_primes
from dircover.geometry import (
    AffineMap,
    Direction,
    NonVerticalLine,
    Point,
    affine_apply,
    collinear,
    concurrent_family,
    dual_line_to_point,
    dual_point_to_line,
    ensure_distinct_lines,
)
from dircover.oracle import MAX_ORACLE_POINTS, oracle_spectrum
from dircover.polygon import PolygonConfig, RationalRotation, choose_rotation, instantiate_polygon
from dircover.randgen import random_invertible_map, random_point_set
from dircover.spectrum import (
    LinePartition,
    _homogeneous,
    _rational_classes,
    generic_direction,
    pair_directions,
    spectrum,
    stab_spectrum,
)

from support import has_ambiguous_gap, zeta


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
    return LinePartition(direction, tuple(tuple(g) for g in groups.values()), False)


def two_pass_generic(dirs):
    t = 0
    while any(Direction(Fraction(1), Fraction(t)).parallel_to(d) for d in dirs):
        t += 1
    return Direction(Fraction(1), Fraction(t))


def two_pass_spectrum(pts, dirs=None):
    witnesses = {}
    if dirs is None:
        dirs = two_pass_directions(pts) if len(pts) >= 2 else []
    for d in dirs:
        part = two_pass_partition(pts, d)
        witnesses.setdefault(len(part.groups), part)
    if len(pts) not in witnesses:
        witnesses[len(pts)] = LinePartition(
            two_pass_generic(dirs), tuple((p,) for p in pts), generic=True
        )
    return witnesses, len({p.x for p in pts})


def two_pass_stab(lines, dirs=None):
    duals = [Point(line.a, line.b) for line in lines]
    counts = {len(lines)}
    if len(duals) >= 2:
        for d in two_pass_directions(duals) if dirs is None else dirs:
            if d.dx != 0:
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


def polygon(n, center=False):
    cfg = PolygonConfig(n, center)
    return instantiate_polygon(cfg, choose_rotation(cfg))


def polygons():
    return [
        pytest.param(polygon(n, center), id=f"polygon{n}{'c' if center else ''}")
        for n in (7, 8, 12, 13, 24, 31, 48)
        for center in (False, True)
    ]


def assert_agrees_with_reference(pts):
    """Every chord class and its count, spectrum, witnesses, vertical count and the dual stab spectrum."""
    dirs = two_pass_directions(pts)
    classes = pair_directions(pts)
    assert [Direction(dx, dy) for dx, dy in classes] == dirs
    assert list(classes.values()) == [len(two_pass_partition(pts, d).groups) for d in dirs]
    witnesses, vertical = two_pass_spectrum(pts, dirs)
    rep = spectrum(pts)
    assert rep.counts == frozenset(witnesses)
    assert dict(rep.witnesses) == witnesses
    assert rep.vertical_count == vertical
    lines = [dual_point_to_line(p) for p in pts]
    assert stab_spectrum(lines) == two_pass_stab(lines, dirs)
    return rep


@pytest.mark.parametrize("pts", random_sets() + [pytest.param(LATTICE, id="lattice8")] + polygons())
def test_agrees_with_two_pass_engine(pts):
    assert_agrees_with_reference(pts)


def distinct_rows(rng, size, coord):
    rows = {}
    while len(rows) < size:
        rows.setdefault(Point(coord(), coord()))
    return list(rows)


def rational_corpora():
    """Rational sets that stress the integer triples: wide, mixed, axis-parallel, far."""
    rng = random.Random(20221020)
    axis = [Fraction(k, 3) * 10**20 for k in range(-3, 4)]  # few values: many vertical and horizontal chords
    cases = []
    for size in (3, 12, 40):
        cases.append(pytest.param(
            distinct_rows(rng, size, lambda: Fraction(rng.randint(-10**30, 10**30), rng.randrange(10**29, 10**30))),
            id=f"den30-{size}",
        ))
        cases.append(pytest.param(
            distinct_rows(rng, size, lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 7, 10**30 + 1)))),
            id=f"mixed-{size}",
        ))
        cases.append(pytest.param(distinct_rows(rng, size, lambda: rng.choice(axis)), id=f"axis-{size}"))
        cases.append(pytest.param(
            distinct_rows(rng, size, lambda: Fraction(-(10**40) - rng.randint(0, 5), rng.randint(1, 4))),
            id=f"negative-{size}",
        ))
    return cases


@pytest.mark.parametrize("pts", rational_corpora())
def test_integer_kernel_agrees_on_rational_corpora(pts):
    assert_agrees_with_reference(pts)


@pytest.mark.parametrize("dup", [(0, 2), (1, 3)])
def test_zero_chord_is_a_degenerate_input(dup):
    pts = [Point(Fraction(1, 2), 3), Point(-5, Fraction(7, 3)), Point(0, 0), Point(10**30, 1)]
    pts[dup[1]] = pts[dup[0]]
    with pytest.raises(DegenerateInputError, match="zero direction"):
        pair_directions(pts)


def count_directions_built(monkeypatch):
    """Counts the Directions built through their one constructor, ``Direction.__init__``."""
    built = [0]
    init = Direction.__init__

    def counted_init(self, dx, dy):
        built[0] += 1
        init(self, dx, dy)

    monkeypatch.setattr(Direction, "__init__", counted_init)
    return built


def lattice12():
    pts = [Point(x, y) for x in range(12) for y in range(12)]
    random.Random(12).shuffle(pts)
    return pts


@pytest.mark.parametrize("which", ["lattice12", "random70"])
def test_one_direction_built_per_rational_class(which, monkeypatch):
    pts = lattice12() if which == "lattice12" else random_point_set(random.Random(70), 70, 50)
    built = count_directions_built(monkeypatch)
    classes = pair_directions(pts)
    assert built[0] == 0 < len(classes) < len(pts) * (len(pts) - 1) // 2  # rational classes stay keys
    built[0] = 0
    rep = spectrum(pts)
    assert built[0] == len(rep.witnesses)  # one per witness, the generic one included


def set_generic_direction(chord_dirs):
    """generic_direction as it was: rational Directions looked up in a set, the others tested exactly."""
    rational = {d for d in chord_dirs if not isinstance(d.dx, CycloElement)}
    others = [d for d in chord_dirs if isinstance(d.dx, CycloElement)]
    t = 0
    while True:
        cand = Direction(1, t)
        if cand not in rational and all(not cand.parallel_to(d) for d in others):
            return cand
        t += 1


RATIONAL_CORPORA = (
    random_sets()
    + rational_corpora()
    + [pytest.param(LATTICE, id="lattice8"), pytest.param(lattice12(), id="lattice12")]
)


@pytest.mark.parametrize("pts", RATIONAL_CORPORA)
def test_rational_kernel_counts_every_class(pts):
    # the kernel's keys and counts, in order, against pair_directions, the two-pass reference and the oracle
    classes = _rational_classes([_homogeneous(p) for p in pts])
    assert list(classes.items()) == list(pair_directions(pts).items())
    dirs = two_pass_directions(pts)
    assert list(classes.items()) == [((d.dx, d.dy), len(two_pass_partition(pts, d).groups)) for d in dirs]
    if len(pts) <= MAX_ORACLE_POINTS:
        assert {len(pts), *classes.values()} == oracle_spectrum(pts)
    assert generic_direction(classes) == set_generic_direction(dirs)


def mixed_direction_lists():
    """Rational and cyclotomic Directions in one list, some cyclotomic ones parallel to a (1, t)."""
    z = zeta(12)
    ruled = [Direction(1, t) for t in range(4)] + [Direction(z, 4 * z), Direction(z + 2, 5 * z + 10)]
    gapped = [Direction(2, 3), Direction(-1, 5), Direction(z, -z)] + [Direction(1, t) for t in (0, 1, 3)]
    embedded = [Direction(CycloElement.from_rational(12, 1), CycloElement.from_rational(12, t)) for t in range(3)]
    polygon12 = [Direction(*key) for key in pair_directions(polygon(12))] + [Direction(1, t) for t in range(-3, 3)]
    lattice_and_polygon = [Direction(*key) for pts in (lattice12(), polygon(12, True)) for key in pair_directions(pts)]
    return [
        pytest.param(ruled, id="ruled"),
        pytest.param(gapped, id="gapped"),
        pytest.param(embedded + [Direction(1, 3)], id="embedded"),
        pytest.param(polygon12, id="polygon12"),
        pytest.param(lattice_and_polygon, id="lattice12-polygon12c"),
    ]


@pytest.mark.parametrize("dirs", mixed_direction_lists())
def test_generic_direction_agrees_on_mixed_lists(dirs):
    cand = generic_direction([(d.dx, d.dy) for d in dirs])
    assert cand == set_generic_direction(dirs)
    assert not any(cand.parallel_to(d) for d in dirs)


def scalar_apply(amap, p):
    """AffineMap.apply as it was: m00*x + m01*y + tx and m10*x + m11*y + ty in the scalars' own arithmetic."""
    (m00, m01), (m10, m11) = amap.m
    tx, ty = amap.t
    return m00 * p.x + m01 * p.y + tx, m10 * p.x + m11 * p.y + ty


@pytest.mark.parametrize("bound", [1, 50, 10**30])
def test_rational_affine_images_agree_with_scalar_arithmetic(bound):
    # maps and points of ints and Fractions, negative ones included, every fourth map without translation
    rng = random.Random(bound)

    def scalar():
        n = rng.randint(-bound, bound)
        return n if rng.random() < 0.3 else Fraction(n, rng.randint(1, bound))

    images = 0
    for trial in range(300):
        (m00, m01), (m10, m11) = m = (scalar(), scalar()), (scalar(), scalar())
        if m00 * m11 == m01 * m10:
            continue
        amap = AffineMap(m, (0, 0) if trial % 4 == 0 else (scalar(), scalar()))
        for _ in range(3):
            p = Point(scalar(), scalar())
            image = amap.apply(p)
            assert (image.x, image.y) == scalar_apply(amap, p)
            for value in (image.x, image.y):
                n, d = value.as_integer_ratio()
                assert type(value) is Fraction and d > 0 and gcd(n, d) == 1
            images += 1
    assert images > 300


def test_cyclotomic_affine_images_take_the_field_path(monkeypatch):
    # one CycloElement among the eight scalars, in the translation, the matrix or the point, is enough
    def refuse(*args):
        raise AssertionError("a cyclotomic scalar took the rational path")

    monkeypatch.setattr(geometry, "_affine_row", refuse)
    z = zeta(12)
    rational = AffineMap(((2, Fraction(-1, 3)), (Fraction(5, 7), 1)), (Fraction(1, 2), -4))
    cases = [
        (AffineMap(rational.m, (Fraction(1, 2), z)), Point(Fraction(3, 5), -2)),
        (AffineMap(((2, z), (Fraction(5, 7), 1)), rational.t), Point(Fraction(3, 5), -2)),
        (rational, Point(Fraction(3, 5), z)),
        (rational, polygon(12)[1]),
    ]
    for amap, p in cases:
        image = amap.apply(p)
        assert (image.x, image.y) == scalar_apply(amap, p)
        assert type(image.x) is type(image.y) is CycloElement


def fraction_det3(ax, ay, bx, by, cx, cy):
    return (bx * cy - by * cx) - (ax * cy - ay * cx) + (ax * by - ay * bx)


def fraction_oracle(pts):
    """The brute-force oracle as it was on Fractions, before its integer scaling; ordered pairs."""
    counts = {len(pts)}
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            vx = pts[j].x - pts[i].x
            vy = pts[j].y - pts[i].y
            anchors = []
            for p in pts:
                for q in anchors:
                    if fraction_det3(q.x, q.y, q.x + vx, q.y + vy, p.x, p.y) == 0:
                        break
                else:
                    anchors.append(p)
            counts.add(len(anchors))
    return frozenset(counts)


@pytest.mark.parametrize("bound", [2, 3, 50, 10**30])
def test_integer_oracle_agrees_with_fraction_oracle(bound):
    rng = random.Random(bound)
    for _ in range(50):
        pts = random_point_set(rng, rng.randint(1, MAX_ORACLE_POINTS), bound)
        assert oracle_spectrum(pts) == fraction_oracle(pts)


def lattice_subsets(side):
    """Subsets of the side x side lattice of points (i/3, j/2): all of them, or 150 seeded ones past the oracle's cap."""
    grid = [Point(Fraction(i, 3), Fraction(j, 2)) for i in range(side) for j in range(side)]
    if len(grid) <= MAX_ORACLE_POINTS:
        return [[p for k, p in enumerate(grid) if mask >> k & 1] for mask in range(1, 1 << len(grid))]
    rng = random.Random(side)
    return [rng.sample(grid, rng.randint(1, MAX_ORACLE_POINTS)) for _ in range(150)]


@pytest.mark.parametrize("side", [3, 4])
def test_unordered_oracle_agrees_on_lattice_subsets(side):
    # Lattice chords are parallel in bulk, so each class is met from both ends (v and -v) many times.
    for pts in lattice_subsets(side):
        assert oracle_spectrum(pts) == fraction_oracle(pts)


def perturbed_polygon():
    # Moving one vertex by 10**-30 leaves its chords parallel to their old
    # classes as far as floats can tell; only the exact test splits them.
    pts = polygon(24)
    pts[5] = Point(pts[5].x + Fraction(1, 10**30), pts[5].y)
    return pts


def test_sub_float_perturbation_is_decided_exactly():
    pts = perturbed_polygon()
    rep = assert_agrees_with_reference(pts)
    assert len(pair_directions(pts)) > len(pair_directions(polygon(24)))
    assert rep.counts != spectrum(polygon(24)).counts


def scaled_polygon(scale):
    pts = [Point(p.x * scale, p.y * scale) for p in polygon(12, center=True)]
    pts.append(Point(scale * 3, scale / 7))  # a Fraction point in the cyclotomic list
    return pts


@pytest.mark.parametrize("scale", [Fraction(10**400), Fraction(1, 10**400)], ids=["huge", "tiny"])
def test_coordinates_beyond_float_range_fall_back_to_exact(scale):
    assert_agrees_with_reference(scaled_polygon(scale))


def count_parallel_tests(monkeypatch):
    calls = [0]
    exact = Direction.parallel_to

    def counted(self, other):
        calls[0] += 1
        return exact(self, other)

    monkeypatch.setattr(Direction, "parallel_to", counted)
    return calls


KERNEL = importlib.import_module("dircover.field")  # the module of the cyclotomic classing kernel
FIELD, PACKED = 0, 10**30  # gate budgets that force the field test and packing


def scan(pts, budget):
    """pair_directions' classes in order, with the packing gate at ``budget``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KERNEL, "_PACKED_BUDGET", budget)
        return list(pair_directions(pts).items())


def lifted(pts, order):
    """Each point's x, then its y, as an element of Q(zeta_order)."""
    return [c if isinstance(c, CycloElement) else CycloElement.from_rational(order, c) for p in pts for c in (p.x, p.y)]


def packs(pts):
    """Whether pair_directions packs these cyclotomic points at the module's own budget."""
    order = next(p.x.order for p in pts if isinstance(p.x, CycloElement))
    return KERNEL._packed_coordinates([(c._num, c._den) for c in lifted(pts, order)], order) is not None


@pytest.mark.parametrize("n, center", [(24, False), (31, True)])
def test_one_bucket_decides_every_pair_exactly(n, center, monkeypatch):
    pts = polygon(n, center)
    assert packs(pts)
    bucketed = list(pair_directions(pts).items())
    calls = count_parallel_tests(monkeypatch)
    monkeypatch.setattr(KERNEL, "_slope_key", lambda *_: lambda i, j: 0)
    assert list(pair_directions(pts).items()) == bucketed
    monkeypatch.setattr(KERNEL, "_PACKED_BUDGET", FIELD)
    calls[0] = 0
    assert list(pair_directions(pts).items()) == bucketed
    assert calls[0] > len(pts) * (len(pts) - 1) // 2


def skipped_prime_points(reason):
    """polygon(12) changed so that the first prime of its slope key must be skipped."""
    pts = polygon(12)
    p, w = next(residue_primes(pts[0].x.order))
    if reason == "denominator":
        pts[3] = Point(pts[3].x + Fraction(1, p), pts[3].y)
        assert pts[3].x._den % p == 0
    else:
        # The chord from pts[0] to a point congruent to it mod p maps to
        # (0, 0); it is parallel to the chord to a third point whose slope
        # mod p is 1, so keying under p would split one class in two.
        pts += [Point(pts[0].x + p, pts[0].y + p), Point(pts[0].x + 1, pts[0].y + 1)]
    return pts


@pytest.mark.parametrize("reason", ["denominator", "congruent"])
def test_prime_that_must_be_skipped(reason):
    assert_agrees_with_reference(skipped_prime_points(reason))


def thirty_digit_points(n):
    """polygon(n) with every coordinate moved by its own rational with a 30-digit denominator."""
    rng = random.Random(n)
    return [
        Point(*(s + Fraction(rng.randint(1, 9), rng.randrange(10**29, 10**30)) for s in (p.x, p.y)))
        for p in polygon(n)
    ]


@pytest.mark.parametrize("n", [12, 24])
def test_thirty_digit_denominators(n):
    assert_agrees_with_reference(thirty_digit_points(n))


def test_mixed_cyclotomic_orders_are_refused():
    pts = polygon(12)[:5] + polygon(7)[:2]
    assert {p.x.order for p in pts} == {12, 28}
    with pytest.raises(OrderMismatchError, match=r"orders \[12, 28\]"):
        spectrum(pts)
    with pytest.raises(OrderMismatchError, match=r"orders \[12, 28\]"):
        stab_spectrum([dual_point_to_line(p) for p in pts])


def test_exact_tests_at_most_one_per_chord(monkeypatch):
    pts = polygon(48)
    calls = count_parallel_tests(monkeypatch)
    classes = pair_directions(pts)
    assert calls[0] <= len(pts) * (len(pts) - 1) // 2 == 1128
    assert len(classes) == 48 and set(classes.values()) == {24, 25}


def rotated_polygon(n, digits):
    """The regular n-gon rotated by the half-angle parameter p/q, q a random ``digits``-digit integer."""
    rng = random.Random(digits)
    q = rng.randrange(10 ** (digits - 1), 10**digits)
    cfg, rotation = PolygonConfig(n), RationalRotation.from_parameter(Fraction(rng.randrange(1, q), q))
    return cfg, rotation, instantiate_polygon(cfg, rotation)


def noisy_lines(n, digits):
    """construct(n)'s lines with a + v + conj(v) for a, v = sum zeta**k / q_k over k < phi, q_k random d-digit ints."""
    rng = random.Random(digits)
    bundle = construct(n)
    m = bundle.field_order
    noisy = []
    for line in bundle.lines:
        qs = [rng.randrange(10 ** (digits - 1), 10**digits) for _ in line.a._num]
        v = sum((zeta(m, k) * Fraction(1, q) for k, q in enumerate(qs)), Fraction(0))
        noisy.append(NonVerticalLine(line.a + v + v.conjugate(), line.b))
    return bundle, tuple(noisy)


def hostile_bundle(which):
    """A real, valid n = 24 bundle past the gate: a 32-digit rotation, or 30-digit noise on every slope."""
    if which == "rotated32":
        cfg, rotation, pts = rotated_polygon(24, 32)
        return CounterexampleBundle(cfg, rotation, tuple(map(dual_point_to_line, pts)), None, ())
    bundle, lines = noisy_lines(24, 30)
    return CounterexampleBundle(bundle.config, bundle.rotation, lines, None, ())


def embedded(pts, order):
    """Rational points as points of Q(zeta_order), which the cyclotomic scan classes."""
    return [Point(CycloElement.from_rational(order, p.x), CycloElement.from_rational(order, p.y)) for p in pts]


def cyclotomic_corpora():
    """Every corpus of this module in the cyclotomic scan.

    The polygons, the special cyclotomic families and two past the gate as
    they are, and the rational corpora embedded in Q(zeta_5), where
    2*phi - 1 > m, or Q(zeta_12), taking turns.
    """
    rational = random_sets() + [pytest.param(LATTICE, id="lattice8")] + rational_corpora()
    orders = [(5, 12)[k % 2] for k in range(len(rational))]
    return (
        polygons()
        + [pytest.param(embedded(c.values[0], m), id=f"{c.id}-z{m}") for c, m in zip(rational, orders)]
        + [pytest.param(skipped_prime_points(r), id=f"skipped-{r}") for r in ("denominator", "congruent")]
        + [pytest.param(thirty_digit_points(n), id=f"den30-polygon{n}") for n in (12, 24)]
        + [pytest.param(scaled_polygon(Fraction(10**400)), id="huge")]
        + [pytest.param(scaled_polygon(Fraction(1, 10**400)), id="tiny")]
        + [pytest.param(perturbed_polygon(), id="perturbed24")]
        + [pytest.param(rotated_polygon(24, 32)[2], id="rotated24-d32")]
        + [pytest.param([dual_line_to_point(line) for line in noisy_lines(12, 30)[1]], id="noise12-d30")]
    )


@pytest.mark.parametrize("pts", cyclotomic_corpora())
def test_packed_scan_agrees_with_field_scan(pts):
    # Every class, its first chord and its count; forced past the gate both ways.
    assert scan(pts, PACKED) == scan(pts, FIELD)


@pytest.mark.parametrize("n", [24, 31, 48, 99])
def test_construct_takes_the_packed_scan(n, monkeypatch):
    # One field test per class that absorbs a chord: its first one.
    pts = [dual_line_to_point(line) for line in construct(n).lines]
    assert packs(pts)
    calls = count_parallel_tests(monkeypatch)
    classes = pair_directions(pts)
    assert calls[0] == sum(1 for c in classes.values() if n - c >= 2) > 0


def test_packed_test_that_disagrees_with_the_field_raises(monkeypatch):
    # Modulus 1 passes every chord as parallel to the first class in its one
    # bucket; the field re-check of that class's first absorbed chord refuses.
    true_packing = KERNEL._packed_coordinates
    monkeypatch.setattr(KERNEL, "_slope_key", lambda *_: lambda i, j: 0)
    monkeypatch.setattr(KERNEL, "_packed_coordinates", lambda *args: (*true_packing(*args)[:3], 1))
    with pytest.raises(ArithmeticError, match=r"packed parallel test at k = \d+ disagrees with the field"):
        pair_directions(polygon(12))


def test_packed_disagreement_ends_verify_as_an_internal_error(monkeypatch, tmp_path, capsys):
    # The same lie, reached through the CLI: main reports it, exit 1, no traceback, no report.
    path = tmp_path / "b24.json"
    write_bundle(construct(24), path)
    true_packing = KERNEL._packed_coordinates
    monkeypatch.setattr(KERNEL, "_slope_key", lambda *_: lambda i, j: 0)
    monkeypatch.setattr(KERNEL, "_packed_coordinates", lambda *args: (*true_packing(*args)[:3], 1))
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"internal error: packed parallel test at k = \d+ disagrees with the field\n", err)


def test_packed_width_is_exact_at_its_bound():
    # In Q(zeta_1) = Q the chords (1, 0), (0, b) and (-1, b) have cross
    # products b, b and b, and the bound is 2 * Hx * Hy = 2b.  For b = 2**j - 1
    # that makes k = j + 1, the least k with 2**k - 1 > 2b; at k = j the
    # modulus 2**j - 1 is b itself, and every pair would pass as parallel.
    b = 2**40 - 1
    pts = embedded([Point(0, 0), Point(1, 0), Point(0, b)], 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KERNEL, "_slope_key", lambda *_: lambda i, j: 0)
        classes = pair_directions(pts)
    assert [Direction(dx, dy) for dx, dy in classes] == two_pass_directions(pts)
    assert len(classes) == 3


@pytest.mark.parametrize("which, verdict", [("rotated32", 0), ("noise30", 1)])
def test_hostile_bundles_keep_the_field_scan(which, verdict, tmp_path):
    # Packing them anyway costs 2 to 4 times the field scan, and more as the digits grow.
    import dircover

    bundle = hostile_bundle(which)
    pts = [dual_line_to_point(line) for line in bundle.lines]
    assert not packs(pts)
    classes = pair_directions(pts)
    assert list(classes.items()) == scan(pts, PACKED)
    assert len(classes) == 24 if which == "rotated32" else set(classes.values()) == {23}
    path = tmp_path / f"{which}.json"
    write_bundle(bundle, path)
    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    start = time.perf_counter()
    argv = [sys.executable, "-m", "dircover.cli", "verify", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
    assert time.perf_counter() - start < 5
    assert done.returncode == verdict and "Traceback" not in done.stderr


def test_gate_refuses_tall_coordinates_before_taking_their_common_denominator():
    # 600 order-12 vectors, each a 3322-bit numerator over its own odd 3322-bit denominator: the
    # lcm of the denominators alone takes seconds, so the first pass must refuse without it.
    rng = random.Random(12)
    vectors = [((rng.getrandbits(3321) | 1 << 3321, 0, 0, 0), rng.getrandbits(3322) | 1) for _ in range(600)]
    start = time.perf_counter()
    assert KERNEL._packed_coordinates(vectors, 12) is None
    assert time.perf_counter() - start < 1


def affine_polygon(m):
    """(cos 2*pi*k/m, cos 2*pi*(k+1)/m) for k < m: an invertible linear image of the regular m-gon, in Q(zeta_m)."""
    c = [(zeta(m, k) + zeta(m, -k)) * Fraction(1, 2) for k in range(m + 1)]
    return [Point(c[k], c[k + 1]) for k in range(m)]


SMALL_POLYGONS = {5: affine_polygon(5), 12: polygon(12, center=True), 124: polygon(31)}


def chord_quadruples():
    """Four vertices of a small polygon under a random rational affine map.

    Chords (i, j) and (k, l) of a regular n-gon are parallel iff
    i + j = k + l mod n; half the draws pick l so.
    """

    @st.composite
    def draw(draw_):
        order = draw_(st.sampled_from(sorted(SMALL_POLYGONS)))
        pts, sides = SMALL_POLYGONS[order], {5: 5, 12: 12, 124: 31}[order]
        i, j, k = draw_(st.lists(st.integers(0, len(pts) - 1), min_size=3, max_size=3, unique=True))
        l = (i + j - k) % sides if draw_(st.booleans()) else draw_(st.integers(0, len(pts) - 1))
        if l in (i, j, k):
            l = next(x for x in range(len(pts)) if x not in (i, j, k))
        rng = random.Random(draw_(st.integers(0, 2**32)))
        amap = random_invertible_map(rng, draw_(st.sampled_from([1, 9, 10**6])))
        return order, affine_apply(amap, [pts[i], pts[j], pts[k], pts[l]])

    return draw()


@settings(max_examples=150, deadline=None)
@given(chord_quadruples())
def test_packed_test_decides_random_chord_pairs(case):
    # One bucket holds every chord, so every pair of classes meets the packed test.
    _, pts = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KERNEL, "_slope_key", lambda *_: lambda a, b: 0)
        assert scan(pts, PACKED) == scan(pts, FIELD)


@settings(max_examples=100, deadline=None)
@given(chord_quadruples())
def test_width_bounds_every_folded_cross_product(case):
    # F = X * Q with exponents folded mod m, X = dx1*dy2 - dy1*dx2 on the
    # points scaled by their common denominator: below 2**k - 1 for every
    # pair of chords, and zero exactly for parallel ones, exactly when the
    # packed test's remainder X(2**k) mod Phi_m(2**k) is zero.
    order, pts = case
    phi = euler_phi(order)
    coords = lifted(pts, order)
    den = lcm(*(c._den for c in coords))
    vecs = [[v * (den // c._den) for v in c._num] for c in coords]
    chords = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    q = [1]  # Q = (x**m - 1) / Phi_m, the product of Phi_d over the divisors d < m of m
    for d in (d for d in range(1, order) if order % d == 0):
        phi_d = cyclotomic_poly(d)
        d_deg = len(phi_d) - 1
        q = [sum(q[t - s] * c for s, c in enumerate(phi_d) if 0 <= t - s < len(q)) for t in range(len(q) + d_deg)]
    q = [(e, c) for e, c in enumerate(q) if c]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KERNEL, "_PACKED_BUDGET", PACKED)
        k = KERNEL._packed_coordinates([(c._num, c._den) for c in coords], order)[0]
    modulus = sum(c << (k * e) for e, c in enumerate(cyclotomic_poly(order)))
    for (i, j), (r, s) in combinations(chords, 2):
        dx1, dy1 = ([b - a for a, b in zip(vecs[2 * i + t], vecs[2 * j + t])] for t in (0, 1))
        dx2, dy2 = ([b - a for a, b in zip(vecs[2 * r + t], vecs[2 * s + t])] for t in (0, 1))
        x = [0] * (2 * phi - 1)
        for a in range(phi):
            for b in range(phi):
                x[a + b] += dx1[a] * dy2[b] - dy1[a] * dx2[b]
        f = [0] * order
        for a, v in enumerate(x):
            for e, c in q:
                f[(a + e) % order] += v * c
        assert max(map(abs, f)) < 2**k - 1
        parallel = Direction.between(pts[i], pts[j]).parallel_to(Direction.between(pts[r], pts[s]))
        packed = sum(v << (k * a) for a, v in enumerate(x))
        assert (packed % modulus == 0) == (not any(f)) == parallel


def double_loop_ambiguous(ys, epsilon):
    return any(
        epsilon <= ys[v] - ys[u] < 10 * epsilon for u in range(len(ys)) for v in range(u + 1, len(ys))
    )


def gap_chains():
    """Sorted values built from gaps around epsilon = 1e-6, with runs of sub-epsilon gaps."""
    rng = random.Random(20221019)
    gaps = [0.0, 1e-9, 3e-7, 9.9e-7, 1e-6, 5e-6, 9.99e-6, 1e-5, 2e-5, 1.0]
    cases = []
    for size in range(0, 40):
        for weights in ((1,) * 10, (4, 4, 6, 6, 1, 1, 1, 1, 2, 1), (2, 2, 6, 6, 0, 0, 0, 0, 3, 1)):
            ys = [rng.uniform(-3, 3)]
            for _ in range(size):
                ys.append(ys[-1] + rng.choices(gaps, weights)[0])
            cases.append(ys)
    return cases


def test_gap_scan_agrees_with_double_loop():
    cases = gap_chains()
    outcomes = set()
    for ys in cases:
        expected = double_loop_ambiguous(ys, 1e-6)
        assert has_ambiguous_gap(ys, 1e-6) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
    bundle = construct(12)
    real = [s / d for line in bundle.lines for s, _, d in (_real_bounds(line.a, 64), _real_bounds(line.b, 64))]
    coeffs = list(zip(real[::2], real[1::2]))
    for ai, bi in coeffs:
        for aj, bj in coeffs:
            if ai != aj:
                x = (bi - bj) / (aj - ai)
                ys = sorted(-(a * x + b) for a, b in coeffs)
                for epsilon in (1e-12, 1e-6, 1e-2, 0.3):
                    assert has_ambiguous_gap(ys, epsilon) == double_loop_ambiguous(ys, epsilon)


def double_loop_witness(lines):
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i].a == lines[j].a:
                return (i, j)
    return None


def double_loop_concurrent(lines):
    if len(lines) < 2:
        raise DegenerateInputError("concurrency needs at least 2 lines")
    ensure_distinct_lines(lines)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if lines[i].a == lines[j].a:
                return False
    duals = [dual_line_to_point(line) for line in lines]
    return all(collinear(duals[0], duals[1], p) for p in duals[2:])


def shared_slope_families():
    """Distinct rational lines whose slopes come from pools of 1, 2, 3 or many values."""
    rng = random.Random(20221018)
    families = []
    for size in range(2, 21):
        for pool_size in sorted({1, 2, 3, size}):
            pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(pool_size)]
            rows = {}
            while len(rows) < size:
                b = Fraction(rng.randint(-30, 30), rng.randint(1, 3))
                rows.setdefault(NonVerticalLine(rng.choice(pool), b))
            families.append(pytest.param(list(rows), id=f"shared{size}-pool{pool_size}"))
    return families


def concurrent_families():
    """Lines through one rational point, some with one line moved off it."""
    rng = random.Random(7)
    families = []
    for size in range(2, 13):
        x0, y0 = Fraction(rng.randint(-5, 5), 2), Fraction(rng.randint(-5, 5), 3)
        slopes = rng.sample(range(-20, 21), size)
        lines = [NonVerticalLine(a, -(y0 + a * x0)) for a in slopes]
        families.append(pytest.param(lines, id=f"concurrent{size}"))
        if size >= 3:
            moved = lines[:-1] + [NonVerticalLine(lines[-1].a, lines[-1].b + 1)]
            families.append(pytest.param(moved, id=f"concurrent{size}-moved"))
    return families


def assert_certificate_agrees(lines):
    lines = list(lines)
    n = len(lines)
    report = verify(lines)
    witness = double_loop_witness(lines)
    concurrent = double_loop_concurrent(lines)
    stab = two_pass_stab(lines)
    assert concurrent_family(lines) == concurrent
    assert report.parallel_witness == witness
    assert report.pairwise_nonparallel == (witness is None)
    assert report.nonconcurrent == (not concurrent)
    assert report.stab_counts == stab
    failed = witness is not None or concurrent or stab & {n - 1, n - 2}
    assert report.verdict == ("fail" if failed else "pass")


@pytest.mark.parametrize("lines", shared_slope_families() + concurrent_families())
def test_certificate_agrees_with_double_loops(lines):
    assert_certificate_agrees(lines)


def test_tampered_bundle_agrees_with_double_loops(tmp_path):
    # Three slope repeats whose first repeat in index order, (3, 9), is not
    # the lexicographically first pair, (2, 20).
    path = tmp_path / "b24.json"
    write_bundle(construct(24), path)
    doc = json.loads(path.read_text())
    for i, j in ((5, 17), (2, 20), (3, 9)):
        doc["lines"][j]["a"] = doc["lines"][i]["a"]
    path.write_text(json.dumps(doc))
    bundle = read_bundle(path)
    assert double_loop_witness(bundle.lines) == (2, 20)
    assert_certificate_agrees(bundle.lines)


def searched_rotation(cfg):
    def parameters():
        yield Fraction(0)
        q = Fraction(1)
        while True:
            yield q
            q = 1 / (2 * Fraction(q.numerator // q.denominator) - q + 1)

    for t in islice(parameters(), cfg.total * cfg.total + cfg.total + 8):
        rot = RationalRotation.from_parameter(t)
        pts = instantiate_polygon(cfg, rot)
        if len({p.x for p in pts}) == len(pts):
            return rot
    raise AssertionError("the search exceeded its counting bound")


@pytest.mark.parametrize("center", [False, True], ids=["plain", "center"])
@pytest.mark.parametrize("n", range(3, 65))
def test_rotation_matches_search(n, center):
    cfg = PolygonConfig(n, center)
    rot = choose_rotation(cfg)
    assert rot == searched_rotation(cfg)
    pts = instantiate_polygon(cfg, rot)
    assert len({p.x for p in pts}) == len(pts)
