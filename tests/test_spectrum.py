"""Spectrum engine tests.

The stab expectations tagged as derived were computed with the inline
brute-force comparator below (pairwise intersection abscissae + distinct
ordinate counting, rational division allowed on the test side only) and
then frozen.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from dircover.errors import DegenerateInputError
from dircover.field import CycloElement
from dircover.geometry import (
    AffineMap,
    Direction,
    NonVerticalLine,
    Point,
    affine_apply,
    dual_point_to_line,
)
from dircover.polygon import PolygonConfig, RationalRotation, choose_rotation, instantiate_polygon
from dircover.spectrum import (
    lines_in_direction,
    pair_directions,
    spectrum,
    stab_spectrum,
    vertical_class_count,
)

SQUARE = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]


def brute_force_stab(lines):
    """Independent comparator: for every pairwise intersection abscissa,
    count distinct ordinates among all lines there.  Rational domain only."""
    counts = {len(lines)}
    for l1, l2 in combinations(lines, 2):
        if l1.a == l2.a:
            continue
        x = (l1.b - l2.b) / (l2.a - l1.a)
        counts.add(len({-(l.a * x + l.b) for l in lines}))
    return frozenset(counts)


@contextmanager
def within_seconds(limit: int):
    """Fail the block with TimeoutError if it runs past ``limit`` seconds (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def sheared_square_points():
    shear = AffineMap(((1, Fraction(1, 3)), (0, 1)))
    return affine_apply(shear, SQUARE)


class TestPairDirections:
    def test_square_has_four_classes(self):
        assert list(pair_directions(SQUARE).items()) == [
            ((1, 0), 2),
            ((0, 1), 2),
            ((1, 1), 3),
            ((1, -1), 3),
        ]

    def test_collinear_single_class(self):
        assert len(pair_directions([Point(0, 0), Point(1, 1), Point(2, 2)])) == 1

    def test_heptagon_has_seven_classes(self):
        pts = instantiate_polygon(PolygonConfig(7), RationalRotation.from_parameter(1))
        assert len(pair_directions(pts)) == 7

    def test_needs_two_points(self):
        assert pair_directions([]) == pair_directions([Point(0, 0)]) == {}

    def test_rejects_duplicates(self):
        with pytest.raises(DegenerateInputError):
            pair_directions([Point(0, 0), Point(0, 0)])
        # equal cyclotomic points share their residues mod every prime
        cfg = PolygonConfig(12)
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        with within_seconds(5), pytest.raises(DegenerateInputError, match="zero direction"):
            pair_directions([pts[0], pts[1], pts[2], pts[1]])


class TestLinesInDirection:
    def test_square_diagonal(self):
        part = lines_in_direction(SQUARE, Direction(1, 1))
        assert part.groups == ((Point(0, 0), Point(1, 1)), (Point(1, 0),), (Point(0, 1),))

    def test_square_horizontal(self):
        part = lines_in_direction(SQUARE, Direction(1, 0))
        assert len(part.groups) == 2

    def test_non_chord_direction_gives_singletons(self):
        part = lines_in_direction(SQUARE, Direction(1, 5))
        assert len(part.groups) == 4
        assert all(len(g) == 1 for g in part.groups)

    def test_groups_partition_input(self):
        for (dx, dy), c in pair_directions(SQUARE).items():
            part = lines_in_direction(SQUARE, Direction(dx, dy))
            assert len(part.groups) == c
            flat = [p for g in part.groups for p in g]
            assert sorted(flat, key=str) == sorted(SQUARE, key=str)
            assert all(g for g in part.groups)


class TestSpectrum:
    def test_square(self):
        assert spectrum(SQUARE).counts == {2, 3, 4}

    def test_three_collinear(self):
        assert spectrum([Point(0, 0), Point(1, 1), Point(2, 2)]).counts == {1, 3}

    def test_affine_regular_hexagon(self):
        h = Fraction(1, 2)
        hexagon = [Point(1, 0), Point(h, h), Point(-h, h), Point(-1, 0), Point(-h, -h), Point(h, -h)]
        assert spectrum(hexagon).counts == {3, 4, 6}

    def test_singleton(self):
        rep = spectrum([Point(2, 3)])
        assert rep.counts == {1}
        assert rep.witnesses[1].generic

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            spectrum([])

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateInputError):
            spectrum([Point(0, 0), Point(0, 0)])

    def test_witnesses_are_consistent(self):
        rep = spectrum(SQUARE)
        for count, part in rep.witnesses.items():
            assert len(part.groups) == count
        generic = rep.witnesses[4]
        assert generic.generic
        assert all(len(g) == 1 for g in generic.groups)
        # the synthetic direction really is critical-free
        assert all(
            not generic.direction.parallel_to(Direction(dx, dy)) for dx, dy in pair_directions(SQUARE)
        )

    def test_mixed_domains_match_the_cyclotomic_embedding(self):
        # Chords between two Fraction points are canonical Directions, the rest are
        # cyclotomic ones stored as given, so a mixed list must class by parallel_to.
        hexagon = instantiate_polygon(PolygonConfig(6), RationalRotation(1, 0))
        rational = [Point(0, 0), Point(2, 0), Point(Fraction(1, 3), Fraction(-5, 7)), Point(0, 3)]
        embedded = [Point(*(CycloElement.from_rational(12, s) for s in (p.x, p.y))) for p in rational]
        mixed, cyclotomic = spectrum(hexagon + rational), spectrum(hexagon + embedded)
        assert mixed.counts == cyclotomic.counts == {5, 6, 7, 9, 10}
        assert mixed.vertical_count == cyclotomic.vertical_count

    def test_witness_selection_is_first_occurrence(self):
        rep = spectrum(SQUARE)
        assert rep.witnesses[2].direction == Direction(1, 0)
        assert rep.witnesses[3].direction == Direction(1, 1)


class TestStabSpectrum:
    def test_sheared_square_duals(self):
        lines = [dual_point_to_line(p) for p in sheared_square_points()]
        expected = brute_force_stab(lines)
        assert expected == frozenset({2, 3, 4})
        assert stab_spectrum(lines) == expected

    def test_heptagon_family(self):
        pts = instantiate_polygon(PolygonConfig(7), choose_rotation(PolygonConfig(7)))
        lines = [dual_point_to_line(p) for p in pts]
        assert stab_spectrum(lines) == {4, 7}

    def test_single_line(self):
        assert stab_spectrum([NonVerticalLine(3, 4)]) == {1}

    def test_family_with_parallels(self):
        # duals of the plain unit square contain two parallel pairs
        lines = [dual_point_to_line(p) for p in SQUARE]
        assert stab_spectrum(lines) == brute_force_stab(lines) == {2, 3, 4}

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateInputError):
            stab_spectrum([NonVerticalLine(1, 2), NonVerticalLine(1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            stab_spectrum([])


class TestVerticalClasses:
    def test_square(self):
        assert vertical_class_count(SQUARE) == 2

    def test_rotated_heptagon(self):
        cfg = PolygonConfig(7)
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        assert vertical_class_count(pts) == 7

    def test_collinear_on_vertical(self):
        assert vertical_class_count([Point(0, 0), Point(0, 1), Point(0, 5)]) == 1

    def test_rational_x_equals_embedded_constant(self):
        one = CycloElement.from_rational(12, 1)
        assert vertical_class_count([Point(Fraction(1), 0), Point(one, 0), Point(3, 0)]) == 2


class TestDualityTransport:
    def test_distinct_x_transports_exactly(self):
        pts = sheared_square_points()
        assert vertical_class_count(pts) == len(pts)
        lines = [dual_point_to_line(p) for p in pts]
        assert spectrum(pts).counts == stab_spectrum(lines)

    def test_repeated_x_needs_vertical_class_adjoined(self):
        pts = SQUARE
        lines = [dual_point_to_line(p) for p in pts]
        assert spectrum(pts).counts == stab_spectrum(lines) | {vertical_class_count(pts)}
