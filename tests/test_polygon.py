"""Residue-model and instantiation tests for regular polygon configurations."""

from fractions import Fraction
from itertools import combinations

import mpmath
import pytest

from dircover.field import CycloElement, approx_str
from dircover.geometry import Direction, Point, collinear
from dircover.polygon import (
    CASE2_NOTE,
    PolygonConfig,
    RationalRotation,
    choose_rotation,
    field_order,
    instantiate_polygon,
    polygon_direction_count,
    polygon_spectrum_closed_form,
    polygon_spectrum_enumerated,
)
from dircover.spectrum import spectrum

from support import zeta


class TestDirectionCounts:
    def test_heptagon_every_class_is_four(self):
        cfg = PolygonConfig(7)
        assert all(polygon_direction_count(cfg, d) == 4 for d in range(7))

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_even_parity_rule(self, n):
        cfg = PolygonConfig(n)
        k = n // 2
        for d in range(n):
            expected = k + 1 if d % 2 == 0 else k
            assert polygon_direction_count(cfg, d) == expected

    def test_hexagon_with_center(self):
        cfg = PolygonConfig(6, with_center=True)
        for d in range(6):
            assert polygon_direction_count(cfg, d) == (5 if d % 2 == 0 else 3)

    def test_octagon_with_center(self):
        cfg = PolygonConfig(8, with_center=True)
        assert all(polygon_direction_count(cfg, d) == 5 for d in range(8))

    def test_invalid_residue(self):
        with pytest.raises(ValueError):
            polygon_direction_count(PolygonConfig(7), 7)
        with pytest.raises(ValueError):
            polygon_direction_count(PolygonConfig(7), -1)


class TestEnumeratedSpectra:
    def test_examples(self):
        assert polygon_spectrum_enumerated(PolygonConfig(4)) == {2, 3, 4}
        assert polygon_spectrum_enumerated(PolygonConfig(6, True)) == {3, 5, 7}
        assert polygon_spectrum_enumerated(PolygonConfig(8, True)) == {5, 9}
        assert polygon_spectrum_enumerated(PolygonConfig(7)) == {4, 7}

    def test_odd_with_center_uses_radius_classes(self):
        # vertices contribute (n+1)/2 + 1 per chord class, radii contribute n
        assert polygon_spectrum_enumerated(PolygonConfig(5, True)) == {4, 5, 6}
        assert polygon_spectrum_enumerated(PolygonConfig(7, True)) == {5, 7, 8}

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            PolygonConfig(2)


class TestClosedForms:
    def test_examples(self):
        assert polygon_spectrum_closed_form(PolygonConfig(10)) == {5, 6, 10}
        assert polygon_spectrum_closed_form(PolygonConfig(9)) == {5, 9}
        assert polygon_spectrum_closed_form(PolygonConfig(14, True)) == {7, 9, 15}

    def test_odd_with_center_has_no_closed_form(self):
        with pytest.raises(ValueError):
            polygon_spectrum_closed_form(PolygonConfig(7, True))

    @pytest.mark.parametrize("n", list(range(3, 52)))
    def test_matches_enumeration_plain(self, n):
        cfg = PolygonConfig(n)
        assert polygon_spectrum_closed_form(cfg) == polygon_spectrum_enumerated(cfg)

    @pytest.mark.parametrize("n", [n for n in range(4, 51) if n % 2 == 0])
    def test_matches_enumeration_with_center(self, n):
        cfg = PolygonConfig(n, with_center=True)
        assert polygon_spectrum_closed_form(cfg) == polygon_spectrum_enumerated(cfg)

    def test_note_mentions_the_printed_variant(self):
        assert "{k, 2k+1}" in CASE2_NOTE and "{k+1, 2k+1}" in CASE2_NOTE


def _polygon_with_halves(cfg: PolygonConfig, rotation: RationalRotation) -> list[Point]:
    """The vertex loop that walks w * zeta_n^k and halves both coordinates of each vertex."""
    n = cfg.vertices
    m = field_order(n)
    zn = zeta(m, m // n)
    iu = zeta(m, m // 4)
    half = Fraction(1, 2)
    z = iu * rotation.s + rotation.c
    pts = []
    for _ in range(n):
        zbar = z.conjugate()
        pts.append(Point((z + zbar) * half, (zbar - z) * iu * half))
        z = z * zn
    if cfg.with_center:
        origin = CycloElement.from_rational(m, 0)
        pts.append(Point(origin, origin))
    return pts


class TestInstantiation:
    def test_square_identity(self):
        pts = instantiate_polygon(PolygonConfig(4), RationalRotation(1, 0))
        assert pts == [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]

    def test_hexagon_identity_x_coordinates(self):
        pts = instantiate_polygon(PolygonConfig(6), RationalRotation(1, 0))
        half = Fraction(1, 2)
        assert [p.x for p in pts] == [1, half, -half, -1, -half, half]

    def test_center_is_origin(self):
        pts = instantiate_polygon(PolygonConfig(6, True), RationalRotation(1, 0))
        assert len(pts) == 7
        assert pts[-1].x == 0 and pts[-1].y == 0

    @pytest.mark.parametrize("n", [5, 7, 8, 12, 13, 24])
    def test_residue_model_soundness(self, n):
        # chords {i,j}, {k,l} are geometrically parallel iff i+j = k+l (mod n)
        cfg = PolygonConfig(n)
        pts = instantiate_polygon(cfg, RationalRotation(Fraction(3, 5), Fraction(4, 5)))
        chords: dict[int, list[Direction]] = {}
        for i, j in combinations(range(n), 2):
            chords.setdefault((i + j) % n, []).append(
                Direction(pts[j].x - pts[i].x, pts[j].y - pts[i].y)
            )
        reps = {}
        for cls, ds in chords.items():
            reps[cls] = ds[0]
            for d in ds[1:]:
                assert ds[0].parallel_to(d)
            # no three vertices are collinear, so each chord saves one line of n
            assert n - len(ds) == polygon_direction_count(cfg, cls)
        for c1, c2 in combinations(sorted(reps), 2):
            assert not reps[c1].parallel_to(reps[c2])

    def test_unit_circle(self):
        pts = instantiate_polygon(PolygonConfig(5), RationalRotation(Fraction(3, 5), Fraction(4, 5)))
        for p in pts:
            assert p.x * p.x + p.y * p.y == 1

    @pytest.mark.parametrize(
        "cfg",
        [
            PolygonConfig(5),
            PolygonConfig(6),
            PolygonConfig(5, True),
            PolygonConfig(6, True),
            PolygonConfig(8, True),
        ],
    )
    def test_no_unexpected_collinear_triples(self, cfg):
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        n = cfg.vertices
        for a, b, c in combinations(range(len(pts)), 3):
            triple_collinear = collinear(pts[a], pts[b], pts[c])
            if cfg.with_center and c == n and n % 2 == 0 and (b - a) % n == n // 2:
                assert triple_collinear  # center with an antipodal vertex pair
            else:
                assert not triple_collinear

    @pytest.mark.parametrize("with_center", [False, True])
    @pytest.mark.parametrize("t", [1, Fraction(1, 2), Fraction(2, 7)])
    def test_matches_the_loop_with_halves(self, t, with_center):
        # from_parameter(1) and (1/2) are the two rotations choose_rotation returns
        rotation = RationalRotation.from_parameter(t)
        for n in [*range(3, 81), 199, 256, 301]:
            cfg = PolygonConfig(n, with_center)
            assert instantiate_polygon(cfg, rotation) == _polygon_with_halves(cfg, rotation), n

    @pytest.mark.parametrize("t", [1, Fraction(1, 2)])
    @pytest.mark.parametrize("n", [29, 97, 199])
    def test_decimals_match_the_rotated_cosines(self, n, t):
        # independent of conjugation: vertex k is (c cos u - s sin u, s cos u + c sin u), u = 2 pi k / n
        rotation = RationalRotation.from_parameter(t)
        pts = instantiate_polygon(PolygonConfig(n), rotation)
        with mpmath.workprec(600):
            c, s = (mpmath.mpf(v.numerator) / v.denominator for v in (rotation.c, rotation.s))
            for k, p in enumerate(pts):
                u = 2 * mpmath.pi * k / n
                expected = (c * mpmath.cos(u) - s * mpmath.sin(u), s * mpmath.cos(u) + c * mpmath.sin(u))
                got = (approx_str(p.x, 39), approx_str(p.y, 39))
                assert got == tuple(mpmath.nstr(v, 39) for v in expected), (n, k)


class TestRotationChoice:
    def test_identity_rejected_for_plain_polygons(self):
        # vertices i and n-i always share an x-coordinate under the identity
        for n in (4, 5, 6, 7):
            pts = instantiate_polygon(PolygonConfig(n), RationalRotation(1, 0))
            assert len({p.x for p in pts}) < n

    def test_heptagon_takes_first_working_parameter(self):
        assert choose_rotation(PolygonConfig(7)) == RationalRotation.from_parameter(1)

    def test_square_takes_one_half(self):
        # t=0 gives x = {1, 0, -1, 0}; t=1 is the same square rotated onto itself
        assert choose_rotation(PolygonConfig(4)) == RationalRotation.from_parameter(Fraction(1, 2))

    @pytest.mark.parametrize(
        "cfg", [PolygonConfig(n) for n in range(3, 13)] + [PolygonConfig(6, True), PolygonConfig(9, True)]
    )
    def test_distinct_x_invariant(self, cfg):
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        assert len({p.x for p in pts}) == len(pts)

    def test_rotation_validates_unit_circle(self):
        with pytest.raises(ValueError):
            RationalRotation(Fraction(1, 2), Fraction(1, 2))


class TestCrossModuleEquivalence:
    @pytest.mark.parametrize("n", list(range(3, 13)))
    def test_plain_polygon_spectrum_geometrically(self, n):
        cfg = PolygonConfig(n)
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        assert spectrum(pts).counts == polygon_spectrum_enumerated(cfg)

    @pytest.mark.parametrize("n", list(range(3, 11)))
    def test_center_polygon_spectrum_geometrically(self, n):
        cfg = PolygonConfig(n, with_center=True)
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        assert spectrum(pts).counts == polygon_spectrum_enumerated(cfg)

    def test_field_order(self):
        assert field_order(7) == 28
        assert field_order(8) == 8
        assert field_order(6) == 12
