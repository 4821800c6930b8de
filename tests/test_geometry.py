"""Duality, incidence, and predicate tests over both coordinate domains."""

from fractions import Fraction
import copy
import pickle
import sys
import types
from itertools import combinations

import pytest

from dircover.counterexample import CounterexampleBundle, VerificationReport, construct
from dircover.errors import DegenerateInputError, OrderMismatchError
from dircover.field import CycloElement
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
    ensure_distinct_points,
    incident,
)
from dircover.polygon import PolygonConfig, RationalRotation, instantiate_polygon
from dircover.spectrum import LinePartition, SpectrumReport

from support import zeta


def heptagon():
    return instantiate_polygon(PolygonConfig(7), RationalRotation.from_parameter(1))


class TestDuality:
    def test_origin(self):
        assert dual_point_to_line(Point(0, 0)) == NonVerticalLine(0, 0)

    def test_direct_substitution(self):
        assert dual_point_to_line(Point(1, 2)) == NonVerticalLine(1, 2)
        assert dual_line_to_point(NonVerticalLine(1, 2)) == Point(1, 2)

    def test_round_trip(self):
        for p in (Point(0, 0), Point(Fraction(3, 7), Fraction(-2, 5)), Point(-4, 9)):
            assert dual_line_to_point(dual_point_to_line(p)) == p
        line = NonVerticalLine(Fraction(-1, 3), 8)
        assert dual_point_to_line(dual_line_to_point(line)) == line


class TestIncidence:
    def test_arithmetic_identity(self):
        assert incident(Point(1, -3), NonVerticalLine(1, 2))

    def test_origin_misses(self):
        assert not incident(Point(0, 0), NonVerticalLine(1, 2))

    def test_symmetry_instance(self):
        p, q = Point(1, -3), Point(1, 2)
        assert incident(p, dual_point_to_line(q))
        assert incident(q, dual_point_to_line(p))

    def test_cyclotomic_incidence(self):
        # the vertex (x, y) lies on the line y0 + a*x0 + b = 0 with a = 1, b = -(y + x)
        x = (zeta(12) + zeta(12, 11)) * Fraction(1, 2)
        y = (zeta(12, 11) - zeta(12)) * zeta(12, 3) * Fraction(1, 2)
        assert incident(Point(x, y), NonVerticalLine(CycloElement.from_rational(12, 1), -(y + x)))


class TestCollinear:
    def test_diagonal(self):
        assert collinear(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_triangle(self):
        assert not collinear(Point(0, 0), Point(1, 0), Point(0, 1))

    def test_polygon_vertices_never_collinear(self):
        pts = heptagon()
        for a, b, c in combinations(pts, 3):
            assert not collinear(a, b, c)


class TestConcurrent:
    def test_duals_of_collinear_points(self):
        pts = [Point(0, 0), Point(1, 1), Point(2, 2)]
        assert concurrent_family([dual_point_to_line(p) for p in pts])

    def test_duals_of_triangle(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        assert not concurrent_family([dual_point_to_line(p) for p in pts])

    def test_heptagon_family_not_concurrent(self):
        assert not concurrent_family([dual_point_to_line(p) for p in heptagon()])

    def test_two_nonparallel_always_concurrent(self):
        assert concurrent_family([NonVerticalLine(0, 0), NonVerticalLine(1, 0)])

    def test_parallel_pair_never_concurrent(self):
        assert not concurrent_family([NonVerticalLine(1, 0), NonVerticalLine(1, 5)])
        assert not concurrent_family(
            [NonVerticalLine(1, 0), NonVerticalLine(1, 5), NonVerticalLine(0, 0)]
        )

    def test_too_few_lines(self):
        with pytest.raises(DegenerateInputError):
            concurrent_family([NonVerticalLine(1, 0)])

    def test_duplicates_rejected(self):
        with pytest.raises(DegenerateInputError):
            concurrent_family([NonVerticalLine(1, 0), NonVerticalLine(1, 0)])


class TestAffine:
    def test_identity(self):
        pts = [Point(3, 4), Point(Fraction(1, 2), -1)]
        assert affine_apply(AffineMap(((1, 0), (0, 1))), pts) == pts

    def test_shear_of_unit_square(self):
        shear = AffineMap(((1, Fraction(1, 3)), (0, 1)))
        square = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
        assert affine_apply(shear, square) == [
            Point(0, 0),
            Point(1, 0),
            Point(Fraction(1, 3), 1),
            Point(Fraction(4, 3), 1),
        ]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(((1, 2), (2, 4)))

    def test_affine_regular_hexagon_relations(self):
        # rational realization of the regular hexagon: all collinearity and
        # parallelism relations of the regular one must hold
        h = Fraction(1, 2)
        hexagon = [Point(1, 0), Point(h, h), Point(-h, h), Point(-1, 0), Point(-h, -h), Point(h, -h)]
        for i in range(3):
            edge1 = Direction.between(hexagon[i], hexagon[i + 1])
            edge2 = Direction.between(hexagon[i + 3], hexagon[(i + 4) % 6])
            assert edge1.parallel_to(edge2)
            # main diagonals pass through the center
            assert collinear(hexagon[i], Point(0, 0), hexagon[i + 3])
        for a, b, c in combinations(hexagon, 3):
            assert not collinear(a, b, c)

    def test_preserves_collinearity_and_direction_equality(self):
        amap = AffineMap(((2, 1), (1, 1)), (Fraction(1, 3), -2))
        pts = [Point(0, 0), Point(1, 2), Point(2, 4), Point(5, -1)]
        img = affine_apply(amap, pts)
        assert collinear(img[0], img[1], img[2])
        assert not collinear(img[0], img[1], img[3])


class TestDirection:
    def test_canonical_examples(self):
        # the constructor stores the canonical components, as plain ints
        for d, (dx, dy) in [
            (Direction(2, 4), (1, 2)),
            (Direction(-1, 3), (1, -3)),
            (Direction(0, -5), (0, 1)),
            (Direction(Fraction(1, 2), Fraction(3, 4)), (2, 3)),
        ]:
            assert (d.dx, d.dy) == (dx, dy)
            assert d == Direction(dx, dy) and hash(d) == hash(Direction(dx, dy))
            assert type(d.dx) is int and type(d.dy) is int

    def test_canonical_idempotent(self):
        d = Direction(Fraction(-6, 7), Fraction(2, 3))
        assert (d.dx, d.dy) == (9, -7)
        assert Direction(d.dx, d.dy) == d
        assert Direction.between(Point(0, 0), Point(d.dx, d.dy)) == d

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            Direction(0, 0)

    def test_cyclotomic_has_no_canonical_form(self):
        d = Direction(zeta(5), CycloElement.from_rational(5, 1))
        scaled = Direction(zeta(5) * 3, CycloElement.from_rational(5, 3))
        assert (d.dx, d.dy) == (zeta(5), CycloElement.from_rational(5, 1))  # stored as given
        assert d.parallel_to(scaled) and d != scaled


class TestDomains:
    def test_point_embeds_rational_coordinate(self):
        p = Point(Fraction(1, 2), zeta(8))
        assert isinstance(p.x, CycloElement) and p.x.order == 8

    def test_point_rejects_mixed_orders(self):
        with pytest.raises(OrderMismatchError):
            Point(zeta(8), zeta(12))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Point(0.5, 1)

    def test_field_module_still_loading_holds_no_element(self, monkeypatch):
        # geometry finds CycloElement in sys.modules; a field import still in progress has not defined it yet
        monkeypatch.setitem(sys.modules, "dircover.field", types.ModuleType("dircover.field"))
        assert Point(1, Fraction(1, 2)) == Point(Fraction(1), Fraction(1, 2))
        with pytest.raises(TypeError):
            Point(0.5, 1)

    def test_distinctness_guards(self):
        with pytest.raises(DegenerateInputError):
            ensure_distinct_points([Point(1, 2), Point(1, 2)])
        with pytest.raises(DegenerateInputError):
            ensure_distinct_lines([NonVerticalLine(1, 2), NonVerticalLine(1, 2)])
        ensure_distinct_points([Point(1, 2), Point(2, 1)])
        embedded = Point(CycloElement.from_rational(12, 1), CycloElement.from_rational(12, 2))
        with pytest.raises(DegenerateInputError, match="duplicate point at positions 0 and 1"):
            ensure_distinct_points([Point(1, 2), embedded])


# Each value type, two ways of building one value, and a different value.
VALUES = {
    "Point": (lambda: Point(Fraction(1, 2), 3), lambda: Point(Fraction(2, 4), Fraction(3)), lambda: Point(3, 1)),
    "NonVerticalLine": (lambda: NonVerticalLine(1, 2), lambda: NonVerticalLine(Fraction(1), 2), lambda: NonVerticalLine(2, 1)),
    "Direction": (lambda: Direction(1, 2), lambda: Direction(-2, -4), lambda: Direction(2, 1)),
    "AffineMap": (
        lambda: AffineMap(((2, 1), (0, 1)), (5, -1)),
        lambda: AffineMap(((Fraction(2), 1), (0, 1)), (5, Fraction(-1))),
        lambda: AffineMap(((2, 1), (0, 1))),
    ),
    "PolygonConfig": (lambda: PolygonConfig(7), lambda: PolygonConfig(7, False), lambda: PolygonConfig(7, True)),
    "RationalRotation": (
        lambda: RationalRotation(Fraction(3, 5), Fraction(4, 5)),
        lambda: RationalRotation.from_parameter(Fraction(1, 2)),
        lambda: RationalRotation(1, 0),
    ),
    "LinePartition": (
        lambda: LinePartition(Direction(1, 0), ((Point(0, 0), Point(1, 0)),), False),
        lambda: LinePartition(direction=Direction(2, 0), groups=((Point(0, 0), Point(1, 0)),), generic=False),
        lambda: LinePartition(Direction(1, 0), ((Point(0, 0), Point(1, 0)),), True),
    ),
    "SpectrumReport": (
        lambda: SpectrumReport({1: LinePartition(Direction(1, 0), ((Point(0, 0), Point(1, 0)),), False)}, 2),
        lambda: SpectrumReport(
            vertical_count=2, witnesses={1: LinePartition(Direction(2, 0), ((Point(0, 0), Point(1, 0)),), False)}
        ),
        lambda: SpectrumReport({1: LinePartition(Direction(1, 0), ((Point(0, 0), Point(1, 0)),), False)}, 1),
    ),
    "VerificationReport": (
        lambda: VerificationReport(None, True, frozenset({4, 7}), frozenset({5, 6})),
        lambda: VerificationReport(
            parallel_witness=None, nonconcurrent=True, stab_counts=frozenset({7, 4}), forbidden=frozenset({6, 5})
        ),
        lambda: VerificationReport((0, 2), True, frozenset({4, 7}), frozenset({5, 6})),
    ),
    "CounterexampleBundle": (
        lambda: CounterexampleBundle(PolygonConfig(3), RationalRotation(1, 0), (NonVerticalLine(1, 2),), None, ()),
        lambda: CounterexampleBundle(
            config=PolygonConfig(3, False),
            rotation=RationalRotation(Fraction(1), 0),
            lines=(NonVerticalLine(Fraction(1), 2),),
            certificate=None,
            approx_lines=(),
        ),
        lambda: CounterexampleBundle(PolygonConfig(3), RationalRotation(1, 0), (NonVerticalLine(2, 1),), None, ()),
    ),
}

# Points whose duals are checked: rational, dual to a line of construct(7), and a mixed pair Point lifts.
SEVEN = construct(7).lines
DUAL_SOURCES = {
    "rational": lambda: Point(Fraction(-7, 3), 5),
    "construct(7)": lambda: dual_line_to_point(SEVEN[2]),
    "lifted": lambda: Point(Fraction(1, 2), zeta(12)),
}
# Records the duality maps build, each with the same record built by its constructor.
VALUES |= {
    "dual line of a rational point": (
        lambda: dual_point_to_line(Point(Fraction(-7, 3), 5)),
        lambda: NonVerticalLine(Fraction(-14, 6), 5),
        lambda: dual_point_to_line(Point(5, Fraction(-7, 3))),
    ),
    "dual point of a construct(7) line": (
        lambda: dual_line_to_point(SEVEN[2]),
        lambda: Point(SEVEN[2].a, SEVEN[2].b),
        lambda: dual_line_to_point(SEVEN[3]),
    ),
    "dual line of a lifted point": (
        lambda: dual_point_to_line(Point(Fraction(1, 2), zeta(12))),
        lambda: NonVerticalLine(Fraction(1, 2), zeta(12)),
        lambda: dual_point_to_line(Point(zeta(12), Fraction(1, 2))),
    ),
}
HASHABLE = [name for name in VALUES if name != "SpectrumReport"]  # a SpectrumReport holds a dict


class TestValueTypes:
    @pytest.mark.parametrize("name", HASHABLE)
    def test_equal_values_hash_alike(self, name):
        make, same, other = VALUES[name]
        assert make() == same() and hash(make()) == hash(same())
        assert make() != other() and not make() == other()
        assert len({make(), same(), other()}) == 2

    @pytest.mark.parametrize("name", VALUES)
    def test_unequal_to_other_types_and_tuples(self, name):
        value = VALUES[name][0]()
        fields = tuple(getattr(value, k) for k in type(value).__slots__)
        assert value != fields and fields != value
        for other_name, (make, _, _) in VALUES.items():
            if other_name != name:
                assert value != make()
        assert Point(1, 2) != NonVerticalLine(1, 2) and Point(1, 2) != Direction(1, 2)
        assert Direction(1, 2) != (1, 2) and NonVerticalLine(1, 2) != (Fraction(1), Fraction(2))

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_cannot_be_assigned(self, name):
        value = VALUES[name][0]()
        for field in type(value).__slots__:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 0

    @pytest.mark.parametrize("name", VALUES)
    def test_copy_and_pickle_round_trip(self, name):
        value = VALUES[name][0]()
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))

    @pytest.mark.parametrize("source", DUAL_SOURCES)
    def test_duals_take_the_source_fields(self, source):
        p = DUAL_SOURCES[source]()
        line = dual_point_to_line(p)
        assert line == NonVerticalLine(p.x, p.y) and hash(line) == hash(NonVerticalLine(p.x, p.y))
        assert line.a is p.x and line.b is p.y
        back = dual_line_to_point(line)
        assert back == p and hash(back) == hash(p) and back.x is p.x and back.y is p.y

    def test_repr(self):
        assert repr(Point(Fraction(1, 2), 3)) == "Point(x=Fraction(1, 2), y=Fraction(3, 1))"
        assert repr(AffineMap(((2, 1), (0, Fraction(1, 3))), (5, -1))) == (
            "AffineMap(m=((Fraction(2, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 3))), "
            "t=(Fraction(5, 1), Fraction(-1, 1)))"
        )
        assert repr(Direction(2, -4)) == "Direction(dx=1, dy=-2)"
        assert repr(PolygonConfig(7)) == "PolygonConfig(vertices=7, with_center=False)"

    def test_equal_records_without_hash(self):
        make, same, other = VALUES["SpectrumReport"]
        assert make() == same() and make() != other() and not make() == other()
        with pytest.raises(TypeError):
            hash(make())

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (({},), {}),
            (({}, 1, 1), {}),
            (({},), {"extra": 0}),
            (({},), {"witnesses": {}}),
            (({},), {"counts": frozenset()}),
        ],
        ids=["missing", "extra", "unknown", "twice", "property"],
    )
    def test_record_constructor_refuses_wrong_fields(self, args, kwargs):
        with pytest.raises(TypeError, match="takes exactly the fields witnesses, vertical_count"):
            SpectrumReport(*args, **kwargs)
