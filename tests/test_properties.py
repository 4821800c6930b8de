"""Property-based tests for the algebraic and geometric invariants."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dircover.field import CycloElement, _real_bounds, approx_str, euler_phi
from dircover.geometry import (
    Direction,
    NonVerticalLine,
    Point,
    affine_apply,
    collinear,
    concurrent_family,
    cross,
    dual_line_to_point,
    dual_point_to_line,
    incident,
)
from dircover.oracle import oracle_spectrum
from dircover.randgen import random_invertible_map
from dircover.spectrum import (
    lines_in_direction,
    pair_directions,
    spectrum,
    stab_spectrum,
    vertical_class_count,
)

from support import coefficients, zeta

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=8)
coords = st.fractions(min_value=-20, max_value=20, max_denominator=10)
points = st.builds(Point, coords, coords)
# zero, small signed values and numerators and denominators far past machine words
exact = st.one_of(
    st.just(Fraction(0)),
    coords,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
lattice_points = st.builds(Point, st.integers(-3, 3), st.integers(-3, 3))
orders = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12])


@st.composite
def cyclo_batch(draw, size: int):
    """A tuple of `size` elements sharing one cyclotomic order."""
    n = draw(orders)
    out = []
    for _ in range(size):
        length = draw(st.integers(min_value=1, max_value=euler_phi(n) + 2))
        out.append(CycloElement(n, [draw(small_rationals) for _ in range(length)]))
    return tuple(out)


def distinct(pts):
    return len(set(pts)) == len(pts)


class TestRingLaws:
    @settings(max_examples=80, deadline=None)
    @given(cyclo_batch(3))
    def test_ring_axioms(self, batch):
        a, b, c = batch
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert a - a == 0

    @settings(max_examples=60, deadline=None)
    @given(cyclo_batch(2))
    def test_conjugation_is_a_ring_homomorphism(self, batch):
        a, b = batch
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a

    @settings(max_examples=60, deadline=None)
    @given(cyclo_batch(1))
    def test_real_part_is_conjugation_fixed(self, batch):
        (a,) = batch
        real = a + a.conjugate()
        assert real.conjugate() == real

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 4, 5, 6, 7, 9, 12]), st.integers(min_value=0, max_value=30))
    def test_root_powers_cancel(self, n, k):
        assert zeta(n, k) * zeta(n, n - (k % n)) == 1

    @settings(max_examples=40, deadline=None)
    @given(cyclo_batch(2))
    def test_numeric_embedding_respects_products(self, batch):
        a, b = (x + x.conjugate() for x in batch)  # real elements, so Re(ab) = Re(a) Re(b)
        (sab, eab, dab), (sa, ea, da), (sb, eb, db) = (_real_bounds(x, 160) for x in (a * b, a, b))
        lhs = Fraction(sab, dab)
        rhs = Fraction(sa, da) * Fraction(sb, db)
        # the two enclosures meet, and their midpoints agree to the old tolerance
        ra, rb = Fraction(ea, da), Fraction(eb, db)
        radius = Fraction(eab, dab) + ra * abs(Fraction(sb, db)) + rb * (abs(Fraction(sa, da)) + ra)
        assert abs(lhs - rhs) <= radius and abs(lhs - rhs) < Fraction(1, 10**20)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 7, 12, 24, 48, 124]),
        st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=70),
        st.integers(1, 10**20),
    )
    def test_approx_error_bounds_the_approximation(self, n, nums, den):
        import mpmath

        a = CycloElement(n, [Fraction(v, den) for v in nums])
        total = sum(abs(c) for c in coefficients(a))
        s, e, d = _real_bounds(a, 138)
        assert a.is_rational() or Fraction(e, d) == total / 2**138  # radius M * 2**-138

        with mpmath.workprec(400):
            # independent reference: the sum of c_k cos(2 pi k / n), within M * 2**-390 at 400 bits
            reference = mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * k / n)
                for k, c in enumerate(coefficients(a))
            )
            slack = Fraction(e, d) + total / 2**390
            assert abs(mpmath.mpf(s) / d - reference) <= mpmath.mpf(slack.numerator) / slack.denominator

    @settings(max_examples=40, deadline=None)
    @given(cyclo_batch(1))
    def test_zero_elements_evaluate_to_zero(self, batch):
        (a,) = batch
        z = a - a
        assert z == 0 and _real_bounds(z, 64) == (0, 0, 1) and approx_str(z, 12) == "0.0"


def assert_normal(e: CycloElement) -> None:
    """The one normal form: phi(n) numerators over a positive denominator, jointly coprime."""
    assert len(e._num) == euler_phi(e.order)
    assert e._den > 0 and gcd(e._den, *e._num) == 1
    assert any(e._num) or e._den == 1


class TestNormalForm:
    @settings(max_examples=80, deadline=None)
    @given(cyclo_batch(2), small_rationals, st.integers(0, 30))
    def test_every_operation_returns_the_normal_form(self, batch, r, k):
        a, b = batch
        n = a.order
        made = [a, b, CycloElement.from_rational(n, r), zeta(n, k), a + b, a - b, r - a, a - r]
        made += [a * b, -a, a.conjugate(), a * a, a - a]
        for x in made:
            assert_normal(x)
        assert a - b == a + (-b)
        assert r - a == -(a - r)


class TestDualityLemma:
    @settings(max_examples=200, deadline=None)
    @given(points, points)
    def test_incidence_symmetry(self, p, q):
        assert incident(p, dual_point_to_line(q)) == incident(q, dual_point_to_line(p))

    @settings(max_examples=100, deadline=None)
    @given(coords, coords, coords)
    def test_engineered_incidence(self, a, b, x):
        q = Point(a, b)
        p = Point(x, -(a * x + b))
        assert incident(p, dual_point_to_line(q))
        assert incident(q, dual_point_to_line(p))

    @settings(max_examples=300, deadline=None)
    @given(exact, exact, exact, exact)
    def test_integer_incidence_is_the_fraction_expression(self, x, y, a, b):
        assert incident(Point(x, y), NonVerticalLine(a, b)) == (y + a * x + b == 0)

    @settings(max_examples=200, deadline=None)
    @given(exact, exact, exact)
    def test_integer_incidence_on_engineered_pairs(self, x, a, b):
        y = -(a * x + b)
        assert incident(Point(x, y), NonVerticalLine(a, b))
        assert not incident(Point(x, y + Fraction(1, 10**40)), NonVerticalLine(a, b))

    @settings(max_examples=100, deadline=None)
    @given(points)
    def test_round_trip(self, p):
        assert dual_line_to_point(dual_point_to_line(p)) == p


class TestConcurrency:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(coords, coords), min_size=3, max_size=5, unique=True))
    def test_against_pairwise_intersection_comparator(self, coeffs):
        lines = [NonVerticalLine(a, b) for a, b in coeffs]
        slopes = [l.a for l in lines]
        if len(set(slopes)) < len(slopes):
            return  # comparator below assumes pairwise non-parallel
        # brute force: all pairwise intersection points coincide?
        def meet(l1, l2):
            x = (l1.b - l2.b) / (l2.a - l1.a)
            return (x, -(l1.a * x + l1.b))

        base = meet(lines[0], lines[1])
        brute = all(
            meet(lines[i], lines[j]) == base
            for i in range(len(lines))
            for j in range(i + 1, len(lines))
        )
        assert concurrent_family(lines) == brute

    @settings(max_examples=60, deadline=None)
    @given(points, st.lists(coords, min_size=3, max_size=6, unique=True))
    def test_pencil_through_a_point_is_concurrent(self, apex, slopes):
        lines = [NonVerticalLine(a, -(apex.y + a * apex.x)) for a in slopes]
        assert concurrent_family(lines)
        assert all(incident(apex, l) for l in lines)


class TestSpectrumInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=7, unique=True))
    def test_counts_shape(self, pts):
        rep = spectrum(pts)
        n = len(pts)
        assert n in rep.counts
        assert max(rep.counts) == n
        assert min(rep.counts) >= 1
        is_collinear = n == 1 or all(collinear(pts[0], pts[1], p) for p in pts[2:])
        assert (1 in rep.counts) == (is_collinear or n == 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=2, max_size=7, unique=True))
    def test_witnesses_partition_and_match_counts(self, pts):
        rep = spectrum(pts)
        for count, part in rep.witnesses.items():
            assert len(part.groups) == count
            flat = [p for g in part.groups for p in g]
            assert len(flat) == len(pts) and set(flat) == set(pts)
            d = part.direction
            for g in part.groups:
                for p in g:
                    for q in g:
                        assert (q.x - p.x) * d.dy - (q.y - p.y) * d.dx == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=6, unique=True))
    def test_oracle_equivalence(self, pts):
        assert spectrum(pts).counts == oracle_spectrum(pts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=7, unique=True))
    def test_duality_transport(self, pts):
        lines = [dual_point_to_line(p) for p in pts]
        transported = stab_spectrum(lines) | {vertical_class_count(pts)}
        assert spectrum(pts).counts == transported
        if vertical_class_count(pts) == len(pts):
            assert spectrum(pts).counts == stab_spectrum(lines)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=2, max_size=6, unique=True), st.integers(0, 2**32 - 1))
    def test_affine_invariance(self, pts, seed):
        amap = random_invertible_map(random.Random(seed), 9)
        image = affine_apply(amap, pts)
        assert distinct(image)
        assert spectrum(image).counts == spectrum(pts).counts

    @settings(max_examples=60, deadline=None)
    @given(st.lists(lattice_points, min_size=3, max_size=12, unique=True))
    def test_ungar_direction_bound(self, pts):
        # Ungar (1982): n non-collinear points determine at least 2*floor(n/2)
        # directions, a bound on the class count independent of the counting.
        assume(not all(collinear(pts[0], pts[1], p) for p in pts[2:]))
        assert len(pair_directions(pts)) >= 2 * (len(pts) // 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=2, max_size=6, unique=True))
    def test_every_chord_direction_collapses_its_pair(self, pts):
        for (dx, dy), c in pair_directions(pts).items():
            part = lines_in_direction(pts, Direction(dx, dy))
            assert len(part.groups) == c <= len(pts) - 1


class TestDirectionCanonicalization:
    @settings(max_examples=80, deadline=None)
    @given(coords, coords)
    def test_canonical_form_is_projectively_equal(self, dx, dy):
        if dx == 0 and dy == 0:
            return
        d = Direction(dx, dy)
        assert cross(d.dx, d.dy, dx, dy) == 0
        assert Direction(d.dx, d.dy) == d
        assert d.dx > 0 or (d.dx == 0 and d.dy == 1)
        assert d.dx.denominator == 1 and d.dy.denominator == 1

    @settings(max_examples=150, deadline=None)
    @given(coords, coords, coords, coords, st.booleans(), small_rationals.filter(bool))
    def test_equality_and_hash_mean_parallel(self, ux, uy, vx, vy, scaled, k):
        if scaled:  # random pairs are rarely parallel, so half the examples are scaled copies
            vx, vy = k * ux, k * uy
        assume((ux, uy) != (0, 0) and (vx, vy) != (0, 0))
        u, v = Direction(ux, uy), Direction(vx, vy)
        assert (u == v) == (cross(ux, uy, vx, vy) == 0)
        assert u != v or hash(u) == hash(v)
        p, q = Point(ux, uy), Point(vx, vy)
        if p != q:
            assert Direction.between(p, q) == Direction.between(q, p)
