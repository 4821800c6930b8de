"""Oracle, random generation, and check-suite tests."""

import pytest

from dircover.checks import affine_check, duality_check, oracle_check, pinchasi_check
from dircover.errors import DegenerateInputError
from dircover.field import zeta
from dircover.geometry import Point
from dircover.oracle import oracle_spectrum
from dircover.randgen import (
    RandomConfig,
    make_rng,
    random_invertible_map,
    random_point_set,
    random_rational,
)
from dircover.spectrum import spectrum

SQUARE = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]


class TestOracle:
    def test_square(self):
        assert oracle_spectrum(SQUARE) == {2, 3, 4}

    def test_three_collinear(self):
        assert oracle_spectrum([Point(0, 0), Point(1, 1), Point(2, 2)]) == {1, 3}

    def test_matches_engine_on_seeded_set(self):
        rng = make_rng(RandomConfig(seed=7))
        pts = random_point_set(rng, 6)
        assert oracle_spectrum(pts) == spectrum(pts).counts

    def test_size_cap(self):
        pts = [Point(i, i * i) for i in range(11)]
        with pytest.raises(DegenerateInputError):
            oracle_spectrum(pts)

    def test_rational_only(self):
        with pytest.raises(DegenerateInputError):
            oracle_spectrum([Point(zeta(5), zeta(5, 2)), Point(zeta(5, 3), zeta(5, 4))])

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(DegenerateInputError):
            oracle_spectrum([Point(1, 1), Point(1, 1)])
        with pytest.raises(DegenerateInputError):
            oracle_spectrum([])


class TestRandGen:
    def test_deterministic_generation(self):
        cfg = RandomConfig(seed=123, size=5)
        a = random_point_set(make_rng(cfg), cfg.size, cfg.coordinate_bound)
        b = random_point_set(make_rng(cfg), cfg.size, cfg.coordinate_bound)
        assert a == b

    def test_points_are_distinct(self):
        pts = random_point_set(make_rng(RandomConfig(seed=5)), 30, 5)
        assert len(set(pts)) == 30

    def test_rational_bounds(self):
        rng = make_rng(RandomConfig(seed=11))
        for _ in range(200):
            q = random_rational(rng, 10)
            assert abs(q.numerator) <= 10 * q.denominator <= 100

    def test_random_map_is_invertible(self):
        rng = make_rng(RandomConfig(seed=3))
        for _ in range(20):
            amap = random_invertible_map(rng, 8)
            (m00, m01), (m10, m11) = amap.m
            assert m00 * m11 - m01 * m10 != 0


class TestCheckSuites:
    def test_duality_report(self):
        rep = duality_check(RandomConfig(seed=42, count=300))
        assert rep.ok and rep.passed == 330
        assert rep.summary() == "RESULT pass=330 fail=0 skip=0"

    def test_duality_reports_are_reproducible(self):
        cfg = RandomConfig(seed=99, count=100)
        assert duality_check(cfg).render() == duality_check(cfg).render()

    def test_pinchasi_small_run(self):
        rep = pinchasi_check(RandomConfig(seed=4, count=40, size=4))
        assert rep.ok and rep.passed == 40
        assert "collinear_rejected" in rep.render()

    def test_pinchasi_needs_three_points(self):
        with pytest.raises(ValueError):
            pinchasi_check(RandomConfig(seed=1, size=2))

    def test_pinchasi_known_values(self):
        assert max(spectrum(SQUARE).counts - {4}) == 3 >= (4 + 1) // 2

    def test_affine_small_run(self):
        rep = affine_check(RandomConfig(seed=8, count=20, size=5))
        assert rep.ok and rep.passed == 20

    def test_oracle_small_run(self):
        rep = oracle_check(RandomConfig(seed=2, count=30, size=7))
        assert rep.ok and rep.passed == 30

    def test_render_ends_with_summary(self):
        rep = affine_check(RandomConfig(seed=8, count=3, size=4))
        assert rep.render().splitlines()[-1].startswith("RESULT pass=")
