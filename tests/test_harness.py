"""Oracle, random generation, and check-suite tests."""

import ast
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import dircover
from dircover import checks, randgen
from dircover.checks import SUITES, affine_check, duality_check, oracle_check, pinchasi_check
from dircover.cli import build_parser
from dircover.errors import DegenerateInputError
from dircover.geometry import Point, collinear
from dircover.oracle import oracle_spectrum
from dircover.randgen import _rationals, random_invertible_map, random_point_set
from dircover.spectrum import spectrum

from support import zeta

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

SQUARE = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]


class TestOracle:
    def test_square(self):
        assert oracle_spectrum(SQUARE) == {2, 3, 4}

    def test_three_collinear(self):
        assert oracle_spectrum([Point(0, 0), Point(1, 1), Point(2, 2)]) == {1, 3}

    def test_matches_engine_on_seeded_set(self):
        pts = random_point_set(random.Random(7), 6, 50)
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

    def test_duplicate_names_the_first_pair(self):
        # the first position that repeats, and where it first repeats; Fraction(2, 4) is 1/2
        a, b = Point(Fraction(1, 2), 3), Point(0, 0)
        pts = [a, b, Point(0, 0), Point(Fraction(2, 4), 3), b]
        with pytest.raises(DegenerateInputError, match=r"^duplicate point at positions 0 and 3$"):
            oracle_spectrum(pts)


class TestRandGen:
    def test_deterministic_generation(self):
        a = random_point_set(random.Random(123), 5, 50)
        b = random_point_set(random.Random(123), 5, 50)
        assert a == b

    def test_points_are_distinct(self):
        pts = random_point_set(random.Random(5), 30, 5)
        assert len(set(pts)) == 30

    def test_rational_bounds(self):
        for q in _rationals(random.Random(11), 10, 200):
            assert abs(q.numerator) <= 10 * q.denominator <= 100

    @pytest.mark.parametrize("bound", [1, 2, 3, 50, 31, 32, 33, 2**64 - 1, 2**64, 2**64 + 1, 10**30])
    def test_draws_replay_randint(self, bound):
        # draws go through getrandbits as randint does: same numbers, same state after, also once
        # more distinct pairs than the Fraction cache holds have been drawn, so it is full
        mine, theirs = random.Random(bound), random.Random(bound)
        for q in _rationals(mine, 10**9, randgen._FRACTION_CACHE_SIZE + 100):
            assert q == Fraction(theirs.randint(-(10**9), 10**9), theirs.randint(1, 10**9))
        assert [len(cache) for cache in randgen._FRACTIONS.values()] == [randgen._FRACTION_CACHE_SIZE]
        assert mine.getstate() == theirs.getstate()
        for seed in range(200):
            mine, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert next(_rationals(mine, bound, 1)) == Fraction(theirs.randint(-bound, bound), theirs.randint(1, bound))
            assert mine.getstate() == theirs.getstate()
        assert all(len(cache) <= randgen._FRACTION_CACHE_SIZE for cache in randgen._FRACTIONS.values())

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 1000])
    def test_batches_replay_randint_pairs(self, count):
        # a batch of count draws is count randint pairs, and leaves randint's state; the bounds go
        # up and back down, so a batch follows one at another bound and meets that bound's keys
        bounds = [1, 2, 3, 50, 63, 64, 2**64 - 1, 2**64 + 1, 10**30]
        for bound in bounds + bounds[::-1]:
            mine, theirs = random.Random(count + bound), random.Random(count + bound)
            for _ in range(2):
                batch = list(_rationals(mine, bound, count))
                assert batch == [Fraction(theirs.randint(-bound, bound), theirs.randint(1, bound)) for _ in range(count)]
                assert mine.getstate() == theirs.getstate()
            # a batch left part way leaves the state of the draws taken
            draws = _rationals(mine, bound, count + 2)
            assert next(draws) == Fraction(theirs.randint(-bound, bound), theirs.randint(1, bound))
            assert mine.getstate() == theirs.getstate()
            assert len(randgen._FRACTIONS[bound]) <= randgen._FRACTION_CACHE_SIZE

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_point_sets_replay_point_by_point_randint(self, bound):
        # at bounds 1 to 3 there are 9, 49 and 225 distinct points, so redraws are frequent, and
        # a set of more points than exist raises after as many misses as the point-by-point loop
        def reference(rng, size):
            pts, seen, misses = [], set(), 0
            while len(pts) < size:
                p = Point(*(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(2)))
                if p in seen:
                    misses += 1
                    if misses > 100 * size + 1000:
                        raise ValueError("coordinate bound too small for requested set size")
                    continue
                seen.add(p)
                pts.append(p)
            return pts

        distinct = {1: 9, 2: 49, 3: 225}[bound]
        for size in [0, 1, 2, 5, 9, distinct, distinct + 1]:
            for seed in range(3):
                mine, theirs = random.Random(seed), random.Random(seed)
                try:
                    expected = reference(theirs, size)
                except ValueError:
                    with pytest.raises(ValueError, match="coordinate bound too small"):
                        random_point_set(mine, size, bound)
                    assert size > distinct
                else:
                    assert random_point_set(mine, size, bound) == expected
                assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("bound", [1, 50, 51, 10**30])
    def test_cached_draws_are_in_lowest_terms(self, bound):
        # the cache keeps the first pairs drawn since the bound changed, so from an empty one a second
        # run of the same seed is served from it: the same instances, still reduced, and it stays bounded
        def draws():
            rng = random.Random(bound)
            return list(_rationals(rng, bound, 1000))

        randgen._FRACTIONS.clear()
        first, again = draws(), draws()
        assert all(q is r for q, r in zip(first, again))
        assert len(randgen._FRACTIONS[bound]) <= min(1000, randgen._FRACTION_CACHE_SIZE)
        for q in first:
            n, d = q.as_integer_ratio()
            assert d > 0 and gcd(n, d) == 1 and abs(n) <= bound * d

    def test_bound_below_one_raises_at_once(self):
        # getrandbits(0) is 0, so a draw below a width of 0 would never end; run it where a hang times out
        code = (
            "import random\n"
            "from dircover.checks import duality_check\n"
            "from dircover.randgen import _rationals, random_invertible_map, random_point_set\n"
            "draws = [lambda rng, b: next(_rationals(rng, b, 1)), lambda rng, b: random_point_set(rng, 1, b),\n"
            "         random_invertible_map, lambda rng, b: duality_check(0, trials=1, bound=b)]\n"
            "for bound in (0, -1, -2, -50, -(2**70)):\n"
            "    for draw in draws:\n"
            "        try:\n"
            "            draw(random.Random(bound), bound)\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit(f'no ValueError at bound {bound}')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
        assert done.returncode == 0, done.stderr

    def test_random_map_is_invertible(self):
        # four entries until the matrix is nonsingular (often redrawn at bound 1), then the
        # translation: the randint draws of one entry at a time, and randint's state after
        def coord(rng):
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

        for bound in (1, 8):
            rng, theirs = random.Random(3), random.Random(3)
            for _ in range(20):
                amap = random_invertible_map(rng, bound)
                (m00, m01), (m10, m11) = amap.m
                assert m00 * m11 - m01 * m10 != 0
                m = [coord(theirs) for _ in range(4)]
                while m[0] * m[3] - m[1] * m[2] == 0:
                    m = [coord(theirs) for _ in range(4)]
                assert [m00, m01, m10, m11] == m and list(amap.t) == [coord(theirs), coord(theirs)]
                assert rng.getstate() == theirs.getstate()


class TestCheckSuites:
    def test_duality_report(self):
        rep = duality_check(42, trials=300)
        assert rep.ok and rep.passed == 330
        assert rep.summary() == "RESULT pass=330 fail=0 skip=0"

    def test_duality_reports_are_reproducible(self):
        assert duality_check(99, trials=100).render() == duality_check(99, trials=100).render()

    def test_pinchasi_small_run(self):
        rep = pinchasi_check(4, trials=40)
        assert rep.ok and rep.passed == 40
        assert "collinear_rejected" in rep.render()

    def test_collinear_iff_one_line_covers(self):
        # pinchasi_check skips a draw as collinear when 1 is in its spectrum
        rng = random.Random(5)
        seen = set()
        for bound in (1, 2, 3):
            for size in range(3, 13 if bound > 1 else 10):  # bound 1 has only 9 points
                for _ in range(20):
                    pts = random_point_set(rng, size, bound)
                    flat = all(collinear(pts[0], pts[1], p) for p in pts[2:])
                    assert (1 in spectrum(pts).counts) == flat, pts
                    seen.add(flat)
        assert seen == {True, False}

    def test_pinchasi_counts_are_the_spectrum_counts(self, monkeypatch):
        # the suite reads I(Q) from the classing entry point; every set it draws must give spectrum's counts
        drawn = 0
        kernel = checks.pair_directions

        def compared(pts):
            nonlocal drawn
            drawn += 1
            classes = kernel(pts)
            assert {len(pts)} | set(classes.values()) == spectrum(pts).counts, pts
            return classes

        monkeypatch.setattr(checks, "pair_directions", compared)
        for seed in (3, 42):
            rep = pinchasi_check(seed)
            assert rep.passed == 1000 and rep.ok
        assert drawn >= 2000

    def test_pinchasi_known_values(self):
        assert max(spectrum(SQUARE).counts - {4}) == 3 >= (4 + 1) // 2

    def test_affine_small_run(self):
        rep = affine_check(8, trials=20, size=5)
        assert rep.ok and rep.passed == 20

    def test_oracle_small_run(self):
        rep = oracle_check(2, trials=30, size=7)
        assert rep.ok and rep.passed == 30

    def test_render_ends_with_summary(self):
        rep = affine_check(8, trials=3, size=4)
        assert rep.render().splitlines()[-1].startswith("RESULT pass=")


class TestChecksWorkload:
    """The benchmark's ``checks`` workload expects each suite's pass count at
    its default trials; this reads ``CHECK_PASSES`` without importing bench/."""

    @staticmethod
    def check_passes() -> dict:
        tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CHECK_PASSES"]:
                return ast.literal_eval(node.value)
        raise AssertionError(f"no CHECK_PASSES in {WORKLOADS}")

    def test_suite_names_agree(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command").choices["check"]
        choices = next(a for a in sub._actions if a.dest == "suite").choices
        assert set(self.check_passes()) == set(SUITES) == set(choices)

    def test_default_trials_give_the_expected_passes(self):
        for name, passes in self.check_passes().items():
            trials = inspect.signature(SUITES[name]).parameters["trials"].default
            assert passes == (trials + trials // 10 if name == "duality" else trials), name
