"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints one `ACCEPTANCE <k> <name>: PASS|FAIL` line (visible with
``pytest -s`` or in captured output on failure).  All expectations are exact;
the stated runtime budgets are asserted where the criterion fixes one.
"""

import random
import time
from contextlib import contextmanager

import pytest

from dircover.checks import affine_check, duality_check, oracle_check, pinchasi_check
from dircover.cli import main
from dircover.counterexample import construct, verify
from dircover.geometry import dual_point_to_line
from dircover.polygon import (
    PolygonConfig,
    choose_rotation,
    instantiate_polygon,
    polygon_direction_count,
    polygon_spectrum_closed_form,
    polygon_spectrum_enumerated,
)
from dircover.randgen import random_point_set
from dircover.spectrum import spectrum, stab_spectrum, vertical_class_count

from support import float_crosscheck


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


# Every n up to 64 in both variants, and a sample across residues mod 4 and the extremes of phi(lcm(4, n)).
FAMILIES = (
    [(n, "plain") for n in range(7, 65)]
    + [(n, "center") for n in range(7, 65, 2)]
    + [(n, "plain") for n in (96, 99, 150, 151, 200, 201, 300)]
)


@pytest.fixture(scope="module")
def bundles():
    t0 = time.perf_counter()
    built = {family: construct(*family) for family in FAMILIES}
    return built, time.perf_counter() - t0


def test_01_heptagon_reproduction():
    with criterion(1, "heptagon reproduction"):
        t0 = time.perf_counter()
        cfg = PolygonConfig(7)
        assert all(polygon_direction_count(cfg, d) == 4 for d in range(7))
        bundle = construct(7)
        assert stab_spectrum(bundle.lines) == {4, 7}
        assert time.perf_counter() - t0 < 1.0


def test_02_theorem_reproduction(bundles):
    with criterion(2, "theorem reproduction for n in 7..64, both variants, and a sample up to 300"):
        built, build_time = bundles
        assert len(built) == 94
        t0 = time.perf_counter()
        for family, bundle in built.items():
            n = bundle.n
            report = verify(bundle.lines)
            assert report.pairwise_nonparallel, family
            assert report.nonconcurrent, family
            if family == (7, "center"):  # hexagon plus center: {3, 5, 7} holds n - 2, and the certificate says so
                assert report.stab_counts & {n - 1, n - 2} and report.verdict == "fail"
            else:
                assert not report.stab_counts & {n - 1, n - 2}, family
                assert report.verdict == "pass", family
            # spectrum transport: the family's stab set is the polygon's spectrum
            assert report.stab_counts == polygon_spectrum_enumerated(bundle.config), family
        assert build_time + time.perf_counter() - t0 < 60.0


def test_03_closed_forms(capsys):
    with criterion(3, "closed forms for cases 1-4"):
        for n in range(4, 51, 2):  # case 1: even n
            k = n // 2
            cfg = PolygonConfig(n)
            assert polygon_spectrum_enumerated(cfg) == {k, k + 1, 2 * k}
            assert polygon_spectrum_closed_form(cfg) == {k, k + 1, 2 * k}
        for n in range(3, 52, 2):  # case 2, corrected set
            k = n // 2
            cfg = PolygonConfig(n)
            assert polygon_spectrum_enumerated(cfg) == {k + 1, 2 * k + 1}
            assert polygon_spectrum_closed_form(cfg) == {k + 1, 2 * k + 1}
        for n in range(6, 51, 4):  # case 3: n = 4k+2 with center
            k = (n - 2) // 4
            cfg = PolygonConfig(n, with_center=True)
            expected = {2 * k + 1, 2 * k + 3, 4 * k + 3}
            assert polygon_spectrum_enumerated(cfg) == expected
            assert polygon_spectrum_closed_form(cfg) == expected
        for n in range(4, 49, 4):  # case 4: n = 4k with center
            k = n // 4
            cfg = PolygonConfig(n, with_center=True)
            expected = {2 * k + 1, 4 * k + 1}
            assert polygon_spectrum_enumerated(cfg) == expected
            assert polygon_spectrum_closed_form(cfg) == expected
        # the CLI emits the documented discrepancy note for the odd case
        assert main(["polygon", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "discrepancy note" in out and "{k, 2k+1}" in out


def test_04_duality_lemma_suite():
    with criterion(4, "duality lemma property suite"):
        t0 = time.perf_counter()
        report = duality_check(42)
        assert report.passed == 11000 and report.failed == 0
        assert time.perf_counter() - t0 < 5.0


def test_05_duality_transport():
    with criterion(5, "duality transport"):
        rng = random.Random(2024)
        checked_distinct = 0
        trial = 0
        while checked_distinct < 100:
            size = 3 + trial % 6
            trial += 1
            pts = random_point_set(rng, size, 50)
            if vertical_class_count(pts) != len(pts):
                continue
            lines = [dual_point_to_line(p) for p in pts]
            assert spectrum(pts).counts == stab_spectrum(lines)
            checked_distinct += 1
        for k in range(50):  # engineered repeated-x sets
            size = 4 + k % 5
            pts = random_point_set(rng, size, 50)
            forced = list(pts)
            forced[-1] = type(pts[0])(pts[0].x, pts[-1].y)
            if forced[-1] in pts[:-1]:
                continue
            lines = [dual_point_to_line(p) for p in forced]
            adjoined = stab_spectrum(lines) | {vertical_class_count(forced)}
            assert spectrum(forced).counts == adjoined


def test_06_affine_invariance():
    with criterion(6, "affine invariance"):
        report = affine_check(7)
        assert report.passed == 100 and report.failed == 0


def test_07_oracle_equivalence():
    with criterion(7, "oracle equivalence"):
        report = oracle_check(11, size=8)
        assert report.passed == 200 and report.failed == 0


def test_08_pinchasi_bound():
    with criterion(8, "pinchasi bound"):
        report = pinchasi_check(42)  # 100 sets of each size 3..12
        assert report.passed == 1000 and report.failed == 0
        # the heptagon attains the bound with equality
        heptagon_counts = polygon_spectrum_enumerated(PolygonConfig(7))
        assert max(heptagon_counts - {7}) == 4 == (7 + 1) // 2


def test_09_float_crosscheck(bundles):
    with criterion(9, "float cross-check"):
        built, _ = bundles
        for n in range(7, 25):
            bundle = built[n, "plain"]
            counts, inconclusive = float_crosscheck(bundle.lines)
            assert not inconclusive, n
            assert counts == bundle.certificate.stab_counts, n


def test_10_negative_control():
    with criterion(10, "negative control for n = 4, 5, 6"):
        for n in (4, 5, 6):
            cfg = PolygonConfig(n)
            pts = instantiate_polygon(cfg, choose_rotation(cfg))
            counts = stab_spectrum([dual_point_to_line(p) for p in pts])
            assert counts & {n - 1, n - 2}, (n, counts)
            with pytest.raises(ValueError):
                construct(n)
        assert stab_spectrum(
            [dual_point_to_line(p) for p in instantiate_polygon(PolygonConfig(4), choose_rotation(PolygonConfig(4)))]
        ) == {2, 3, 4}
