"""Construction and certification tests for the dual line families."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dircover.counterexample import (
    CounterexampleBundle,
    construct,
    family_config,
    read_bundle,
    verify,
    write_bundle,
)
from dircover.cli import main
from dircover.errors import ParseError
from dircover.field import CycloElement, cyclotomic_poly
from dircover.geometry import AffineMap, NonVerticalLine, Point, affine_apply, dual_point_to_line
from dircover.polygon import PolygonConfig, RationalRotation, choose_rotation, instantiate_polygon
from dircover.spectrum import stab_spectrum

from support import float_crosscheck, zeta


def sheared_square_lines():
    shear = AffineMap(((1, Fraction(1, 3)), (0, 1)))
    square = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
    return [dual_point_to_line(p) for p in affine_apply(shear, square)]


class TestConstruct:
    def test_heptagon_family(self):
        bundle = construct(7)
        assert len(bundle.lines) == 7
        assert bundle.field_order == 28
        assert bundle.certificate.stab_counts == {4, 7}
        assert bundle.certificate.verdict == "pass"
        assert bundle.certificate.forbidden == {5, 6}
        assert not bundle.certificate.forbidden_hit

    def test_even_case(self):
        assert construct(8).certificate.stab_counts == {4, 5, 8}

    def test_odd_case_corrected(self):
        assert construct(9).certificate.stab_counts == {5, 9}

    def test_lines_are_duals_of_the_instantiated_polygon(self):
        bundle = construct(7)
        pts = instantiate_polygon(bundle.config, bundle.rotation)
        assert bundle.lines == tuple(dual_point_to_line(p) for p in pts)

    def test_center_variant_n7_is_honestly_failing(self):
        # hexagon + center has spectrum {3, 5, 7}, which contains n-2 = 5
        bundle = construct(7, variant="center")
        assert bundle.config == PolygonConfig(6, with_center=True)
        assert bundle.certificate.stab_counts == {3, 5, 7}
        assert bundle.certificate.forbidden_hit == {5}
        assert bundle.certificate.verdict == "fail"

    def test_center_variant_n11_passes(self):
        bundle = construct(11, variant="center")
        assert bundle.certificate.stab_counts == {5, 7, 11}
        assert bundle.certificate.verdict == "pass"

    def test_center_variant_n9_passes(self):
        bundle = construct(9, variant="center")
        assert bundle.config == PolygonConfig(8, with_center=True)
        assert bundle.certificate.stab_counts == {5, 9}
        assert bundle.certificate.verdict == "pass"

    def test_gate_and_variant_errors(self):
        with pytest.raises(ValueError):
            construct(6)
        with pytest.raises(ValueError):
            construct(8, variant="center")
        with pytest.raises(ValueError):
            construct(7, variant="bogus")

    def test_size_bound_admits_300(self):
        assert family_config(300) == PolygonConfig(300)
        assert family_config(299, "center") == PolygonConfig(298, with_center=True)
        with pytest.raises(ValueError, match="n <= 300"):
            family_config(301)


class TestVerify:
    def test_concurrent_family_fails_without_meet_point(self):
        lines = [dual_point_to_line(Point(k, 2 * k + 1)) for k in range(3)]  # duals of collinear pts
        report = verify(lines)
        assert report.pairwise_nonparallel
        assert not report.nonconcurrent
        assert report.to_json()["concurrency_witness"] is None
        assert report.verdict == "fail"

    def test_sheared_square_hits_forbidden(self):
        report = verify(sheared_square_lines())
        assert report.stab_counts == {2, 3, 4}
        assert report.forbidden == {3, 2}
        assert report.forbidden_hit == {2, 3}
        assert report.verdict == "fail"

    def test_parallel_pair_reported(self):
        lines = [NonVerticalLine(1, 0), NonVerticalLine(2, 0), NonVerticalLine(1, 5)]
        report = verify(lines)
        assert not report.pairwise_nonparallel
        assert report.parallel_witness == (0, 2)
        assert report.verdict == "fail"

    def test_mixed_domains_give_the_rational_report(self):
        # verify refuses no mix of domains: one line embedded in Q(zeta_12) changes no field
        lines = sheared_square_lines()
        mixed = list(lines)
        mixed[2] = NonVerticalLine(*(CycloElement.from_rational(12, s) for s in (lines[2].a, lines[2].b)))
        assert isinstance(mixed[2].a, CycloElement)
        assert verify(mixed) == verify(lines)


class TestNegativeControl:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_small_polygons_hit_the_forbidden_counts(self, n):
        cfg = PolygonConfig(n)
        pts = instantiate_polygon(cfg, choose_rotation(cfg))
        counts = stab_spectrum([dual_point_to_line(p) for p in pts])
        assert counts & {n - 1, n - 2}


class TestFloatCrosscheck:
    def test_heptagon(self):
        assert float_crosscheck(construct(7).lines) == ({4, 7}, ())

    def test_twelve(self):
        assert float_crosscheck(construct(12).lines) == ({6, 7, 12}, ())

    def test_single_line(self):
        assert float_crosscheck([NonVerticalLine(1, 2)]) == ({1}, ())

    def test_ambiguous_gap_is_inconclusive(self):
        # at the meet of the first two lines a third line passes 5e-6 away:
        # inside [eps, 10*eps) for eps = 1e-6, so the abscissa must be flagged
        tiny = Fraction(1, 200000)
        lines = [NonVerticalLine(0, 0), NonVerticalLine(1, 0), NonVerticalLine(0, -tiny)]
        counts, inconclusive = float_crosscheck(lines)
        assert inconclusive
        assert counts == {3}


class TestBundleIO:
    @pytest.mark.parametrize(
        "n, variant", [(7, "plain"), (8, "plain"), (24, "plain"), (9, "center")], ids=["7", "8", "24", "center-9"]
    )
    def test_round_trip(self, tmp_path, n, variant):
        bundle = construct(n, variant)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert loaded.n == bundle.n == n
        assert loaded.config == bundle.config
        assert loaded.rotation == bundle.rotation
        assert loaded.field_order == bundle.field_order
        assert loaded.lines == bundle.lines
        assert loaded.certificate is None and loaded.approx_lines == ()
        assert verify(loaded.lines) == bundle.certificate
        assert bundle.certificate.verdict == "pass"

    def test_tampered_bundle_fails_verification(self, tmp_path):
        bundle = construct(7)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["lines"][1]["a"] = doc["lines"][0]["a"]  # duplicate a slope
        path.write_text(json.dumps(doc))
        report = verify(read_bundle(path).lines)
        assert not report.pairwise_nonparallel
        assert report.verdict == "fail"

    def test_non_real_coefficients_are_refused(self, tmp_path, capsys):
        # Scaling every slope by i preserves every predicate verify checks, so
        # only the reader can see that these are not real lines.
        bundle = construct(24)
        iu = zeta(24, 6)
        turned = CounterexampleBundle(
            config=bundle.config,
            rotation=bundle.rotation,
            lines=tuple(NonVerticalLine(line.a * iu, line.b) for line in bundle.lines),
            certificate=bundle.certificate,
            approx_lines=bundle.approx_lines,
        )
        assert verify(turned.lines).verdict == "pass"
        path = tmp_path / "bundle.json"
        write_bundle(turned, path)
        with pytest.raises(ParseError, match="line 0 a: coefficient is not real"):
            read_bundle(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 0 a: coefficient is not real\n"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_bundle(path)

    def test_wrong_vector_length(self, tmp_path):
        bundle = construct(7)
        path = tmp_path / "bundle.json"
        write_bundle(bundle, path)
        doc = json.loads(path.read_text())
        doc["lines"][0]["a"] = doc["lines"][0]["a"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_bundle(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(n=8),
            lambda doc: doc["config"].update(vertices=8),
            lambda doc: doc["config"].update(with_center=True),
            lambda doc: doc.update(field_order=56),
            lambda doc: doc["lines"].pop(),
        ],
        ids=["n", "vertices", "with_center", "field_order", "line_count"],
    )
    def test_header_mismatch(self, tmp_path, capsys, edit):
        path = tmp_path / "bundle.json"
        write_bundle(construct(7), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_bundle(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 7.9),
            ("n", 7.0),
            ("n", "7"),
            ("n", True),
            ("vertices", "6"),
            ("vertices", 6.0),
            ("with_center", "no"),
            ("with_center", 1),
            ("field_order", "12"),
            ("field_order", False),
        ],
    )
    def test_header_fields_are_not_cast(self, tmp_path, capsys, key, value):
        # A --n 7 --variant center bundle: 6 vertices plus the center, field order 12.
        path = tmp_path / "bundle.json"
        write_bundle(construct(7, variant="center"), path)
        doc = json.loads(path.read_text())
        (doc["config"] if key in ("vertices", "with_center") else doc)[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="must be JSON integers"):
            read_bundle(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: n, vertices") and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, place, token",
        [
            (lambda doc: doc["lines"][0]["a"].__setitem__(0, "0.5"), "line 0 a", "'0.5'"),
            (lambda doc: doc["lines"][23]["b"].__setitem__(3, "1/0"), "line 23 b", "'1/0'"),
            (lambda doc: doc["rotation"].update(c="x"), "rotation c", "'x'"),
            (lambda doc: doc["rotation"].update(s=None), "rotation s", "'None'"),
        ],
        ids=["coefficient", "zero_denominator", "rotation", "rotation_not_a_string"],
    )
    def test_bad_token_names_file_and_place(self, tmp_path, capsys, edit, place, token):
        path = tmp_path / "bundle.json"
        write_bundle(construct(24), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {place}: ") and token in err
        assert "Traceback" not in err and err.count(str(path)) == 1

    def test_overlong_coefficient_names_file_and_place(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        write_bundle(construct(24), path)
        doc = json.loads(path.read_text())
        doc["lines"][5]["b"][2] = "1/" + "7" * 5000
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 5 b: integer of 5000 digits exceeds the 4300-digit limit")
        assert "set_int_max_str_digits" not in err and "Traceback" not in err

    def test_overlong_json_integer_names_file_and_digits(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        write_bundle(construct(24), path)
        doc = path.read_text()
        path.write_text(doc.replace('"n": 24', '"n": ' + "2" * 5000, 1))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: integer of 5000 digits exceeds the 4300-digit limit")
        assert "set_int_max_str_digits" not in err and "Traceback" not in err

    @staticmethod
    def assert_rejected_before_field_arithmetic(tmp_path, capsys, n: int, message: str) -> None:
        """A header-consistent n-line document whose vectors are too short exits 2 and builds no Phi_m."""
        doc = {
            "n": n,
            "config": {"vertices": n, "with_center": False},
            "rotation": {"c": "1", "s": "0"},
            "field_order": 4 * n,
            "lines": [{"a": [0], "b": [0]}] * n,
        }
        path = tmp_path / "crafted.json"
        path.write_text(json.dumps(doc))
        before = cyclotomic_poly.cache_info()
        with pytest.raises(ParseError, match=message):
            read_bundle(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        after = cyclotomic_poly.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_crafted_order_is_rejected_before_field_arithmetic(self, tmp_path, capsys):
        # The bound on n refuses this 300 KB document for Q(zeta_60060) from its header alone:
        # nothing builds a Phi_m before the header is checked.
        message = "verify supports n <= 300, got 15015"
        self.assert_rejected_before_field_arithmetic(tmp_path, capsys, 15015, message)

    def test_short_vectors_are_rejected_before_field_arithmetic(self, tmp_path, capsys):
        self.assert_rejected_before_field_arithmetic(tmp_path, capsys, 299, "expected 528 coefficients")

    @pytest.mark.parametrize(
        "text", ["[" * 100000 + "]" * 100000, '{"n": 1e400}'], ids=["deep", "infinite"]
    )
    def test_hostile_json_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_bundle(path)

    def test_rational_bundles_are_not_serializable(self):
        with pytest.raises(ValueError):
            write_bundle(
                CounterexampleBundle(PolygonConfig(3), RationalRotation(1, 0), (NonVerticalLine(1, 2),), None, ()),
                "/dev/null",
            )


def test_sweep_script_runs():
    # tests/sweep_certificates.py sweeps every family by hand and nothing imports it; its first 9 families keep it working.
    import dircover

    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    argv = [sys.executable, str(Path(__file__).with_name("sweep_certificates.py")), "7", "12"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("9 families, 0 mismatches")
