"""File format and command-line behavior tests."""

import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from dircover.cli import main
from dircover.errors import ParseError
from dircover.fileio import format_lines, format_points, parse_lines, parse_points
from dircover.geometry import NonVerticalLine, Point
from dircover.spectrum import spectrum


class TestFileFormats:
    def test_parse_points_with_comments(self):
        text = "# corners\n0 0\n1 0  # right\n\n0 1\n1 1\n"
        assert parse_points(text) == [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]

    def test_parse_rationals(self):
        assert parse_points("1/2 -3/4\n") == [Point(Fraction(1, 2), Fraction(-3, 4))]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match=r"pts:2"):
            parse_points("0 0\n1 2 3\n", source="pts")
        with pytest.raises(ParseError, match=r"pts:1"):
            parse_points("0 1.5\n", source="pts")

    def test_format_round_trip(self):
        pts = [Point(Fraction(1, 3), -2), Point(0, Fraction(7, 2))]
        assert parse_points(format_points(pts)) == pts
        lines = [NonVerticalLine(1, 2), NonVerticalLine(Fraction(-1, 2), 0)]
        assert parse_lines(format_lines(lines)) == lines

    def test_format_rejects_cyclotomic(self):
        from support import zeta

        with pytest.raises(ValueError):
            format_points([Point(zeta(5), zeta(5, 2))])


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.pts"
    path.write_text("0 0\n1 0\n0 1\n1 1\n")
    return str(path)


class TestSpectrumCommand:
    def test_text_output(self, square_file, capsys):
        assert main(["spectrum", square_file]) == 0
        out = capsys.readouterr().out
        assert "counts: 2 3 4" in out
        assert "vertical classes: 2" in out
        assert "generic direction" in out

    def test_json_output(self, square_file, capsys):
        assert main(["spectrum", "--json", square_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == [2, 3, 4]
        assert doc["witnesses"]["4"]["generic"] is True
        groups = doc["witnesses"]["2"]["groups"]
        assert sorted(map(sorted, groups)) == [[0, 1], [2, 3]]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pts"
        bad.write_text("1 2 3\n")
        assert main(["spectrum", str(bad)]) == 2

    def test_degenerate_exit_code(self, tmp_path):
        dup = tmp_path / "dup.pts"
        dup.write_text("1 2\n1 2\n")
        assert main(["spectrum", str(dup)]) == 3

    def test_missing_file(self):
        assert main(["spectrum", "/nonexistent/file.pts"]) == 2


class TestLongIntegers:
    """Integers past ``str()``/``int()``'s default 4300-digit limit, which stays in force."""

    def test_overlong_token_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "long.pts"
        path.write_text("0 0\n1 -" + "9" * 5000 + "\n")
        assert main(["spectrum", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: integer of 5000 digits exceeds the 4300-digit limit")
        assert "set_int_max_str_digits" not in err and "Traceback" not in err

    def test_long_malformed_token_is_shown_shortened(self, tmp_path, capsys):
        path = tmp_path / "bad.pts"
        path.write_text("0 0\n1 x" + "9" * 5000 + "\n")
        assert main(["spectrum", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: not a rational: 'x999") and "(5001 characters)" in err
        assert err.count("\n") == 1 and len(err) < 200 + len(str(path))

    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    def test_spectrum_prints_long_directions(self, tmp_path, capsys, json_out):
        big = 10**2999 + 7  # 3000 digits; the chord to (big, 1/big) has a 6000-digit direction
        path = tmp_path / "long.pts"
        path.write_text(f"0 0\n{big} 1/{big}\n1 2\n-3 {big}\n")
        assert main(["spectrum", *(["--json"] if json_out else []), str(path)]) == 0
        out = capsys.readouterr().out
        if json_out:
            printed = {int(c): w["direction"] for c, w in json.loads(out)["witnesses"].items()}
        else:
            rows = [line.split() for line in out.splitlines() if line.endswith(")")]
            printed = {int(row[0]): [row[-2][1:-1], row[-1][:-1]] for row in rows}
        rep = spectrum(parse_points(path.read_text()))
        assert sorted(printed) == rep.sorted_counts
        for c, (dx, dy) in printed.items():
            d = rep.witnesses[c].direction
            assert (int(Decimal(dx)), int(Decimal(dy))) == (d.dx, d.dy)  # no str() limit on this path
        assert max(len(dx) for dx, _ in printed.values()) > 4300


class TestStabCommand:
    def test_stab_counts(self, tmp_path, capsys):
        f = tmp_path / "fam.lines"
        f.write_text("0 0\n1 0\n1/3 1\n4/3 1\n")
        assert main(["stab", str(f)]) == 0
        assert "stab counts: 2 3 4" in capsys.readouterr().out

    def test_single_line(self, tmp_path, capsys):
        f = tmp_path / "one.lines"
        f.write_text("3 4\n")
        assert main(["stab", "--json", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == [1]


class TestDualizeCommand:
    def test_round_trip_is_identity(self, square_file, tmp_path, capsys):
        mid = tmp_path / "dual.lines"
        back = tmp_path / "back.pts"
        assert main(["dualize", "points", square_file, str(mid)]) == 0
        assert main(["dualize", "lines", str(mid), str(back)]) == 0
        assert mid.read_text() == back.read_text() == "0 0\n1 0\n0 1\n1 1\n"

    def test_stdout_default(self, square_file, capsys):
        assert main(["dualize", "points", square_file]) == 0
        assert capsys.readouterr().out == "0 0\n1 0\n0 1\n1 1\n"


class TestPolygonCommand:
    def test_odd_plain_emits_discrepancy_note(self, capsys):
        assert main(["polygon", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "enumerated spectrum: 5 9" in out
        assert "discrepancy note" in out and "{k, 2k+1}" in out

    def test_even_plain_has_no_note(self, capsys):
        assert main(["polygon", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "discrepancy note" not in out
        assert "enumerated spectrum: 4 5 8" in out

    def test_odd_center_reports_enumeration_only(self, capsys):
        assert main(["polygon", "--n", "5", "--center"]) == 0
        out = capsys.readouterr().out
        assert "(none for an odd vertex count with center)" in out
        assert "enumerated spectrum: 4 5 6" in out

    def test_json_document(self, capsys):
        assert main(["polygon", "--n", "6", "--center", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["enumerated"] == [3, 5, 7]
        assert doc["closed_form"] == [3, 5, 7]
        assert doc["field_order"] == 12
        assert len(doc["points"]) == 7

    def test_too_small(self, capsys):
        assert main(["polygon", "--n", "2"]) == 2

    def test_too_large(self, capsys):
        assert main(["polygon", "--n", "2001"]) == 2
        assert capsys.readouterr().err == "error: polygon supports n <= 2000, got 2001\n"

    def test_closed_form_disagreement_is_an_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr("dircover.polygon.polygon_spectrum_closed_form", lambda cfg: frozenset({1, 2}))
        assert main(["polygon", "--n", "13"]) == 1
        err = "internal error: closed form disagrees with enumeration ([1, 2] vs [7, 13])\n"
        assert capsys.readouterr() == ("", err)


class TestCounterexampleAndVerify:
    def test_build_verify_cycle(self, tmp_path, capsys):
        out = tmp_path / "b7.json"
        assert main(["counterexample", "--n", "7", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "stab spectrum: 4 7" in stdout
        assert "certificate: pass" in stdout
        assert main(["verify", str(out)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_json_bundle_on_stdout(self, capsys):
        assert main(["counterexample", "--n", "7", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 7
        assert doc["certificate"]["stab_counts"] == [4, 7]
        assert len(doc["lines"]) == 7

    def test_center_variant_n7_exits_nonzero(self, capsys):
        assert main(["counterexample", "--n", "7", "--variant", "center"]) == 1
        assert "certificate: fail" in capsys.readouterr().out

    def test_tampered_bundle_fails(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["counterexample", "--n", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["lines"][2]["a"] = doc["lines"][0]["a"]
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1

    def test_verify_garbage_is_parse_error(self, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("][")
        assert main(["verify", str(f)]) == 2

    def test_n_below_gate(self, capsys):
        assert main(["counterexample", "--n", "5"]) == 2

    def test_residue_mismatch_is_an_internal_error(self, monkeypatch, capsys):
        # construct checks its certificate against the residue spectrum, and prints no certificate when they differ.
        monkeypatch.setattr("dircover.counterexample.polygon_spectrum_enumerated", lambda cfg: frozenset({cfg.total}))
        assert main(["counterexample", "--n", "9"]) == 1
        err = "internal error: stab counts [5, 9] disagree with the residue spectrum [9]\n"
        assert capsys.readouterr() == ("", err)

    def test_unwritable_out_is_io_error(self, tmp_path, capsys, monkeypatch):
        def no_field_work(*args, **kwargs):
            raise AssertionError("construct ran before --out was opened")

        monkeypatch.setattr("dircover.counterexample.construct", no_field_work)
        out = tmp_path / "no-such-dir" / "b.json"
        assert main(["counterexample", "--n", "48", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--n", "5"], ["--n", "8", "--variant", "center"]])
    def test_refused_family_leaves_out_untouched(self, tmp_path, capsys, argv):
        old = tmp_path / "old.json"
        old.write_text("kept\n")
        new = tmp_path / "new.json"
        assert main(["counterexample", *argv, "--out", str(old)]) == 2
        assert main(["counterexample", *argv, "--out", str(new)]) == 2
        assert old.read_text() == "kept\n" and not new.exists()

    def test_failed_run_leaves_out_as_it_found_it(self, tmp_path, capsys, monkeypatch):
        # The internal error of test_residue_mismatch_is_an_internal_error, raised after --out was opened.
        monkeypatch.setattr("dircover.counterexample.polygon_spectrum_enumerated", lambda cfg: frozenset({cfg.total}))
        old = tmp_path / "old.json"
        old.write_bytes(b"kept\n")
        new = tmp_path / "new.json"
        assert main(["counterexample", "--n", "9", "--out", str(old)]) == 1
        assert main(["counterexample", "--n", "9", "--out", str(new)]) == 1
        assert old.read_bytes() == b"kept\n" and not new.exists()
        assert capsys.readouterr().err.count("internal error: ") == 2


@pytest.mark.parametrize(
    "command, n",
    [
        pytest.param("counterexample", 10**20, id="counterexample"),
        pytest.param("polygon", 10**20, id="polygon"),
        pytest.param("counterexample", 1000003, id="counterexample-1000003"),
        pytest.param("polygon", 10**12, id="polygon-10**12"),
    ],
)
def test_huge_n_is_refused_in_bounded_time(command, n):
    # Each command refuses n past the size it finishes in minutes on.  Unbounded, counterexample
    # --n 1000003 starts from a list of 4,000,013 integers and polygon --n 10**12 walks range(n).
    import dircover

    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    argv = [sys.executable, "-m", "dircover.cli", command, "--n", str(n)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("command, noun", [("spectrum", "points"), ("stab", "lines")])
def test_large_file_is_refused_in_bounded_time(tmp_path, command, noun):
    # One row past the bound, where 2000 random points take 18 s and 1.1 GB; a parabola has no collinear triple.
    import dircover
    from dircover.cli import _MAX_POINTS

    path = tmp_path / "rows.txt"
    count = _MAX_POINTS + 1
    path.write_text("".join(f"{i} {i * i}\n" for i in range(count)))
    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    argv = [sys.executable, "-m", "dircover.cli", command, str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
    assert done.returncode == 2
    assert done.stderr == f"error: {command} supports at most {_MAX_POINTS} {noun}, got {count}\n"


def test_huge_bundle_is_refused_in_bounded_time(tmp_path):
    # A valid n = 301 bundle verifies in 70 s and larger ones take hours; the header alone decides.
    import dircover

    path = tmp_path / "b301.json"
    header = {"n": 301, "field_order": 1204, "config": {"vertices": 301, "with_center": False}}
    path.write_text(json.dumps(header))
    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    argv = [sys.executable, "-m", "dircover.cli", "verify", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=5)
    assert done.returncode == 2
    assert done.stderr == f"error: {path}: verify supports n <= 300, got 301\n"


@pytest.mark.parametrize("argv", [["spectrum"], ["stab"], ["dualize", "points"]], ids=["spectrum", "stab", "dualize"])
def test_non_utf8_file_is_named(tmp_path, argv):
    import dircover

    path = tmp_path / "latin1.pts"
    path.write_bytes(b"0 0\n1 \xff\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    argv = [sys.executable, "-m", "dircover.cli", *argv, str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 2
    assert done.stderr == f"error: cannot read {path}: not UTF-8 text (byte 6: invalid start byte)\n"


@pytest.mark.parametrize("case", ["directory", "missing", "[]", "null", "3"])
def test_verify_reports_unreadable_bundles(tmp_path, capsys, case):
    path = tmp_path / "b.json"
    if case == "directory":
        path.mkdir()
        message = f"cannot read {path}: Is a directory"
    elif case == "missing":
        message = f"cannot read {path}: No such file or directory"
    else:
        path.write_text(case)
        message = f"{path}: malformed bundle document (a bundle is a JSON object)"
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


LONG = "@@long@@"  # a JSON string that _bundle_mutants replaces by a 4000- or 5000-digit token after encoding


def _bundle_mutants(doc, rng, count):
    """``count`` JSON texts of ``doc``, each with one seeded change: a wrong type, a deleted key, a bad ratio or a long token."""
    wrong = [None, True, False, 0, -7, 2.5, "x", "", [], {}, [[]], {"a": 1}, "3/2", 10**6]
    ratios = ["1/0", "0.5", "1/-2", "-0", "3/6", "1e3", "+1", " 7 ", "1//2", "\u0663", "0x10", "1_0", "-", "/", "7/3"]
    longs = ['"' + "7" * 5000 + '"', "7" * 5000, '"1/' + "3" * 5000 + '"', '"' + "9" * 4000 + '"', "-" + "8" * 4000]

    def paths(node, path=()):
        yield path
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            yield from paths(child, (*path, key))

    every = list(paths(doc))
    tokens = [p for p in every if p[:1] == ("lines",) and len(p) == 4 or p[:1] == ("rotation",) and len(p) == 2]
    for _ in range(count):
        mutant = json.loads(json.dumps(doc))
        kind = rng.choice(["type", "delete", "ratio", "long"])
        path = rng.choice(tokens if kind == "ratio" else every[kind == "delete":])  # every[0] is the document
        value = LONG if kind == "long" else rng.choice(ratios if kind == "ratio" else wrong)
        if not path:
            mutant = value
        else:
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        yield kind, path, json.dumps(mutant).replace(f'"{LONG}"', rng.choice(longs))


def _points_texts(rng, count):
    """``count`` small seeded points files: mostly small rationals, so duplicates and collinear rows occur, and bad rows."""
    bad = ["1/0", "x", "0.5", "1 2 3", "7", "#", "7" * 5000 + " 1", "1/" + "3" * 5000 + " 0", "\u0663 1"]
    for _ in range(count):
        rows = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.05:
                rows.append(rng.choice(bad))
            elif rng.random() < 0.05:
                rows.append(f"{'9' * 4000} {rng.randint(-3, 3)}")
            else:
                rows.append(" ".join(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}" for _ in "xy"))
        yield "\n".join(rows) + "\n"


def test_seeded_mutations_end_in_an_exit_code(tmp_path, capsys):
    # Every mutated bundle and random file ends in an exit code of the CLI, quickly, with no exception out of main.
    from dircover.counterexample import bundle_to_json, construct

    rng = random.Random(12)
    cases = []
    for i, (kind, path, text) in enumerate(_bundle_mutants(bundle_to_json(construct(9)), rng, 150)):
        (tmp_path / f"b{i}.json").write_text(text)
        cases.append((f"bundle {kind} at {path}", ["verify", str(tmp_path / f"b{i}.json")]))
    commands = [["spectrum"], ["spectrum", "--json"], ["stab"], ["dualize", "points"], ["dualize", "lines"]]
    for i, text in enumerate(_points_texts(rng, 150)):
        (tmp_path / f"p{i}.txt").write_text(text)
        cases += [(f"file p{i}", [*argv, str(tmp_path / f"p{i}.txt")]) for argv in commands]
    codes = set()
    for label, argv in cases:
        start = time.perf_counter()
        try:
            code = main(argv)
        except BaseException as exc:
            pytest.fail(f"{label}: {argv[0]} raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3) and time.perf_counter() - start < 2, (label, code)
        codes.add(code)
    capsys.readouterr()
    assert {0, 2, 3} <= codes  # the draws reach output, refusal and degenerate input


class TestCheckCommand:
    def test_duality_suite(self, capsys):
        assert main(["check", "duality", "--trials", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("RESULT pass=220 fail=0 skip=0")

    def test_oracle_suite_json(self, capsys):
        assert main(["check", "oracle", "--trials", "25", "--seed", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "oracle" and doc["fail"] == 0 and doc["pass"] == 25

    def test_pinchasi_sweeps_sizes(self, capsys):
        assert main(["check", "pinchasi", "--trials", "30", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "RESULT pass=30 fail=0" in out

    def test_affine_suite(self, capsys):
        assert main(["check", "affine", "--trials", "10", "--seed", "2"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "pinchasi", "--trials", "-3"],
            ["check", "duality", "--trials", "0"],
            ["check", "oracle", "--bound", "0"],
            ["check", "affine", "--size", "0"],
            ["check", "oracle", "--size", "-1"],
        ],
    )
    def test_counts_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "expected a positive integer" in captured.err
        assert "RESULT" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--trials", "5", "f.txt"],
            ["stab", "--seed", "9", "f.txt"],
            ["verify", "--json", "b.json"],
            ["dualize", "--json", "points", "f.txt"],
            ["polygon", "--n", "7", "--seed", "1"],
        ],
    )
    def test_options_are_accepted_only_where_read(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["duality", "pinchasi"])
    def test_size_is_refused_where_unread(self, suite, capsys):
        assert main(["check", suite, "--trials", "5", "--size", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: check {suite} does not read --size\n"
        assert captured.out == ""

    def test_size_is_read_by_affine_and_oracle(self, capsys):
        for argv, sizes in [([], "2..6"), (["--size", "4"], "2..4")]:
            assert main(["check", "oracle", "--trials", "5", *argv]) == 0
            assert f"5 sets of {sizes} points" in capsys.readouterr().out
        assert main(["check", "affine", "--trials", "5", "--size", "4"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["pinchasi", "--bound", "1"], ["affine", "--bound", "1", "--size", "12", "--trials", "3"]],
        ids=["pinchasi", "affine"],
    )
    def test_bound_too_small_is_a_usage_error(self, argv, capsys):
        assert main(["check", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_reports_are_byte_identical_across_runs(self, capsys):
        main(["check", "duality", "--trials", "50", "--seed", "11"])
        first = capsys.readouterr().out
        main(["check", "duality", "--trials", "50", "--seed", "11"])
        assert capsys.readouterr().out == first


class TestPrecisionEnv:
    def test_polygon_decimals_ignore_the_environment(self, monkeypatch, capsys):
        monkeypatch.delenv("DS_PRECISION_BITS", raising=False)
        assert main(["polygon", "--n", "9", "--json"]) == 0
        expected = capsys.readouterr()
        for value in ("256", "junk"):
            monkeypatch.setenv("DS_PRECISION_BITS", value)
            assert main(["polygon", "--n", "9", "--json"]) == 0
            assert capsys.readouterr() == (expected.out, "")


# What each command must never import: its modules are exactly the ones it calls.
_SPECTRUM_NEVER = {"counterexample", "polygon", "checks", "randgen", "oracle", "field"}
_CHECK_NEVER = {"counterexample", "polygon", "fileio", "field"}
_CERTIFY_NEVER = {"checks", "randgen", "oracle", "fileio"}


def _fresh_interpreter(script: str, *argv: str) -> list[str]:
    """Stdout lines of ``script`` run with ``argv`` in a new interpreter that imports this dircover."""
    import dircover

    env = {**os.environ, "PYTHONPATH": str(Path(dircover.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.stderr == ""
    return done.stdout.splitlines()


_LOADED = (
    "import sys\nfrom dircover.cli import main\ncode = main(sys.argv[1:])\n"
    "print(code, 'mpmath' in sys.modules, *sorted(m[9:] for m in sys.modules if m.startswith('dircover.')))"
)

# Standard modules that no command uses, or that only the JSON commands use.
_WATCHED = "print(code, *sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"


class TestStartUp:
    @pytest.fixture
    def bundle(self, tmp_path):
        from dircover.counterexample import construct, write_bundle

        path = tmp_path / "b.json"
        write_bundle(construct(7), path)
        return path

    @pytest.mark.parametrize(
        "argv, needs, never",
        [
            (["spectrum", "{square}"], "spectrum", _SPECTRUM_NEVER),
            (["stab", "{lines}"], "spectrum", _SPECTRUM_NEVER),
            (["dualize", "points", "{square}"], "fileio", _SPECTRUM_NEVER | {"spectrum"}),
            (["verify", "{bundle}"], "counterexample", _CERTIFY_NEVER),
            (["check", "duality", "--trials", "20"], "checks", _CHECK_NEVER),
            (["check", "pinchasi", "--trials", "20"], "checks", _CHECK_NEVER),
            (["check", "affine", "--trials", "5"], "checks", _CHECK_NEVER),
            (["check", "oracle", "--trials", "5"], "checks", _CHECK_NEVER),
            (["counterexample", "--n", "7"], "counterexample", _CERTIFY_NEVER),
            (["polygon", "--n", "13"], "polygon", _CERTIFY_NEVER | {"counterexample", "spectrum"}),
        ],
        ids=["spectrum", "stab", "dualize", "verify", "duality", "pinchasi", "affine", "oracle", "counterexample",
             "polygon"],
    )
    def test_exact_commands_do_not_load_mpmath(self, tmp_path, square_file, bundle, argv, needs, never):
        lines = tmp_path / "fam.lines"
        lines.write_text("1 0\n2 1\n-1 3\n")
        argv = [a.format(square=square_file, lines=lines, bundle=bundle) for a in argv]
        code, mpmath_loaded, *loaded = _fresh_interpreter(_LOADED, *argv)[-1].split()
        assert (code, mpmath_loaded) == ("0", "False")
        assert needs in loaded and not never & set(loaded)

    @pytest.fixture(scope="class")
    def preloaded(self):
        """The watched modules that a bare interpreter already loads on this host."""
        _, *loaded = _fresh_interpreter("import sys\ncode = 0\n" + _WATCHED)[-1].split()
        return set(loaded)

    @pytest.mark.parametrize(
        "argv, json_free",
        [
            (["spectrum", "{square}"], True),
            (["spectrum", "{square}", "--json"], False),
            (["stab", "{lines}"], True),
            (["dualize", "points", "{square}"], True),
            (["verify", "{bundle}"], False),
            (["check", "duality", "--trials", "20"], True),
            (["check", "pinchasi", "--trials", "20"], True),
            (["check", "affine", "--trials", "5"], True),
            (["check", "oracle", "--trials", "5"], True),
            (["check", "oracle", "--trials", "5", "--json"], False),
            (["counterexample", "--n", "7"], False),
            (["polygon", "--n", "13"], True),
        ],
        ids=["spectrum", "spectrum-json", "stab", "dualize", "verify", "duality", "pinchasi", "affine", "oracle",
             "oracle-json", "counterexample", "polygon"],
    )
    def test_commands_load_no_unused_standard_module(
        self, tmp_path, square_file, bundle, preloaded, argv, json_free
    ):
        lines = tmp_path / "fam.lines"
        lines.write_text("1 0\n2 1\n-1 3\n")
        argv = [a.format(square=square_file, lines=lines, bundle=bundle) for a in argv]
        script = "import sys\nfrom dircover.cli import main\ncode = main(sys.argv[1:])\n" + _WATCHED
        code, *loaded = _fresh_interpreter(script, *argv)[-1].split()
        added = set(loaded) - preloaded
        assert code == "0" and not added & {"dataclasses", "inspect"}
        assert not (json_free and "json" in added)

    def test_counterexample_loads_only_what_it_calls(self):
        code, mpmath_loaded, *loaded = _fresh_interpreter(_LOADED, "counterexample", "--n", "7")[-1].split()
        assert (code, mpmath_loaded) == ("0", "False")
        assert "counterexample" in loaded and not _CERTIFY_NEVER & set(loaded)

    def test_importing_the_cli_loads_no_command(self):
        script = "import sys\nimport dircover.cli\nprint(*sorted(m for m in sys.modules if m.startswith('dircover')))"
        assert _fresh_interpreter(script)[-1].split() == ["dircover", "dircover.cli", "dircover.errors"]

    def test_submodule_import_binds_the_module(self):
        import types

        import dircover.spectrum as m

        assert isinstance(m, types.ModuleType) and callable(m.spectrum)

    def test_geometry_checks_scalars_without_loading_the_field(self):
        script = """
import sys
from fractions import Fraction
from dircover.geometry import AffineMap, Direction, NonVerticalLine, Point

def refused(build):
    try:
        build()
    except TypeError:
        return True
    return False

print(refused(lambda: Point(0.5, 1)), refused(lambda: Direction(1.0, 2)))
Point(1, Fraction(1, 2)), NonVerticalLine(Fraction(2, 3), -1), Direction(3, 6)
AffineMap(((1, 2), (3, Fraction(1, 4))), (Fraction(1, 2), 0)).apply(Point(Fraction(1, 3), 2))
print("dircover.field" in sys.modules)
from dircover.errors import OrderMismatchError
from dircover.field import CycloElement

z5, z7 = CycloElement(5, [0, 1]), CycloElement(7, [0, 1])
p = Point(Fraction(1, 2), z5)
print(type(p.x).__name__, p.x.order, p.x == Fraction(1, 2), refused(lambda: Point(0.5, z5)))
try:
    Point(z5, z7)
except OrderMismatchError:
    print("OrderMismatchError")
"""
        assert _fresh_interpreter(script) == ["True True", "False", "CycloElement 5 True True", "OrderMismatchError"]
