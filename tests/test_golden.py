"""Golden-output tests: the CLI's stdout and exit codes, byte for byte.

Each case runs ``dircover.cli.main`` in this process and compares stdout
with ``golden/<case>.out`` and the exit code with ``golden/exit_codes.json``.
The verify cases read the bundle that ``counterexample --n 24 --json``
printed when the files were written; the tampered copy repeats three
slopes, so its first parallel pair is (2, 20).  ``stab`` reads the committed points file as a lines file, which
is the dual family of those points.

The files are written by running this module as a script
(``PYTHONPATH=src python tests/test_golden.py``).  Rewrite them only for an
intended change of output, and say which outputs changed and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dircover.cli import main

GOLDEN = Path(__file__).parent / "golden"
POINTS = str(GOLDEN / "small.pts")

CASES = {
    "counterexample-n24-json": ["counterexample", "--n", "24", "--json"],
    "counterexample-n7-center": ["counterexample", "--n", "7", "--variant", "center"],
    "counterexample-n9-center": ["counterexample", "--n", "9", "--variant", "center"],
    "verify-n24": ["verify", "{bundle}"],
    "verify-n24-tampered": ["verify", "{tampered}"],
    "polygon-n12-center-json": ["polygon", "--n", "12", "--center", "--json"],
    "polygon-n13": ["polygon", "--n", "13"],
    # the smallest polygon with a 39-digit value that a 128-bit evaluation rounds wrongly
    "polygon-n29-center": ["polygon", "--n", "29", "--center"],
    "spectrum": ["spectrum", POINTS],
    "spectrum-json": ["spectrum", "--json", POINTS],
    "stab": ["stab", POINTS],
    "stab-json": ["stab", "--json", POINTS],
    "dualize-points": ["dualize", "points", POINTS],
    **{
        f"check-{suite}": ["check", suite, "--seed", "3", "--trials", "30"]
        for suite in ("duality", "pinchasi", "affine", "oracle")
    },
    # pinchasi spreads its trials over sizes 3..12: with 7 trials, sizes
    # 10-12 get no sets; with 13, sizes 3-5 take the remainder
    "check-pinchasi-t7": ["check", "pinchasi", "--seed", "3", "--trials", "7"],
    "check-pinchasi-t13-json": ["check", "pinchasi", "--seed", "3", "--trials", "13", "--json"],
    # two collinear draws at size 3; each later size counts only its own rejections
    "check-pinchasi-bound2": ["check", "pinchasi", "--seed", "1", "--trials", "50", "--bound", "2"],
}


def write_bundles(work: Path) -> dict:
    """The n = 24 bundle as printed by its golden case, and a tampered copy."""
    text = (GOLDEN / "counterexample-n24-json.out").read_text(encoding="utf-8")
    bundle, tampered = work / "b24.json", work / "b24-tampered.json"
    bundle.write_text(text, encoding="utf-8")
    doc = json.loads(text)
    for i, j in ((5, 17), (2, 20), (3, 9)):
        doc["lines"][j]["a"] = doc["lines"][i]["a"]
    tampered.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return {"bundle": str(bundle), "tampered": str(tampered)}


def run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, tmp_path):
    files = write_bundles(tmp_path)
    code, out = run([a.format(**files) for a in CASES[case]])
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[case]


if __name__ == "__main__":
    import tempfile

    codes = {}
    with tempfile.TemporaryDirectory() as work:
        for case, argv in CASES.items():  # the verify cases read the counterexample case's output
            files = write_bundles(Path(work)) if case.startswith("verify") else {}
            code, out = run([a.format(**files) for a in argv])
            (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
            codes[case] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(codes)} cases to {GOLDEN}", file=sys.stderr)
