"""Help and usage-error output, byte for byte, and the plain parser against argparse.

Each usage case runs ``dircover.cli.main`` in this process with
``COLUMNS=80`` and compares stdout and stderr with
``golden/usage/<case>.out`` and ``.err`` and the exit code with
``golden/usage/exit_codes.json``.  Help exits 0 and a usage error 2, both
through ``SystemExit`` from argparse.  The files are written by running this
module as a script (``PYTHONPATH=src python tests/test_usage.py``); rewrite
them only for an intended change of output.

The differential test feeds a seeded corpus of argv lists, built from every
command's grammar and its near misses, to ``cli._plain_args`` and to
``build_parser().parse_args``: wherever the plain parser answers, argparse
must give the same namespace, and wherever argparse exits, the plain parser
must have declined.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dircover import cli

USAGE = Path(__file__).parent / "golden" / "usage"
NAMES = ("spectrum", "stab", "dualize", "polygon", "counterexample", "verify", "check")

CASES = {
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in NAMES},
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "counterexample-n-not-int": ["counterexample", "--n", "x"],
    "check-oracle-trials-0": ["check", "oracle", "--trials", "0"],
    "verify-no-file": ["verify"],
}


def run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", list(CASES))
def test_usage_output(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(CASES[case])
    assert out == (USAGE / f"{case}.out").read_text(encoding="utf-8")
    assert err == (USAGE / f"{case}.err").read_text(encoding="utf-8")
    assert code == json.loads((USAGE / "exit_codes.json").read_text())[case]


# Values for each argument, valid or not: the corpus draws from these.
VALUES = ["7", "24", "0", "-3", "+5", "1_0", " 9", "x", "", "2.5", "points", "lines", "plain", "center",
          "affine", "oracle", "duality", "pinchasi", "Affine", "f.txt", "a=b", "-", "--", "-h", "1" * 5000]
NEAR_MISSES = ["-h", "--help", "--", "", "-", "--json", "--jso", "--js", "--n=7", "--seed=3", "--var",
               "--out", "--center", "--cent", "--size", "--trial", "--bogus", "-n", "-x y", "-5", "--N"]


def grammar_corpus(rng: random.Random, count: int) -> list:
    """Argv lists near each command's grammar: well formed, or with one to three edits."""
    names = list(cli._COMMANDS)
    corpus = [[], ["spectrum"], ["spectrum", "--jso", "f"], ["polygon", "--n", "12", "--n", "13"],
              ["check", "affine", "--trials", "0"], ["counterexample", "--n", "-7"], ["dualize", "points"],
              ["counterexample", "--n", "", "--n", "24"], ["check", "oracle", "--size", "0", "--size", "3"]]
    while len(corpus) < count:
        name = rng.choice(names)
        argv = [name]
        positionals = []
        for arg, keywords in cli._COMMANDS[name][2]:
            if arg.startswith("--"):
                if keywords.get("required") or rng.random() < 0.5:
                    argv += [arg] if keywords.get("action") else [arg, _value(rng, keywords)]
            elif keywords.get("nargs") != "?" or rng.random() < 0.5:
                positionals.append(_value(rng, keywords))
        for value in positionals:  # positionals anywhere among the options
            argv.insert(rng.randint(1, len(argv)), value)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            edit = rng.random()
            if edit < 0.3 and len(argv) > 1:
                del argv[rng.randrange(1, len(argv))]
            elif edit < 0.5:
                argv.insert(rng.randint(1, len(argv)), rng.choice(NEAR_MISSES))
            elif edit < 0.7 and len(argv) > 1:
                argv[rng.randrange(1, len(argv))] = rng.choice(VALUES)
            elif edit < 0.8:
                argv[0] = rng.choice(["spectru", "Spectrum", "chec", "--json", "-h", "", "stabs", *names])
            else:  # a repeated argument, option or positional
                argv.insert(rng.randint(1, len(argv)), argv[rng.randrange(1, len(argv))] if len(argv) > 1 else "x")
        corpus.append(argv)
    return corpus


def _value(rng: random.Random, keywords: dict) -> str:
    if "choices" in keywords and rng.random() < 0.7:
        return rng.choice(keywords["choices"])
    if keywords.get("type") is not None and rng.random() < 0.6:
        return str(rng.choice((1, 2, 7, 9, 24, 300)))
    return rng.choice(VALUES) if rng.random() < 0.3 else "f.txt"


def test_plain_parser_agrees_with_argparse():
    parser = cli.build_parser()
    answered = declined = 0
    for argv in grammar_corpus(random.Random(33), 4000):
        plain = cli._plain_args(list(argv))
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                full = parser.parse_args(list(argv))
        except SystemExit:
            assert plain is None, argv
            declined += 1
            continue
        if plain is not None:
            assert vars(plain) == vars(full), argv
            answered += 1
    assert answered > 1000 and declined > 1000  # the corpus reaches both sides


# Plain invocations through main in a fresh interpreter, which then names
# what it loaded of argparse and the modules argparse loads for its messages.
GUARD = """
import json, sys
from dircover.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
"""


def _guard(argvs: list, cwd: Path) -> tuple[list, list]:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", GUARD, json.dumps(argvs)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_plain_invocations_do_not_load_argparse(tmp_path):
    (tmp_path / "p.pts").write_text("0 0\n1 0\n0 1\n1 1\n", encoding="utf-8")
    argvs = [
        ["spectrum", "p.pts"],
        ["spectrum", "--json", "p.pts"],
        ["dualize", "points", "p.pts", "p.lines"],
        ["stab", "p.lines"],
        ["polygon", "--n", "7"],
        ["counterexample", "--n", "9", "--out", "b9.json"],
        ["verify", "b9.json"],
        ["check", "affine", "--seed", "3", "--trials", "5"],
    ]
    assert _guard(argvs, tmp_path) == [[0] * len(argvs), []]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["verify"], ["check", "oracle", "--trials", "0"]])
def test_help_and_usage_errors_load_argparse(argv, tmp_path):
    codes, loaded = _guard([argv], tmp_path)
    assert codes == [0 if "--help" in argv else 2]
    assert "argparse" in loaded


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    USAGE.mkdir(exist_ok=True)
    codes = {}
    for case, argv in CASES.items():
        code, out, err = run(argv)
        (USAGE / f"{case}.out").write_text(out, encoding="utf-8")
        (USAGE / f"{case}.err").write_text(err, encoding="utf-8")
        codes[case] = code
    (USAGE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(codes)} cases to {USAGE}", file=sys.stderr)
