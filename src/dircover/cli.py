"""Command-line front end: ``dircover <subcommand> ...``.

Exit codes: 0 success, 1 failed check/verification or internal error (two
exact computations of one result disagree; :func:`main` alone reports it), 2
parse, usage or I/O error, 3 degenerate input.  Decimals are correctly
rounded: ``polygon`` prints 39 significant digits, ``counterexample`` 12.
Each command imports only the dircover modules it calls: ``dualize`` loads
``fileio`` and ``geometry``, ``spectrum`` and ``stab`` those and
``spectrum``, and ``check`` ``checks``, ``geometry``, ``oracle``, ``randgen``
and ``spectrum``.  Only the polygon commands load the cyclotomic ``field``:
``polygon`` with ``geometry`` and ``polygon``, ``counterexample`` and
``verify`` with those, ``spectrum`` and ``counterexample``.  ``json`` loads
for ``--json`` and for the bundle commands.

One table, ``_COMMANDS``, holds every command's arguments.  A plain
invocation (see :func:`_plain_args`) is parsed straight from it; only help
and usage errors build the argparse parser from it, so only they load
``argparse`` and the ``gettext`` and ``locale`` modules that it loads.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import DegenerateInputError, DirCoverError, ParseError


_MAX_POINTS = 1600
"""The most points ``spectrum`` and lines ``stab`` read (``dualize`` is linear, so unbounded).

Pinned to one CPU of a 2-core host (CPython 3.11), random rational points
with coordinates p/q, |p|, q <= 10**4, take ``spectrum`` and ``stab``
0.5-0.85 s and 75 MB at 800 points and 1.9-3.2 s and 252 MB at 1600 (the
host drifts); 2000 take 4-5 s and 400 MB in process.  The limit waits for a
bound on coefficient height before it is raised.
"""


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def _witness_doc(part, index: dict) -> dict:
    from .geometry import format_rational

    return {
        "direction": [format_rational(part.direction.dx), format_rational(part.direction.dy)],
        "generic": part.generic,
        "groups": [sorted(index[p] for p in group) for group in part.groups],
    }


def cmd_spectrum(args) -> int:
    from .geometry import format_rational
    from .fileio import parse_points
    from .spectrum import spectrum

    pts = parse_points(_read_text(args.file), args.file)
    if len(pts) > _MAX_POINTS:
        raise ValueError(f"spectrum supports at most {_MAX_POINTS} points, got {len(pts)}")
    rep = spectrum(pts)
    if args.json:
        import json

        index = {p: i for i, p in enumerate(pts)}
        doc = {
            "points": len(pts),
            "counts": rep.sorted_counts,
            "vertical_classes": rep.vertical_count,
            "witnesses": {str(c): _witness_doc(rep.witnesses[c], index) for c in rep.sorted_counts},
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"points: {len(pts)}")
    print("counts:", " ".join(map(str, rep.sorted_counts)))
    for c in rep.sorted_counts:
        w = rep.witnesses[c]
        tag = "generic direction" if w.generic else "direction"
        print(
            f"  {c}  {tag} "
            f"({format_rational(w.direction.dx)}, {format_rational(w.direction.dy)})"
        )
    print(f"vertical classes: {rep.vertical_count}")
    return 0


def cmd_stab(args) -> int:
    from .fileio import parse_lines
    from .spectrum import stab_spectrum

    lines = parse_lines(_read_text(args.file), args.file)
    if len(lines) > _MAX_POINTS:
        raise ValueError(f"stab supports at most {_MAX_POINTS} lines, got {len(lines)}")
    counts = sorted(stab_spectrum(lines))
    if args.json:
        import json

        print(json.dumps({"lines": len(lines), "counts": counts}))
        return 0
    print(f"lines: {len(lines)}")
    print("stab counts:", " ".join(map(str, counts)))
    return 0


def cmd_dualize(args) -> int:
    from .fileio import format_lines, format_points, parse_lines, parse_points
    from .geometry import dual_line_to_point, dual_point_to_line

    text = _read_text(args.input)
    if args.kind == "points":
        out = format_lines([dual_point_to_line(p) for p in parse_points(text, args.input)])
    else:
        out = format_points([dual_line_to_point(l) for l in parse_lines(text, args.input)])
    if args.output:
        _write_text(args.output, out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_polygon(args) -> int:
    from .field import approx_str
    from .geometry import format_rational
    from .polygon import (
        CASE2_NOTE,
        PolygonConfig,
        choose_rotation,
        field_order,
        instantiate_polygon,
        polygon_spectrum_closed_form,
        polygon_spectrum_enumerated,
    )

    # Pinned to one CPU of a 2-core host, n = 2000 runs in 0.76-0.87 s and n = 1999 (in Q(zeta_7996)) in 2.7-3.2 s.
    if args.n > 2000:
        raise ValueError(f"polygon supports n <= 2000, got {args.n}")
    cfg = PolygonConfig(args.n, args.center)
    enumerated = polygon_spectrum_enumerated(cfg)
    try:
        closed = polygon_spectrum_closed_form(cfg)
    except ValueError:
        closed = None
    if closed is not None and closed != enumerated:
        raise ArithmeticError(f"closed form disagrees with enumeration ({sorted(closed)} vs {sorted(enumerated)})")
    rot = choose_rotation(cfg)
    pts = instantiate_polygon(cfg, rot)
    approx = [[approx_str(s, 39) for s in (p.x, p.y)] for p in pts]
    note = CASE2_NOTE if (not cfg.with_center and cfg.vertices % 2 == 1) else None
    if args.json:
        import json

        doc = {
            "vertices": cfg.vertices,
            "with_center": cfg.with_center,
            "total_points": cfg.total,
            "enumerated": sorted(enumerated),
            "closed_form": sorted(closed) if closed is not None else None,
            "note": note,
            "rotation": {"c": format_rational(rot.c), "s": format_rational(rot.s)},
            "field_order": field_order(cfg.vertices),
            "points": [
                {"x": str(p.x), "y": str(p.y), "approx": xy}
                for p, xy in zip(pts, approx)
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
    suffix = " + center" if cfg.with_center else ""
    print(f"polygon: {cfg.vertices} vertices{suffix} ({cfg.total} points)")
    print("enumerated spectrum:", " ".join(map(str, sorted(enumerated))))
    if closed is not None:
        print("closed form:        ", " ".join(map(str, sorted(closed))))
    else:
        print("closed form:         (none for an odd vertex count with center)")
    if note:
        print(note)
    print(f"rotation: c = {format_rational(rot.c)}, s = {format_rational(rot.s)}")
    print(f"field order: {field_order(cfg.vertices)}")
    for i, (p, (ax, ay)) in enumerate(zip(pts, approx)):
        name = "center" if cfg.with_center and i == len(pts) - 1 else f"v{i}"
        print(f"  {name}: x = {p.x} ; y = {p.y}")
        print(f"      ~ ({ax}, {ay})")
    return 0


def cmd_counterexample(args) -> int:
    from .counterexample import bundle_to_json, construct, family_config, write_bundle
    from .geometry import format_rational

    new = args.out and not os.path.lexists(args.out)
    if args.out:  # refuse a bad family or path before any field work; "a" truncates nothing
        family_config(args.n, args.variant)
        open(args.out, "a", encoding="utf-8").close()
    try:
        bundle = construct(args.n, variant=args.variant)
        if args.out:
            write_bundle(bundle, args.out)
    except BaseException:
        if new:  # a failed run leaves no file where there was none
            os.remove(args.out)
        raise
    cert = bundle.certificate
    if args.json:
        import json

        print(json.dumps(bundle_to_json(bundle), indent=2))
    else:
        print(f"counterexample: n={bundle.n} ({args.variant} variant), field order {bundle.field_order}")
        print(
            f"config: {bundle.config.vertices} vertices"
            + (" + center" if bundle.config.with_center else "")
        )
        print(
            f"rotation: c = {format_rational(bundle.rotation.c)}, "
            f"s = {format_rational(bundle.rotation.s)}"
        )
        print("stab spectrum:", " ".join(map(str, sorted(cert.stab_counts))))
        hit = " ".join(map(str, sorted(cert.forbidden_hit))) or "none"
        print(f"forbidden {sorted(cert.forbidden)} hit: {hit}")
        print(f"certificate: {cert.verdict}")
        for i, (a, b) in enumerate(bundle.approx_lines):
            print(f"  l{i}: a ~ {a}, b ~ {b}")
        if args.out:
            print(f"wrote bundle to {args.out}")
    return 0 if cert.passed else 1


def cmd_verify(args) -> int:
    from .counterexample import read_bundle, verify

    bundle = read_bundle(args.file)
    rep = verify(bundle.lines)
    print(f"verify: n={bundle.n}, {len(bundle.lines)} lines, field order {bundle.field_order}")
    if rep.pairwise_nonparallel:
        print("pairwise non-parallel: ok")
    else:
        print(f"pairwise non-parallel: FAIL (lines {rep.parallel_witness})")
    if rep.nonconcurrent:
        print("non-concurrent: ok")
    else:  # verify names no meet point: it needs field division
        print("non-concurrent: FAIL (common point)")
    print("stab spectrum:", " ".join(map(str, sorted(rep.stab_counts))))
    hit = " ".join(map(str, sorted(rep.forbidden_hit))) or "none"
    print(f"forbidden {sorted(rep.forbidden)} hit: {hit}")
    print(f"verdict: {rep.verdict}")
    return 0 if rep.passed else 1


def cmd_check(args) -> int:
    from .checks import SUITES

    if args.size is not None and args.suite in ("duality", "pinchasi"):
        raise ValueError(f"check {args.suite} does not read --size")
    given = {k: v for k, v in vars(args).items() if k in ("trials", "size", "bound") and v is not None}
    rep = SUITES[args.suite](args.seed, **given)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "name": rep.name,
                    "pass": rep.passed,
                    "fail": rep.failed,
                    "skip": rep.skipped,
                    "notes": rep.lines,
                }
            )
        )
    else:
        print(rep.render())
    return 0 if rep.ok else 1


_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})

# One row per command: its help line, its function, and its arguments as
# (name, argparse keywords) in the order the help lists them, _JSON first
# where the command takes --json.  build_parser and _plain_args both read
# the arguments from here.
_COMMANDS = {
    "spectrum": ("direction-cover spectrum of a points file", cmd_spectrum, (_JSON, ("file", {}))),
    "stab": ("vertical stab count set of a lines file", cmd_stab, (_JSON, ("file", {}))),
    "dualize": ("map a points file to its dual lines file or back", cmd_dualize, (
        ("kind", {"choices": ["points", "lines"], "help": "what the input file contains"}),
        ("input", {}),
        ("output", {"nargs": "?", "default": None}),
    )),
    "polygon": ("regular polygon spectra and exact coordinates", cmd_polygon, (
        _JSON,
        ("--n", {"type": int, "required": True, "help": "vertex count (>= 3)"}),
        ("--center", {"action": "store_true", "help": "include the circle center"}),
    )),
    "counterexample": ("build and certify an n-line family", cmd_counterexample, (
        _JSON,
        ("--n", {"type": int, "required": True, "help": "number of lines (>= 7)"}),
        ("--variant", {"choices": ["plain", "center"], "default": "plain"}),
        ("--out", {"default": None, "help": "write the bundle JSON to this file"}),
    )),
    "verify": ("re-check a bundle file", cmd_verify, (("file", {}),)),
    "check": ("randomized property suites", cmd_check, (
        _JSON,
        ("suite", {"choices": ["duality", "pinchasi", "affine", "oracle"]}),
        ("--seed", {"type": int, "default": 42, "help": "RNG seed"}),
        ("--trials", {"type": _positive_int, "help": "trial count (default per suite)"}),
        ("--size", {"type": _positive_int, "help": "points per set (affine, oracle; default 6)"}),
        ("--bound", {"type": _positive_int, "help": "coordinate magnitude bound"}),
    )),
}


def build_parser():
    """The argparse parser of every command: it alone prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dircover",
        description="Exact direction-cover spectra, point-line duality, and certified line families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: list):
    """The namespace ``build_parser().parse_args(argv)`` returns, for a plain ``argv``; else None.

    Plain means: an exact command name, then that command's exact option
    names and positionals in any order.  A flag sets True; a valued option
    takes the next token, which must not start with ``-``; a repeated option
    keeps its last value; a positional must not start with ``-``.  Every
    value, a repeated option's first ones too, goes through its argument's
    ``type`` and ``choices``, and every required option and positional must
    be there.  Anything else (help, an abbreviation, ``--opt=value``, a
    negative number, ``--``, a value its ``type`` refuses, a missing or extra
    token) returns None, so that argparse parses it and writes the same help
    or usage error as ever.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    spec = dict(arguments)
    options = {name for name in spec if name.startswith("-")}
    waiting = iter([name for name in spec if name not in options])  # the positionals, in order
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options and spec[token].get("action"):
            values[token] = True
            continue
        name, text = (token, next(tokens, "-")) if token in options else (next(waiting, None), token)
        if name is None or text.startswith("-"):  # an extra positional, an unknown option or a missing value
            return None
        try:  # each value as argparse takes it, a repeated option's too
            value = spec[name].get("type", str)(text)
        except Exception:  # argparse calls the type again and reports or re-raises what it raises
            return None
        if "choices" in spec[name] and value not in spec[name]["choices"]:
            return None
        values[name] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for name, keywords in arguments:
        if name not in values:
            if keywords.get("required") or not (name in options or keywords.get("nargs") == "?"):
                return None
            values[name] = False if keywords.get("action") else keywords.get("default")
        setattr(args, name.lstrip("-"), values[name])
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return 3
    except (DirCoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # two exact computations of one result disagree: a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
