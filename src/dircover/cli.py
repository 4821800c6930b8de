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
``verify`` with those, ``spectrum`` and ``counterexample``.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dircover",
        description="Exact direction-cover spectra, point-line duality, and certified line families.",
    )
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[json_out], help="direction-cover spectrum of a points file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("stab", parents=[json_out], help="vertical stab count set of a lines file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stab)

    p = sub.add_parser("dualize", help="map a points file to its dual lines file or back")
    p.add_argument("kind", choices=["points", "lines"], help="what the input file contains")
    p.add_argument("input")
    p.add_argument("output", nargs="?", default=None)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("polygon", parents=[json_out], help="regular polygon spectra and exact coordinates")
    p.add_argument("--n", type=int, required=True, help="vertex count (>= 3)")
    p.add_argument("--center", action="store_true", help="include the circle center")
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("counterexample", parents=[json_out], help="build and certify an n-line family")
    p.add_argument("--n", type=int, required=True, help="number of lines (>= 7)")
    p.add_argument("--variant", choices=["plain", "center"], default="plain")
    p.add_argument("--out", default=None, help="write the bundle JSON to this file")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("verify", help="re-check a bundle file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", parents=[json_out], help="randomized property suites")
    p.add_argument("suite", choices=["duality", "pinchasi", "affine", "oracle"])
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.add_argument("--trials", type=_positive_int, help="trial count (default per suite)")
    p.add_argument("--size", type=_positive_int, help="points per set (affine, oracle; default 6)")
    p.add_argument("--bound", type=_positive_int, help="coordinate magnitude bound")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
