"""Plain-text record formats.

Points file: one ``x y`` per line.  Lines file: one ``a b`` per line,
meaning y + a*x + b = 0.  Fields are whitespace-separated rationals in the
``p`` / ``p/q`` grammar; ``#`` starts a comment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ParseError
from .geometry import NonVerticalLine, Point, format_rational, parse_rational


def _parse_records(text: str, source: str) -> list[tuple[Fraction, Fraction]]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != 2:
            raise ParseError(f"{source}:{lineno}: expected 2 fields, got {len(tokens)}")
        try:
            records.append((parse_rational(tokens[0]), parse_rational(tokens[1])))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    return records


def parse_points(text: str, source: str = "<points>") -> list[Point]:
    return [Point(x, y) for x, y in _parse_records(text, source)]


def parse_lines(text: str, source: str = "<lines>") -> list[NonVerticalLine]:
    return [NonVerticalLine(a, b) for a, b in _parse_records(text, source)]


def _format_records(records, what: str) -> str:
    rows = []
    for record in records:
        if not all(isinstance(v, Fraction) for v in record):
            raise ValueError(f"{what} files hold rational coordinates only")
        rows.append(" ".join(map(format_rational, record)))
    return "".join(row + "\n" for row in rows)


def format_points(points: Sequence[Point]) -> str:
    return _format_records(((p.x, p.y) for p in points), "points")


def format_lines(lines: Sequence[NonVerticalLine]) -> str:
    return _format_records(((line.a, line.b) for line in lines), "lines")
