"""References that the benchmark checks dircover's outputs against.

Nothing here imports dircover: the cover counts come from integer chord
grouping and the certified families are evaluated numerically from the
bundle's exact coefficient vectors with mpmath.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath


def parse_pairs(text: str) -> list[tuple[Fraction, Fraction]]:
    """Rows of a dircover points or lines file (``p`` / ``p/q`` fields, ``#`` comments)."""
    rows = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            x, y = body
            rows.append((Fraction(x), Fraction(y)))
    return rows


def _integer_points(points) -> list[tuple[int, int]]:
    den = 1
    for x, y in points:
        den = lcm(den, x.denominator, y.denominator)
    return [(int(x * den), int(y * den)) for x, y in points]


def _direction_counts(points, skip_vertical: bool) -> set[int]:
    """Cover count of every chord direction, from the chords grouped by direction and line.

    After scaling to a common denominator a chord direction is the reduced
    integer vector (dx, dy) with dx > 0, or (0, 1); the points on one cover
    line share the offset x*dy - y*dx.  A line holding k points merges
    k - 1 of them, so the direction's count is n minus the merges.
    """
    pts = _integer_points(points)
    lines: dict[tuple[int, int], dict[int, set[int]]] = {}
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if skip_vertical and dx == 0:
                continue
            line = lines.setdefault((dx, dy), {}).setdefault(xi * dy - yi * dx, set())
            line.update((i, j))
    n = len(pts)
    return {n - sum(len(members) - 1 for members in by_offset.values()) for by_offset in lines.values()}


def cover_counts(points) -> frozenset[int]:
    """The direction-cover spectrum I(Q) of distinct rational points."""
    return frozenset(_direction_counts(points, skip_vertical=False) | {len(points)})


def stab_counts(lines) -> frozenset[int]:
    """Vertical stab counts of lines y + a*x + b = 0, given as (a, b).

    Through duality these are the cover counts of the dual points (a, b)
    over their non-vertical chord directions, plus the generic count.
    """
    return frozenset(_direction_counts(lines, skip_vertical=True) | {len(lines)})


def polygon_stab_counts(n: int) -> frozenset[int]:
    """Closed form for the dual of a regular n-gon: {k+1, n} for n = 2k+1, {k, k+1, n} for n = 2k."""
    k = n // 2
    return frozenset({k + 1, n} if n % 2 else {k, k + 1, n})


# Evaluation precision and the separation a count must show at it: values
# closer than TIE are taken as equal and values further apart than APART
# as distinct.  Anything in between makes the evaluation inconclusive.
_DPS = 60
_TIE = mpmath.mpf(10) ** -40
_APART = mpmath.mpf(10) ** -12


def _evaluate(coeffs, root) -> mpmath.mpf:
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        q = Fraction(c)
        acc = acc * root + mpmath.mpf(q.numerator) / q.denominator
    if abs(acc.imag) > _TIE:
        raise ValueError(f"coefficient vector is not real at zeta (imaginary part {acc.imag})")
    return acc.real


def _clusters(values) -> list[int]:
    """Sizes of the groups of equal values among sorted reals."""
    sizes = [1]
    for prev, cur in zip(values, values[1:]):
        gap = cur - prev
        if gap <= _TIE:
            sizes[-1] += 1
        elif gap >= _APART:
            sizes.append(1)
        else:
            raise ValueError(f"values {prev} and {cur} are neither equal nor apart")
    return sizes


def bundle_stab_counts(doc: dict) -> frozenset[int]:
    """Stab counts of a bundle document, evaluated at zeta_m from its exact coefficients.

    Checks on the way that the n slopes are distinct.  Every critical
    abscissa is an intersection of two lines; at abscissa A the lines meet
    the vertical x = A in n - sum(k_p - 1) points, where k_p lines pass
    through intersection point p (k_p lines give k_p(k_p-1)/2 pairs).
    """
    with mpmath.workdps(_DPS):
        root = mpmath.expjpi(mpmath.mpf(2) / int(doc["field_order"]))
        ab = [(_evaluate(rec["a"], root), _evaluate(rec["b"], root)) for rec in doc["lines"]]
        n = len(ab)
        if n != int(doc["n"]):
            raise ValueError(f"bundle holds {n} lines for n={doc['n']}")
        if len(_clusters(sorted(a for a, _ in ab))) != n:
            raise ValueError("two lines share a slope")
        meets = []
        for i in range(n):
            ai, bi = ab[i]
            for j in range(i + 1, n):
                aj, bj = ab[j]
                x = (bi - bj) / (aj - ai)
                meets.append((x, -(ai * x + bi)))
        meets.sort()
        counts = {n}
        start = 0
        for size in _clusters([x for x, _ in meets]):
            at_x = meets[start : start + size]
            start += size
            merged = 0
            for pairs in _clusters(sorted(y for _, y in at_x)):
                k = (1 + isqrt(1 + 8 * pairs)) // 2
                if k * (k - 1) // 2 != pairs:
                    raise ValueError(f"{pairs} pairs cannot meet in one point")
                merged += k - 1
            counts.add(n - merged)
    return frozenset(counts)
