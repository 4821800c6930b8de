"""Brute-force spectrum oracle, kept independent of the production engine.

It scales its points to integers by their common denominator, then re-derives
each unordered vertex pair's cover partition from scratch, assigning each point
to the first compatible anchor by a 3x3 affine-determinant collinearity test.
No code is shared with :mod:`dircover.spectrum`; rational only, <= 10 points.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DegenerateInputError
from .geometry import Point

MAX_ORACLE_POINTS = 10


def _det3(ax, ay, bx, by, cx, cy):
    # | ax ay 1 ; bx by 1 ; cx cy 1 |, expanded along the third column
    return (bx * cy - by * cx) - (ax * cy - ay * cx) + (ax * by - ay * bx)


def oracle_spectrum(points: Sequence[Point]) -> frozenset[int]:
    pts = list(points)
    if not pts:
        raise DegenerateInputError("empty point set")
    if len(pts) > MAX_ORACLE_POINTS:
        raise DegenerateInputError(f"oracle capped at {MAX_ORACLE_POINTS} points")
    for p in pts:
        if not (isinstance(p.x, Fraction) and isinstance(p.y, Fraction)):
            raise DegenerateInputError("oracle handles rational coordinates only")
    keys = [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in pts]
    if len(set(keys)) < len(keys):
        i = next(i for i, key in enumerate(keys) if keys.count(key) > 1)
        raise DegenerateInputError(f"duplicate point at positions {i} and {keys.index(keys[i], i + 1)}")
    scale = lcm(*(d for _, xd, _, yd in keys for d in (xd, yd)))
    xy = [(xn * (scale // xd), yn * (scale // yd)) for xn, xd, yn, yd in keys]
    counts = {len(pts)}
    # _det3 is linear in v, so v and -v group the points identically: one chord per unordered pair
    for i, (ix, iy) in enumerate(xy):
        for jx, jy in xy[i + 1:]:
            vx = jx - ix
            vy = jy - iy
            anchors: list[tuple[int, int]] = []
            for px, py in xy:
                for qx, qy in anchors:
                    if _det3(qx, qy, qx + vx, qy + vy, px, py) == 0:
                        break
                else:
                    anchors.append((px, py))
            counts.add(len(anchors))
    return frozenset(counts)
