"""Seeded random instance generation; identical seeds give identical instances."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .geometry import AffineMap, Point

_FRACTION_CACHE_SIZE = 8192
"""How many drawn (numerator, denominator) pairs keep their Fraction.

A draw at bound b is one of (2b + 1) * b pairs, 5,050 at the CLI's default
bound of 50, so a check run there builds each Fraction once; at larger
bounds the least recently drawn pair is evicted.  Fractions are immutable,
so the draws may share them.
"""

_fraction = lru_cache(maxsize=_FRACTION_CACHE_SIZE)(Fraction)


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as ``random.Random._randbelow_with_getrandbits`` draws it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_rational(rng: random.Random, bound: int) -> Fraction:
    """Fraction(rng.randint(-bound, bound), rng.randint(1, bound)), bound >= 1.

    Both draws replay ``randint``'s own (randint -> randrange -> one
    ``getrandbits(n.bit_length())`` per try until below the range's width n),
    so the numbers and the generator's state afterwards are exactly
    ``randint``'s, without its per-call argument checks.  The Fraction is
    shared with earlier draws of the same pair (:data:`_FRACTION_CACHE_SIZE`).
    """
    if bound < 1:
        raise ValueError(f"coordinate bound must be at least 1, got {bound}")
    getrandbits = rng.getrandbits
    return _fraction(_below(getrandbits, 2 * bound + 1) - bound, _below(getrandbits, bound) + 1)


def random_point(rng: random.Random, bound: int) -> Point:
    return Point(random_rational(rng, bound), random_rational(rng, bound))


def random_point_set(rng: random.Random, size: int, bound: int) -> list[Point]:
    """``size`` pairwise distinct random points; duplicates are redrawn.

    A point is looked up by its reduced numerators and denominators, not by
    Fraction's hash.
    """
    pts: list[Point] = []
    seen: set[tuple[int, int, int, int]] = set()
    misses = 0
    while len(pts) < size:
        p = random_point(rng, bound)
        key = (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
        if key in seen:
            misses += 1
            if misses > 100 * size + 1000:
                raise ValueError("coordinate bound too small for requested set size")
            continue
        seen.add(key)
        pts.append(p)
    return pts


def random_invertible_map(rng: random.Random, bound: int) -> AffineMap:
    """Random affine map with exactly nonzero determinant (singular draws redrawn)."""
    while True:
        m00, m01, m10, m11 = (random_rational(rng, bound) for _ in range(4))
        if m00 * m11 - m01 * m10 != 0:
            t = (random_rational(rng, bound), random_rational(rng, bound))
            return AffineMap(((m00, m01), (m10, m11)), t)
