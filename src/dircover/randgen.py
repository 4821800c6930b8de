"""Seeded random instance generation; identical seeds give identical instances.

Coordinates are drawn in batches by one private generator, :func:`_rationals`.
A batch consumes the same numbers in the same order as one pair of
``randint`` calls per coordinate, so every instance, and the generator's
state after it, is the same as drawing the coordinates one at a time.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .geometry import AffineMap, Point

_FRACTION_CACHE_SIZE = 8192
"""How many drawn (numerator, denominator) pairs keep their Fraction.

A draw at bound b is one of (2b + 1) * b pairs, 5,050 at the CLI's default
bound of 50, so a check run there builds each Fraction once.  The cache
holds the first pairs drawn since the bound last changed, up to this many;
at larger bounds the pairs past them get a new Fraction on every draw.
Fractions are immutable, so the draws may share them.
"""

_FRACTIONS: dict[int, dict[int, Fraction]] = {}
"""The bound of the latest batch, mapped to its cache, which keys the Fraction(n - bound, d + 1)
of the drawn pair (n, d), 0 <= n <= 2 * bound and 0 <= d < bound, by the int n * bound + d."""


def _rationals(rng: random.Random, bound: int, count: int) -> Iterator[Fraction]:
    """``count`` draws of Fraction(rng.randint(-bound, bound), rng.randint(1, bound)), bound >= 1.

    Each draw replays ``randint``'s own (randint -> randrange -> one
    ``getrandbits(n.bit_length())`` per try until below the range's width n),
    so the numbers and the generator's state after each draw are exactly
    ``randint``'s, without its per-call argument checks.  A draw is made
    only when it is asked for, so a caller that stops early leaves the state
    of the draws it took.  The Fraction of a pair is shared with earlier
    draws of it at the same bound (:data:`_FRACTION_CACHE_SIZE`).
    """
    if bound < 1:
        raise ValueError(f"coordinate bound must be at least 1, got {bound}")
    getrandbits = rng.getrandbits
    width = 2 * bound + 1
    kn, kd = width.bit_length(), bound.bit_length()
    cache = _FRACTIONS.get(bound)
    if cache is None:
        _FRACTIONS.clear()
        cache = _FRACTIONS[bound] = {}
    get = cache.get
    for _ in range(count):
        n = getrandbits(kn)
        while n >= width:
            n = getrandbits(kn)
        d = getrandbits(kd)
        while d >= bound:
            d = getrandbits(kd)
        key = n * bound + d
        q = get(key)
        if q is None:
            q = Fraction(n - bound, d + 1)
            if len(cache) < _FRACTION_CACHE_SIZE:
                cache[key] = q
        yield q


def random_point_set(rng: random.Random, size: int, bound: int) -> list[Point]:
    """``size`` pairwise distinct random points; duplicates are redrawn.

    Each pass draws the coordinates of the points still missing as one
    batch, so the pairs, the redraws and the generator's state afterwards
    are those of drawing the points one by one.  A point is looked up by its
    reduced numerators and denominators, not by Fraction's hash.
    """
    pts: list[Point] = []
    seen: set[tuple[int, int, int, int]] = set()
    misses = 0
    while len(pts) < size:
        draws = _rationals(rng, bound, 2 * (size - len(pts)))
        for x, y in zip(draws, draws):
            key = x.as_integer_ratio() + y.as_integer_ratio()
            if key in seen:
                misses += 1
                if misses > 100 * size + 1000:
                    raise ValueError("coordinate bound too small for requested set size")
                continue
            seen.add(key)
            pts.append(Point(x, y))
    return pts


def random_invertible_map(rng: random.Random, bound: int) -> AffineMap:
    """Random affine map with exactly nonzero determinant (singular draws redrawn)."""
    while True:
        m00, m01, m10, m11 = _rationals(rng, bound, 4)
        if m00 * m11 - m01 * m10 != 0:
            return AffineMap(((m00, m01), (m10, m11)), tuple(_rationals(rng, bound, 2)))
