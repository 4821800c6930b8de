"""Direction-cover spectra of point sets and vertical stab spectra of line families.

For a finite point set Q, a direction d induces a unique minimal family of
parallel lines covering Q: group the points by "difference parallel to d".
The spectrum I(Q) collects the group counts over every direction; only the
finitely many chord directions of Q can yield fewer than |Q| lines, so the
engine enumerates those and adjoins the generic count |Q| by construction.

One scan over the chords classes them and counts each class's cover lines
(:func:`pair_directions`); partitions are built only as witnesses, one per
distinct count.  Every class decision is exact.  Rational points become integer
triples (X, Y, W), W the lcm of a point's own denominators; cyclotomic chords
are bucketed by slope mod a prime, which parallel chords share, so the exact
test runs about once per chord.  No float takes part in classing.  Distinctness
is checked once, in :func:`spectrum` and :func:`stab_spectrum`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import DegenerateInputError, OrderMismatchError
from .field import CycloElement, residue, residue_primes
from .geometry import (
    Direction,
    NonVerticalLine,
    Point,
    _canonical,
    _Frozen,
    dual_line_to_point,
    ensure_distinct_lines,
    ensure_distinct_points,
)


class LinePartition(_Frozen):
    """Cover of the input set by parallel lines in one direction; immutable.

    Groups are disjoint, nonempty, in first-point order, and their union is
    the input; two points share a group iff their difference is parallel to
    ``direction``.  ``generic`` marks the synthetic witness for a direction
    parallel to no chord (all groups are singletons).
    """

    __slots__ = ("direction", "groups", "generic")


class SpectrumReport(_Frozen):
    """One witness partition per count of the spectrum (``witnesses``), and the vertical class count."""

    __slots__ = ("witnesses", "vertical_count")

    @property
    def counts(self) -> frozenset[int]:
        """The spectrum: every count that has a witness."""
        return frozenset(self.witnesses)

    @property
    def sorted_counts(self) -> list[int]:
        return sorted(self.counts)


def _slope_key(points: Sequence[Point]) -> Callable[[int, int], Optional[int]]:
    """The slope mod p of the chord (i, j), or None when it is vertical mod p.

    p is the first prime from :func:`field.residue_primes` that divides no
    denominator and keeps the points' residue pairs distinct, so no chord
    maps to (0, 0).  Parallel chords always share a key; others only by a
    collision mod p.  Equal points collide under every prime, so two points
    whose residue pairs collide are compared exactly, and equal ones raise
    at once, as the rational path does.
    """
    orders = {pt.x.order for pt in points if isinstance(pt.x, CycloElement)}
    if len(orders) > 1:
        raise OrderMismatchError(f"points from different fields: orders {sorted(orders)}")
    for p, w in residue_primes(orders.pop()):
        res = [(residue(pt.x, p, w), residue(pt.y, p, w)) for pt in points]
        if any(None in r for r in res):
            continue
        first: dict[tuple[int, int], int] = {}
        for i, r in enumerate(res):
            j = first.setdefault(r, i)
            if j != i and points[j] == points[i]:
                raise DegenerateInputError("zero direction")
        if len(first) == len(points):
            break

    def key(i: int, j: int) -> Optional[int]:
        dx, dy = res[j][0] - res[i][0], res[j][1] - res[i][1]
        return dy * pow(dx, -1, p) % p if dx else None

    return key


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """The rational point (X/W, Y/W) as the integers (X, Y, W), W = lcm of its denominators."""
    w = lcm(p.x.denominator, p.y.denominator)
    return p.x.numerator * (w // p.x.denominator), p.y.numerator * (w // p.y.denominator), w


def pair_directions(points: Sequence[Point]) -> list[tuple[Direction, int]]:
    """Each parallelism class of chord directions, with its cover count.

    The domain is chosen once per call, and one scan over the pairs (i, j),
    i < j, in index order represents each class by its first chord.  For
    rational points a chord is keyed by its canonical direction
    (Xj·Wi − Xi·Wj, Yj·Wi − Yi·Wj) in lowest terms (:func:`_homogeneous`); one
    dict maps each key to its class's second ends, and a class's Direction is
    built once, from its key.  Otherwise chords are bucketed by slope mod a
    prime (:func:`_slope_key`): parallel chords always share a bucket, so the
    exact test (:meth:`Direction.parallel_to`) runs only against the classes
    in the chord's bucket, usually one.

    Within a class, the points on one cover line are pairwise joined by the
    class's chords, so every point but the first on its line is the second
    end j of a chord (i, j) of the class, and the count is n minus the
    number of such second ends.  Fewer than two points have no chords, so no
    classes.
    """
    pts = list(points)
    n = len(pts)
    if all(isinstance(p.x, Fraction) for p in pts):
        triples = [_homogeneous(p) for p in pts]
        classes: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
        for i, (xi, yi, wi) in enumerate(triples):
            for j in range(i + 1, n):
                xj, yj, wj = triples[j]
                classes[_canonical(xj * wi - xi * wj, yj * wi - yi * wj)].add(j)
        return [(Direction._of_canonical(*d), n - len(js)) for d, js in classes.items()]
    slope = _slope_key(pts)
    reps: list[Direction] = []
    seconds: list[set[int]] = []
    buckets: dict[Optional[int], list[int]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = Direction.between(pts[i], pts[j])
            bucket = buckets.setdefault(slope(i, j), [])
            k = next((m for m in bucket if d.parallel_to(reps[m])), len(reps))
            if k == len(reps):
                bucket.append(k)
                reps.append(d)
                seconds.append(set())
            seconds[k].add(j)
    return [(d, n - len(js)) for d, js in zip(reps, seconds)]


def lines_in_direction(points: Sequence[Point], direction: Direction) -> LinePartition:
    """The unique minimal parallel cover of the points in the given direction.

    Points p, q land on one cover line iff cross(q - p, d) = 0, i.e. iff the
    bilinear key cross(p, d) agrees; grouping by that exact key realizes the
    equivalence in one pass.  Rational keys are (W, X·b − Y·a) in lowest terms.
    """
    a, b = direction.dx, direction.dy
    if type(a) is int and all(isinstance(p.x, Fraction) for p in points):  # W > 0, so no sign flip
        keys: list = [_canonical(w, x * b - y * a) for x, y, w in map(_homogeneous, points)]
    else:
        keys = [p.x * b - p.y * a for p in points]
    groups: dict[object, list[Point]] = {}
    for p, key in zip(points, keys):
        groups.setdefault(key, []).append(p)
    return LinePartition(direction, tuple(tuple(g) for g in groups.values()), False)


def generic_direction(chord_dirs: Sequence[Direction]) -> Direction:
    """A direction parallel to none of the given chord directions.

    Tries (1, t) for t = 0, 1, 2, ...; each chord class rules out at most
    one integer t, so at most len(chord_dirs) + 1 candidates are examined.
    Rational classes, canonical when built, are parallel to a candidate
    only when equal to it, so they are looked up in a set; the others are
    tested exactly.
    """
    rational = {d for d in chord_dirs if not isinstance(d.dx, CycloElement)}
    others = [d for d in chord_dirs if isinstance(d.dx, CycloElement)]
    t = 0
    while True:
        cand = Direction(1, t)
        if cand not in rational and all(not cand.parallel_to(d) for d in others):
            return cand
        t += 1


def spectrum(points: Sequence[Point]) -> SpectrumReport:
    """The direction-cover spectrum I(Q) with a witness partition per count.

    Each count's witness is the partition of the first chord class that
    attains it, so only one partition is built per distinct count.
    """
    pts = list(points)
    if not pts:
        raise DegenerateInputError("empty point set")
    ensure_distinct_points(pts)
    n = len(pts)
    witnesses: dict[int, LinePartition] = {}
    classes = pair_directions(pts)
    for d, c in classes:
        if c not in witnesses:
            witnesses[c] = lines_in_direction(pts, d)
    if n not in witnesses:
        witnesses[n] = LinePartition(generic_direction([d for d, _ in classes]), tuple((p,) for p in pts), True)
    return SpectrumReport(witnesses, vertical_class_count(pts))


def vertical_class_count(points: Sequence[Point]) -> int:
    """Number of distinct x-coordinates: the cover count of the vertical direction.

    As in :func:`geometry.ensure_distinct_points`, when every point is rational
    (decided once for the list) an x is keyed by its reduced numerator and
    denominator, not by Fraction's hash; otherwise by its value, so a rational
    x and the same constant in a cyclotomic field count once.
    """
    if all(isinstance(p.x, Fraction) for p in points):
        return len({(p.x.numerator, p.x.denominator) for p in points})
    return len({p.x for p in points})


def stab_spectrum(lines: Sequence[NonVerticalLine]) -> frozenset[int]:
    """All values of |L intersect union(F)| over vertical lines L.

    Transported through duality: a vertical probe at abscissa A meets the
    family in as many points as there are parallel cover lines of the dual
    point set in the direction of slope -A, and the critical abscissae
    correspond exactly to the non-vertical chord directions of the dual
    set.  Vertical chord directions (parallel primal lines) match no probe
    and are skipped; every non-critical probe contributes |F|.
    """
    fam = list(lines)
    if not fam:
        raise DegenerateInputError("empty line family")
    ensure_distinct_lines(fam)
    duals = [dual_line_to_point(line) for line in fam]
    classes = pair_directions(duals)
    return frozenset({len(fam)} | {c for d, c in classes if not d.is_vertical})
