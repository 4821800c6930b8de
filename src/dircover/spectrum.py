"""Direction-cover spectra of point sets and vertical stab spectra of line families.

For a finite point set Q, a direction d induces a unique minimal family of
parallel lines covering Q: group the points by "difference parallel to d".
The spectrum I(Q) collects the group counts over every direction; only the
finitely many chord directions of Q can yield fewer than |Q| lines, so the
engine enumerates those and adjoins the generic count |Q| by construction.

One scan over the chords classes them and counts each class's cover lines
(:func:`pair_directions`, the one classing entry point of both domains);
partitions are built only as witnesses, one per distinct count.  Every
class decision is exact.  Rational points become integer triples (X, Y, W),
W the lcm of a point's own denominators, and a class is keyed by its
canonical integer direction (:func:`_rational_classes`).  Cyclotomic chords
are classed by :func:`field._cyclotomic_classes`, on packed integers or in
the field, imported only for them, so rational input never loads the field.
No float takes part in classing.
Distinctness is checked once, in :func:`spectrum` and :func:`stab_spectrum`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInputError
from .geometry import (
    Direction,
    NonVerticalLine,
    Point,
    Scalar,
    _canonical,
    _Frozen,
    cross,
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


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """The rational point (X/W, Y/W) as the integers (X, Y, W), W = lcm of its denominators."""
    (xn, xd), (yn, yd) = p.x.as_integer_ratio(), p.y.as_integer_ratio()
    w = lcm(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def _rational_classes(triples: Sequence[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Each chord class of the rational points given as :func:`_homogeneous` triples, with its cover count.

    A chord (i, j), i < j, is keyed by its canonical direction
    (Xj·Wi − Xi·Wj, Yj·Wi − Yi·Wj) in lowest terms, the pair
    :func:`geometry._canonical` gives, computed in the loop with one gcd and
    a sign fix; a zero chord (two equal points) raises as it does.  A
    class's count is n minus the number of its second ends j
    (:func:`pair_directions` says why).  Most classes of a random set hold
    one chord, so a key maps to its first second end as a plain int, and to
    a set only once a chord with another second end arrives.  Classes come
    in the order of their first chords.
    """
    n = len(triples)
    seconds: dict[tuple[int, int], int | set[int]] = {}
    for i, (xi, yi, wi) in enumerate(triples):
        for j in range(i + 1, n):
            xj, yj, wj = triples[j]
            dx, dy = xj * wi - xi * wj, yj * wi - yi * wj
            g = gcd(dx, dy)
            if dx < 0 or not dx and dy < 0:
                g = -g
            elif not g:
                raise DegenerateInputError("zero direction")
            key = (dx // g, dy // g)
            js = seconds.setdefault(key, j)
            if type(js) is set:
                js.add(j)
            elif js != j:
                seconds[key] = {js, j}
    for key, js in seconds.items():  # in place: a second dict would double the peak
        seconds[key] = n - (len(js) if type(js) is set else 1)
    return seconds


def pair_directions(points: Sequence[Point]) -> dict[tuple, int]:
    """Each parallelism class of chord directions, keyed by a direction of the class, with its cover count.

    This is the one classing entry point of both domains.  One scan over the
    pairs (i, j), i < j, in index order represents each class by its first
    chord, and the classes come in that order.  For rational points the keys
    and counts are :func:`_rational_classes`', so a key is the class's
    canonical integer direction.  Otherwise they are
    :func:`field._cyclotomic_classes`', imported only then, which reads each
    coordinate once and tests the chords in one loop, on packed integers or
    in the field: a key is the (dx, dy) of the class's first chord as its
    :class:`Direction` holds them, so ``Direction(dx, dy)`` rebuilds it; keys
    of two classes are never parallel, so never equal.

    Within a class, the points on one cover line are pairwise joined by the
    class's chords, so every point but the first on its line is the second
    end j of a chord (i, j) of the class, and the count is n minus the
    number of such second ends.  Fewer than two points have no chords, so no
    classes.
    """
    pts = list(points)
    if all(isinstance(p.x, Fraction) for p in pts):
        return _rational_classes(list(map(_homogeneous, pts)))
    from .field import _cyclotomic_classes

    return _cyclotomic_classes(pts)


def lines_in_direction(
    points: Sequence[Point], direction: Direction, triples: Optional[Sequence[tuple[int, int, int]]] = None
) -> LinePartition:
    """The unique minimal parallel cover of the points in the given direction.

    Points p, q land on one cover line iff cross(q - p, d) = 0, i.e. iff the
    bilinear key cross(p, d) agrees; grouping by that exact key realizes the
    equivalence in one pass.  When the caller passes the rational points'
    :func:`_homogeneous` triples (and an integer direction), the keys are
    (W, X·b − Y·a) in lowest terms; otherwise they are the scalars themselves.
    """
    a, b = direction.dx, direction.dy
    if triples is not None:  # W > 0, so no sign flip
        keys: list = [_canonical(w, x * b - y * a) for x, y, w in triples]
    else:
        keys = [p.x * b - p.y * a for p in points]
    groups: dict[object, list[Point]] = {}
    for p, key in zip(points, keys):
        groups.setdefault(key, []).append(p)
    return LinePartition(direction, tuple(tuple(g) for g in groups.values()), False)


def generic_direction(chords: Iterable[tuple[Scalar, Scalar]]) -> Direction:
    """A direction parallel to none of the given chord directions, each given as its nonzero (dx, dy).

    Tries (1, t) for t = 0, 1, 2, ...; each chord rules out at most one
    integer t, so at most len(chords) + 1 candidates are examined.  An
    integer chord rules out t = dy / dx when dx divides dy, so those t are
    collected in one set of ints; the others are tested exactly, as
    cross((1, t), (dx, dy)) = dy - t·dx = 0.
    """
    ruled_out: set[int] = set()
    others = []
    for dx, dy in chords:
        if type(dx) is int:
            if dx and not dy % dx:
                ruled_out.add(dy // dx)
        else:
            others.append((dx, dy))
    t = 0
    while t in ruled_out or any(cross(1, t, dx, dy) == 0 for dx, dy in others):
        t += 1
    return Direction(1, t)


def spectrum(points: Sequence[Point]) -> SpectrumReport:
    """The direction-cover spectrum I(Q) with a witness partition per count.

    Each count's witness is the partition of the first chord class that
    attains it, so only one partition is built per distinct count, and a
    Direction only for a witness.  Every class has a second end, so no class
    attains n; its witness is the generic partition.
    """
    pts = list(points)
    if not pts:
        raise DegenerateInputError("empty point set")
    ensure_distinct_points(pts)
    classes = pair_directions(pts)
    triples = list(map(_homogeneous, pts)) if all(isinstance(p.x, Fraction) for p in pts) else None
    witnesses: dict[int, LinePartition] = {}
    for (dx, dy), c in classes.items():
        if c not in witnesses:
            witnesses[c] = lines_in_direction(pts, Direction(dx, dy), triples)
    witnesses[len(pts)] = LinePartition(generic_direction(classes), tuple((p,) for p in pts), True)
    return SpectrumReport(witnesses, vertical_class_count(pts))


def vertical_class_count(points: Sequence[Point]) -> int:
    """Number of distinct x-coordinates: the cover count of the vertical direction.

    An x is keyed by its value in either domain, as in
    :func:`geometry.ensure_distinct_points`, so a rational x and the same
    constant in a cyclotomic field count once.
    """
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
    return frozenset({len(fam)} | {c for (dx, _), c in pair_directions(duals).items() if dx != 0})
