"""Direction-cover spectra of point sets and vertical stab spectra of line families.

For a finite point set Q, a direction d induces a unique minimal family of
parallel lines covering Q: group the points by "difference parallel to d".
The spectrum I(Q) collects the group counts over every direction; only the
finitely many chord directions of Q can yield fewer than |Q| lines, so the
engine enumerates those and adjoins the generic count |Q| by construction.

One scan over the chords classes them and counts each class's cover lines
(:func:`pair_directions`); partitions are built only as witnesses, one per
distinct count.  Distinctness is checked once, in :func:`spectrum` and
:func:`stab_spectrum`; the helpers assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DegenerateInputError
from .geometry import (
    Direction,
    NonVerticalLine,
    Point,
    dual_line_to_point,
    ensure_distinct_lines,
    ensure_distinct_points,
)


@dataclass(frozen=True)
class LinePartition:
    """Cover of the input set by parallel lines in one direction.

    Groups are disjoint, nonempty, in first-point order, and their union is
    the input; two points share a group iff their difference is parallel to
    ``direction``.  ``generic`` marks the synthetic witness for a direction
    parallel to no chord (all groups are singletons).
    """

    direction: Direction
    groups: tuple[tuple[Point, ...], ...]
    generic: bool = False


@dataclass(eq=False)
class SpectrumReport:
    counts: frozenset[int]
    witnesses: Mapping[int, LinePartition]
    vertical_count: int

    @property
    def sorted_counts(self) -> list[int]:
        return sorted(self.counts)


def pair_directions(points: Sequence[Point]) -> list[tuple[Direction, int]]:
    """Each parallelism class of chord directions, with its cover count.

    One scan over the pairs (i, j), i < j, in index order represents each
    class by its first chord.  Rational chords, canonical when built, find
    their class by equality; cyclotomic ones, which admit no canonical
    scaling, by cross-product-zero tests against the representatives so far.
    A point on no chord of a class is alone on its cover line, so the count
    is n minus the class's endpoints plus their distinct keys cross(p, d).
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise DegenerateInputError("need at least 2 points for pair directions")
    rational = all(isinstance(p.x, Fraction) for p in pts)
    reps: list[Direction] = []
    ends: list[set[int]] = []
    index: dict[Direction, int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = Direction.between(pts[i], pts[j])
            if rational:
                k = index.setdefault(d, len(reps))
            else:
                k = next((m for m, r in enumerate(reps) if d.parallel_to(r)), len(reps))
            if k == len(reps):
                reps.append(d)
                ends.append(set())
            ends[k].update((i, j))
    return [
        (d, n - len(e) + len({pts[i].x * d.dy - pts[i].y * d.dx for i in e}))
        for d, e in zip(reps, ends)
    ]


def lines_in_direction(points: Sequence[Point], direction: Direction) -> LinePartition:
    """The unique minimal parallel cover of the points in the given direction.

    Points p, q land on one cover line iff cross(q - p, d) = 0, i.e. iff the
    bilinear key cross(p, d) agrees; grouping by that exact key realizes the
    equivalence in a single pass.
    """
    groups: dict[object, list[Point]] = {}
    dx, dy = direction.dx, direction.dy
    for p in points:
        key = p.x * dy - p.y * dx
        groups.setdefault(key, []).append(p)
    return LinePartition(direction, tuple(tuple(g) for g in groups.values()))


def generic_direction(chord_dirs: Sequence[Direction]) -> Direction:
    """A direction parallel to none of the given chord directions.

    Tries (1, t) for t = 0, 1, 2, ...; each chord class rules out at most
    one integer t, so at most len(chord_dirs) + 1 candidates are examined.
    """
    t = 0
    while True:
        cand = Direction(Fraction(1), Fraction(t))
        if all(not cand.parallel_to(d) for d in chord_dirs):
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
    classes = pair_directions(pts) if n >= 2 else []
    for d, c in classes:
        if c not in witnesses:
            witnesses[c] = lines_in_direction(pts, d)
    if n not in witnesses:
        witnesses[n] = LinePartition(
            generic_direction([d for d, _ in classes]), tuple((p,) for p in pts), generic=True
        )
    return SpectrumReport(frozenset(witnesses), witnesses, vertical_class_count(pts))


def vertical_class_count(points: Sequence[Point]) -> int:
    """Number of distinct x-coordinates: the cover count of the vertical direction."""
    if not points:
        raise DegenerateInputError("empty point set")
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
    classes = pair_directions(duals) if len(duals) >= 2 else []
    return frozenset({len(fam)} | {c for d, c in classes if not d.is_vertical})
