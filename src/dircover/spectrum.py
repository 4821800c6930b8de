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
are bucketed by slope mod a prime, which parallel chords share, and the
exact test inside a bucket runs on integers: each point's coefficient
vectors, scaled by one common denominator, are packed into one int each at
x = 2**k (Kronecker substitution), and two chords are parallel iff their
packed cross product is 0 modulo Phi_m(2**k), for k above a bound computed
from the points (:func:`pair_directions` has the proof).  Where bit lengths
put k**2 * phi past :data:`_PACKED_BUDGET`, the scan keeps the field test
(:meth:`Direction.parallel_to`).  No float takes part in classing.
Distinctness is checked once, in :func:`spectrum` and :func:`stab_spectrum`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import DegenerateInputError, OrderMismatchError
from .field import CycloElement, cyclotomic_poly, euler_phi, residue, residue_primes
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


def _rational_classes(triples: Sequence[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """Each chord class of the rational points given as :func:`_homogeneous` triples, with its cover count.

    A chord (i, j), i < j, is keyed by its canonical direction
    (Xj·Wi − Xi·Wj, Yj·Wi − Yi·Wj) in lowest terms, and a class's count is n
    minus the number of its second ends j (:func:`pair_directions` says
    why).  Most classes of a random set hold one chord, so a key maps to its
    first second end as a plain int, and to a set only once a chord with
    another second end arrives.  Classes come in the order of their first
    chords.
    """
    n = len(triples)
    seconds: dict[tuple[int, int], int | set[int]] = {}
    for i, (xi, yi, wi) in enumerate(triples):
        for j in range(i + 1, n):
            xj, yj, wj = triples[j]
            key = _canonical(xj * wi - xi * wj, yj * wi - yi * wj)
            js = seconds.setdefault(key, j)
            if type(js) is set:
                js.add(j)
            elif js != j:
                seconds[key] = {js, j}
    for key, js in seconds.items():  # in place: a second dict would double the peak
        seconds[key] = n - (len(js) if type(js) is set else 1)
    return seconds


_PACKED_BUDGET = 350_000
"""The most k**2 * phi, k the digit width in bits, at which :func:`pair_directions` packs; more keeps the field test.

A packed test multiplies two k*phi-bit chords and divides by the k*phi-bit
Phi_m(2**k), while a field product of sparse polygon coordinates costs about
the same at any k, so packing wins only while k is small, and the more so
the larger phi is.  On rotated polygons (``RationalRotation.from_parameter(p/q)``,
many parallel chords, heights growing with q), with the scan forced either
way, one core of a 2-core VM: at m = 24 the packed scan took 0.44 of the
field scan's time at k = 208 (k**2 * phi = 346,112) and 0.52 at k = 256
(524,288); at m = 604 (151 vertices) it took 1.06 to 1.13 times the field
scan's at k = 30 (270,000), the widest inside the budget that these
polygons reach, and 1.3 times at k = 37 (410,700).  So one budget for
every order sits a little past the m = 604 crossover and far below the
m = 24 one.  Every ``construct(n)`` family, n <= 300, is at most 304,128
(n = 299: phi = 528, k <= 24).
"""


def _cofactor(order: int) -> list[int]:
    """Q = (x**order - 1) / Phi_order, ascending integer coefficients, by long division by the monic Phi_order."""
    phi_m = cyclotomic_poly(order)
    deg = len(phi_m) - 1
    terms = [(j, c) for j, c in enumerate(phi_m) if c]
    rem = [-1] + [0] * (order - 1) + [1]
    quo = [0] * (order - deg + 1)
    for i in range(order - deg, -1, -1):
        c = quo[i] = rem[i + deg]
        if c:
            for j, t in terms:
                rem[i + j] -= c * t
    return quo


def _packed_coordinates(points: Sequence[Point], order: int) -> Optional[tuple[int, list[int], list[int], int]]:
    """(k, xs, ys, Phi_m(2**k)): every coordinate packed at x = 2**k, or None past :data:`_PACKED_BUDGET`.

    Each coordinate, lifted to Q(zeta_m) with m = order and phi = phi(m), is
    scaled by the common denominator D of all of them to an integer vector
    of phi coefficients and packed as its value at x = 2**k.  Packing is
    linear, so a chord's packed dx and dy are differences of packed points.
    k is the least width that makes :func:`pair_directions`' test exact.

    Gate.  Before anything is scaled or packed, bit lengths bound k: a scaled
    coefficient num * (D / den) is below 2**w with w = bits(num) + bits(D / den),
    so a spread is below 2**(w + 1), and k <= bits(2*phi * ||Q||_1) +
    wx + wy + 2 for the widest x and y coordinates.  When that bound's square
    times phi exceeds :data:`_PACKED_BUDGET` the answer is None.  It is tried
    first without the bits of D / den, so large coefficients are refused
    before the lcm D is taken.
    """
    phi = euler_phi(order)
    vectors = [
        (v._num, v._den) if isinstance(v, CycloElement) else ((v.numerator,) + (0,) * (phi - 1), v.denominator)
        for p in points
        for v in (p.x, p.y)
    ]
    cofactor = _cofactor(order)
    factor = 2 * phi * sum(map(abs, cofactor))

    def beyond(widths: list[int]) -> bool:
        return (factor.bit_length() + max(widths[0::2]) + max(widths[1::2]) + 2) ** 2 * phi > _PACKED_BUDGET

    widths = [max(map(int.bit_length, nums)) for nums, _ in vectors]
    if beyond(widths):  # already without the bits of D / den, before D is taken
        return None
    den = lcm(*(d for _, d in vectors))
    scales = [den // d for _, d in vectors]
    if beyond([w + s.bit_length() for w, s in zip(widths, scales)]):
        return None
    scaled = [[v * s for v in nums] for (nums, _), s in zip(vectors, scales)]
    hx, hy = (max(max(col) - min(col) for col in zip(*scaled[axis::2])) for axis in (0, 1))
    k = (factor * hx * hy + 1).bit_length()

    def pack(vec) -> int:
        return sum(v << (k * e) for e, v in enumerate(vec) if v)

    packed = [pack(v) for v in scaled]
    return k, packed[0::2], packed[1::2], pack(cyclotomic_poly(order))


def pair_directions(points: Sequence[Point]) -> dict[tuple, int]:
    """Each parallelism class of chord directions, keyed by a direction of the class, with its cover count.

    This is the one classing entry point of both domains.  One scan over the
    pairs (i, j), i < j, in index order represents each class by its first
    chord, and the classes come in that order.  For rational points the keys
    and counts are :func:`_rational_classes`', so a key is the class's
    canonical integer direction.  Otherwise a key is the (dx, dy) of the
    class's first chord as its :class:`Direction` holds them, so
    ``Direction(dx, dy)`` rebuilds that Direction; keys of two classes are
    never parallel, so never equal.  Cyclotomic chords are bucketed by slope
    mod a prime (:func:`_slope_key`): parallel chords always share a bucket,
    so the exact test runs only against the classes in the chord's bucket,
    usually one.

    That test is on packed integers (:func:`_packed_coordinates`): a chord
    (dx, dy) is parallel to class r iff dx * ry - dy * rx = 0 mod
    N = Phi_m(2**k), with (rx, ry) the class's first chord.  The first chord
    each class absorbs is also tested in the field
    (:meth:`Direction.parallel_to`), and a disagreement raises
    ArithmeticError.  Past :data:`_PACKED_BUDGET`, every chord is tested in
    the field instead, as a Direction against each class in its bucket.

    Exactness.  Chords (dx1, dy1) and (dx2, dy2), as scaled integer
    coefficient vectors, are parallel iff X = dx1*dy2 - dy1*dx2, of degree
    at most 2*phi - 2, vanishes at zeta_m.  Packing is a ring homomorphism,
    so the packed cross product is X(2**k).  If X(zeta_m) = 0, then the
    monic minimal polynomial Phi_m of zeta_m divides X in Z[x], so N divides
    X(2**k), for every k.  Conversely, let Q = (x**m - 1) / Phi_m and
    M = 2**(k*m) - 1 = N * Q(2**k).  If N | X(2**k), then M | X(2**k) * Q(2**k),
    which is F(2**k) mod M, where F is X*Q with exponents folded mod m
    (degree below m), as 2**(k*m) = 1 mod M.  If every coefficient of F is
    smaller than 2**k - 1 in size, then
    |F(2**k)| <= (2**k - 2) * M / (2**k - 1) < M, so F(2**k) = 0, and then
    F = 0: its lowest nonzero coefficient would be a multiple of 2**k.  So
    x**m - 1 = Phi_m * Q divides X*Q, Phi_m divides X, and X(zeta_m) = 0.
    (The bound is sharp: (2**k - 1)(1 + x + ... + x**(m-1)) packs to M.)

    Bound.  Let Hx and Hy be the largest spread (max - min over the points)
    of one coefficient of the scaled x or y coordinates
    (:func:`_packed_coordinates`); they bound every chord's dx and dy.  The
    coefficient X_a sums N(a) = min(a + 1, 2*phi - 1 - a) products from each
    of dx1*dy2 and dy1*dx2, so |X_a| <= N(a) * (||dx1|| ||dy2|| + ||dy1|| ||dx2||)
    <= 2*N(a)*Hx*Hy in the max norm, and N(a) <= phi.  A coefficient of F sums
    X_a * Q_b over a + b = e mod m: each b in [0, m - phi] meets one a in
    [0, 2*phi - 2], or two, a and a + m, when 2*phi - 1 > m (the wrap, as for
    prime m).  Two weigh no more than one, as
    N(a) + N(a + m) <= (a + 1) + (2*phi - 1 - a - m) = 2*phi - m <= phi.  So
    ||F|| <= B = 2*phi*Hx*Hy * ||Q||_1, and k is the least width with
    2**k - 1 > B.

    Within a class, the points on one cover line are pairwise joined by the
    class's chords, so every point but the first on its line is the second
    end j of a chord (i, j) of the class, and the count is n minus the
    number of such second ends.  Fewer than two points have no chords, so no
    classes.
    """
    pts = list(points)
    n = len(pts)
    if all(isinstance(p.x, Fraction) for p in pts):
        return _rational_classes(list(map(_homogeneous, pts)))
    slope = _slope_key(pts)
    order = next(p.x.order for p in pts if isinstance(p.x, CycloElement))
    packed = _packed_coordinates(pts, order)
    reps: list[Direction] = []
    seconds: list[set[int]] = []
    buckets: dict[Optional[int], list[int]] = {}
    if packed is None:
        for i in range(n):
            for j in range(i + 1, n):
                d = Direction.between(pts[i], pts[j])
                bucket = buckets.setdefault(slope(i, j), [])
                r = next((r for r in bucket if d.parallel_to(reps[r])), len(reps))
                if r == len(reps):
                    bucket.append(r)
                    reps.append(d)
                    seconds.append(set())
                seconds[r].add(j)
    else:
        k, xs, ys, modulus = packed
        firsts: list[tuple[int, int]] = []  # each class's first chord, packed
        checked: set[int] = set()
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            for j in range(i + 1, n):
                dx, dy = xs[j] - xi, ys[j] - yi
                bucket = buckets.setdefault(slope(i, j), [])
                for r in bucket:
                    rx, ry = firsts[r]
                    if (dx * ry - dy * rx) % modulus == 0:
                        if r not in checked:
                            checked.add(r)
                            if not Direction.between(pts[i], pts[j]).parallel_to(reps[r]):
                                raise ArithmeticError(f"packed parallel test at k = {k} disagrees with the field")
                        break
                else:
                    r = len(reps)
                    bucket.append(r)
                    reps.append(Direction.between(pts[i], pts[j]))
                    firsts.append((dx, dy))
                    seconds.append(set())
                seconds[r].add(j)
    return {(d.dx, d.dy): n - len(js) for d, js in zip(reps, seconds)}


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
    return frozenset({len(fam)} | {c for (dx, _), c in pair_directions(duals).items() if dx != 0})
