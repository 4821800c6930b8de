"""Points, non-vertical lines, the point-line duality, and exact predicates.

A non-vertical line is stored by the pair (a, b) meaning the solution set
of y + a*x + b = 0, so the duality is the trivial coefficient swap:
point (a, b) <-> line y + a*x + b = 0.  Incidence is symmetric under this
map, which is what every construction here exploits.  Vertical lines are
unrepresentable on purpose; vertical probes are handled as directions.

Everything is generic over the scalar domain (Fraction or CycloElement)
and decided by exact zero tests.  A coordinate pair shares one domain:
:func:`_unify` lifts a rational next to a cyclotomic coordinate, or
refuses two orders, by the field's one lifting rule, ``field._lift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .errors import DegenerateInputError
from .field import CycloElement, _lift

Scalar = Union[Fraction, CycloElement]


def _as_scalar(value) -> Scalar:
    if isinstance(value, (Fraction, CycloElement)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


def _unify(x, y) -> tuple[Scalar, Scalar]:
    x, y = _as_scalar(x), _as_scalar(y)
    if isinstance(x, CycloElement):
        return x, _lift(y, x.order)
    if isinstance(y, CycloElement):
        return _lift(x, y.order), y
    return x, y


def cross(ux: Scalar, uy: Scalar, vx: Scalar, vy: Scalar) -> Scalar:
    """Cross product of the vectors (ux, uy) and (vx, vy)."""
    return ux * vy - uy * vx


def _canonical(dx: int, dy: int) -> tuple[int, int]:
    """The coprime pair parallel to the integer vector (dx, dy), with dx > 0, or (0, 1)."""
    g = gcd(dx, dy) if dx > 0 or (dx == 0 and dy > 0) else -gcd(dx, dy)
    if not g:
        raise DegenerateInputError("zero direction")
    return dx // g, dy // g


@dataclass(frozen=True)
class Point:
    """A point (x, y) over one scalar domain.

    Two Fraction coordinates are kept as given, the result :func:`_unify`
    would give, without checking them again; other pairs are unified.
    """

    x: Scalar
    y: Scalar

    def __post_init__(self):
        if type(self.x) is type(self.y) is Fraction:
            return
        x, y = _unify(self.x, self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class NonVerticalLine:
    """The line y + a*x + b = 0 (slope -a).  Never vertical, by construction.

    Two Fraction coefficients are kept as given, as :class:`Point` keeps its
    coordinates; other pairs are unified.
    """

    a: Scalar
    b: Scalar

    def __post_init__(self):
        if type(self.a) is type(self.b) is Fraction:
            return
        a, b = _unify(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Direction:
    """A line direction: the vector (dx, dy) modulo scaling and sign.

    A rational direction is canonical when it is built: coprime plain ints
    (a Fraction hash costs a modular inverse) with dx > 0, or (0, 1).  So
    for rational directions structural equality and hashing mean
    "parallel".  In the cyclotomic domain no canonical scaling exists
    without division; the components stay as given and class membership is
    decided by the cross-product predicate (:meth:`parallel_to`), never by
    structural equality.
    """

    dx: Scalar
    dy: Scalar

    def __post_init__(self):
        dx, dy = (self.dx, self.dy) if type(self.dx) is type(self.dy) is int else _unify(self.dx, self.dy)
        if isinstance(dx, Fraction):
            dx, dy = dx.numerator * dy.denominator, dy.numerator * dx.denominator
        if type(dx) is int:
            dx, dy = _canonical(dx, dy)
        elif dx == 0 and dy == 0:
            raise DegenerateInputError("zero direction")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

    @classmethod
    def _of_canonical(cls, dx: int, dy: int) -> "Direction":
        """The direction of a pair already reduced by :func:`_canonical`, not reduced again."""
        self = object.__new__(cls)
        self.__dict__.update(dx=dx, dy=dy)
        return self

    @classmethod
    def between(cls, p: Point, q: Point) -> "Direction":
        """Direction of the segment from p to q."""
        return cls(q.x - p.x, q.y - p.y)

    @property
    def is_vertical(self) -> bool:
        return self.dx == 0

    def parallel_to(self, other: "Direction") -> bool:
        return cross(self.dx, self.dy, other.dx, other.dy) == 0


def dual_point_to_line(p: Point) -> NonVerticalLine:
    """The bijection sending point (a, b) to the line y + a*x + b = 0."""
    return NonVerticalLine(p.x, p.y)


def dual_line_to_point(line: NonVerticalLine) -> Point:
    """Inverse of :func:`dual_point_to_line`."""
    return Point(line.a, line.b)


def incident(p: Point, line: NonVerticalLine) -> bool:
    """Exact incidence: p lies on the line iff p.y + a*p.x + b = 0.

    The expression is symmetric in the roles of point and line coefficients,
    which gives incident(p, dual(q)) == incident(q, dual(p)) for all p, q.
    When all four scalars are Fractions, it is decided on their numerators
    and denominators as yn·xd·ad·bd + an·xn·yd·bd + bn·yd·xd·ad == 0: the
    expression times xd·yd·ad·bd, which is exact because every Fraction
    denominator is positive, so the product is never 0.
    """
    x, y, a, b = p.x, p.y, line.a, line.b
    if type(x) is type(y) is type(a) is type(b) is Fraction:
        xd, yd, ad, bd = x.denominator, y.denominator, a.denominator, b.denominator
        return xd * ad * (y.numerator * bd + b.numerator * yd) + a.numerator * x.numerator * yd * bd == 0
    return y + a * x + b == 0


def collinear(p: Point, q: Point, r: Point) -> bool:
    return cross(q.x - p.x, q.y - p.y, r.x - p.x, r.y - p.y) == 0


def _ensure_distinct(items: Sequence, what: str) -> None:
    seen: dict = {}
    for i, item in enumerate(items):
        j = seen.setdefault(item, i)
        if j != i:
            raise DegenerateInputError(f"duplicate {what} at positions {j} and {i}")


def ensure_distinct_points(points: Sequence[Point]) -> None:
    """Raise on two equal points, naming their positions.

    When every point is rational (decided once for the list) a point is keyed
    by its reduced numerators and denominators, which avoids Fraction's
    hash; otherwise by the point itself, so that a rational point and the
    same point with embedded cyclotomic constants still count as equal.
    """
    if all(isinstance(p.x, Fraction) for p in points):
        points = [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in points]
    _ensure_distinct(points, "point")


def ensure_distinct_lines(lines: Sequence[NonVerticalLine]) -> None:
    _ensure_distinct(lines, "line")


def concurrent_family(lines: Sequence[NonVerticalLine]) -> bool:
    """Whether one point lies on every line of the family.

    Decided through duality without any division: two distinct parallel
    lines never meet, and a pairwise non-parallel family is concurrent
    exactly when its dual points are collinear (their common line has
    distinct x-coordinates, hence is non-vertical, hence is the dual of
    the shared point).  Two non-parallel lines are always concurrent.
    """
    if len(lines) < 2:
        raise DegenerateInputError("concurrency needs at least 2 lines")
    ensure_distinct_lines(lines)
    if len({line.a for line in lines}) < len(lines):
        return False
    duals = [dual_line_to_point(line) for line in lines]
    p0, p1 = duals[0], duals[1]
    return all(collinear(p0, p1, p) for p in duals[2:])


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map x -> m @ x + t over one scalar domain."""

    m: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    t: tuple[Scalar, Scalar] = (0, 0)

    def __post_init__(self):
        (m00, m01), (m10, m11) = self.m
        m00, m01 = _unify(m00, m01)
        m10, m11 = _unify(m10, m11)
        tx, ty = _unify(*self.t)
        if m00 * m11 - m01 * m10 == 0:
            raise ValueError("singular matrix")
        object.__setattr__(self, "m", ((m00, m01), (m10, m11)))
        object.__setattr__(self, "t", (tx, ty))

    def apply(self, p: Point) -> Point:
        (m00, m01), (m10, m11) = self.m
        tx, ty = self.t
        return Point(m00 * p.x + m01 * p.y + tx, m10 * p.x + m11 * p.y + ty)


def affine_apply(amap: AffineMap, points: Sequence[Point]) -> list[Point]:
    """Pointwise image; preserves collinearity, parallelism, and hence spectra."""
    return [amap.apply(p) for p in points]
