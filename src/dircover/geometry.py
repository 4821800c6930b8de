"""Points, non-vertical lines, the point-line duality, and exact predicates.

A non-vertical line is stored by the pair (a, b) meaning the solution set
of y + a*x + b = 0, so the duality is the trivial coefficient swap:
point (a, b) <-> line y + a*x + b = 0.  Incidence is symmetric under this
map, which is what every construction here exploits.  Vertical lines are
unrepresentable on purpose; vertical probes are handled as directions.

Everything is generic over the scalar domain (Fraction or CycloElement)
and decided by exact zero tests.  A coordinate pair shares one domain:
:func:`_unify` lifts a rational next to a cyclotomic coordinate, or
refuses two orders, by the field's one lifting rule, ``field._lift``, found
in ``sys.modules``: rational commands load this module but never the field.
Rational incidence and rational affine images are decided on the integer
numerators and denominators of their Fractions, an image coordinate built
as one Fraction.  The duality maps do not validate again: a point and a
line apply the same domain rule to their pair, so a dual takes the source
record's pair as it is.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .errors import DegenerateInputError, ParseError

Scalar = Union[Fraction, "CycloElement"]
_FIELD = __package__ + ".field"  # CycloElement's module, which this one never imports
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _shown(text: str) -> str:
    """A token for an error message: whole when short, else a prefix and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse the ``p`` / ``p/q`` text form (optional leading minus) into a Fraction.

    An integer past ``int()``'s digit limit is refused, by its length, before ``int()`` runs.
    """
    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0, not always coprime, of :func:`parse_rational`'s text, checked as it checks it."""
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ParseError(f"not a rational: {_shown(text)}")
    limit = sys.get_int_max_str_digits()
    longest = max(map(len, token.lstrip("-").split("/")))
    if limit and longest > limit:
        raise ParseError(f"integer of {longest} digits exceeds the {limit}-digit limit")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator: {_shown(text)}")
        return int(num), int(den)
    return int(token), 1


def format_rational(value: Union[int, Fraction]) -> str:
    """Inverse of :func:`parse_rational`; integers print without a denominator, at any length."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """num / den, den > 0, in lowest terms as :func:`format_rational` writes it: one gcd, no Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(Decimal(num // g))
    return f"{Decimal(num // g)}/{Decimal(den // g)}"


def _as_scalar(value, cyclo) -> Scalar:
    if isinstance(value, (cyclo, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact scalar required, got {type(value).__name__}")


def _unify(x, y) -> tuple[Scalar, Scalar]:
    field = sys.modules.get(_FIELD)  # no CycloElement exists before its module defines the class
    cyclo = getattr(field, "CycloElement", ())
    x, y = _as_scalar(x, cyclo), _as_scalar(y, cyclo)
    if isinstance(x, cyclo):
        return x, field._lift(y, x.order)
    if isinstance(y, cyclo):
        return field._lift(x, y.order), y
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


_set = object.__setattr__
_new = object.__new__


class _Frozen:
    """Immutable fields named by ``__slots__``, with structural equality, hash and repr.

    The constructor takes every field, by position or by keyword; a missing,
    extra or unknown field raises TypeError.  A subclass that checks or
    converts its fields defines its own, and sets each field once through
    ``object.__setattr__`` or the field's slot descriptor; assigning or
    deleting one later raises AttributeError.  Equality holds only between
    instances of one class.  Copies and pickles are rebuilt through the
    constructor.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{self.__class__.__qualname__}() takes exactly the fields {', '.join(names)}")
        for name in names:
            _set(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Point(_Frozen):
    """An immutable point (x, y) over one scalar domain.

    Two Fraction coordinates are kept as given, the result :func:`_unify`
    would give, without checking them again; other pairs are unified.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar):
        if not type(x) is type(y) is Fraction:
            x, y = _unify(x, y)
        _set_x(self, x)
        _set_y(self, y)


class NonVerticalLine(_Frozen):
    """The immutable line y + a*x + b = 0 (slope -a).  Never vertical, by construction.

    Two Fraction coefficients are kept as given, as :class:`Point` keeps its
    coordinates; other pairs are unified.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Scalar, b: Scalar):
        if not type(a) is type(b) is Fraction:
            a, b = _unify(a, b)
        _set_a(self, a)
        _set_b(self, b)


class Direction(_Frozen):
    """An immutable line direction: the vector (dx, dy) modulo scaling and sign.

    A rational direction is canonical when it is built: coprime plain ints
    (a Fraction hash costs a modular inverse) with dx > 0, or (0, 1).  So
    for rational directions structural equality and hashing mean
    "parallel".  In the cyclotomic domain no canonical scaling exists
    without division; the components stay as given and class membership is
    decided by the cross-product predicate (:meth:`parallel_to`), never by
    structural equality.
    """

    __slots__ = ("dx", "dy")

    def __init__(self, dx: Scalar, dy: Scalar):
        if not type(dx) is type(dy) is int:
            dx, dy = _unify(dx, dy)
        if isinstance(dx, Fraction):
            dx, dy = dx.numerator * dy.denominator, dy.numerator * dx.denominator
        if type(dx) is int:
            dx, dy = _canonical(dx, dy)
        elif dx == 0 and dy == 0:
            raise DegenerateInputError("zero direction")
        _set_dx(self, dx)
        _set_dy(self, dy)

    @classmethod
    def between(cls, p: Point, q: Point) -> "Direction":
        """Direction of the segment from p to q."""
        return cls(q.x - p.x, q.y - p.y)

    def parallel_to(self, other: "Direction") -> bool:
        return cross(self.dx, self.dy, other.dx, other.dy) == 0


# The three records' fields are set through their slot descriptors, which skips the name lookup of setattr.
_set_x, _set_y = Point.x.__set__, Point.y.__set__
_set_a, _set_b = NonVerticalLine.a.__set__, NonVerticalLine.b.__set__
_set_dx, _set_dy = Direction.dx.__set__, Direction.dy.__set__


def dual_point_to_line(p: Point) -> NonVerticalLine:
    """The bijection sending point (a, b) to the line y + a*x + b = 0.

    The line takes the point's coordinate objects as they are: a point and a
    line apply the same domain rule to their pair, so it is not checked again.
    """
    line = _new(NonVerticalLine)
    _set_a(line, p.x)
    _set_b(line, p.y)
    return line


def dual_line_to_point(line: NonVerticalLine) -> Point:
    """Inverse of :func:`dual_point_to_line`, which likewise takes the line's pair unchecked."""
    p = _new(Point)
    _set_x(p, line.a)
    _set_y(p, line.b)
    return p


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
        (xn, xd), (yn, yd), (an, ad), (bn, bd) = (
            x.as_integer_ratio(), y.as_integer_ratio(), a.as_integer_ratio(), b.as_integer_ratio()
        )
        return xd * ad * (yn * bd + bn * yd) + an * xn * yd * bd == 0
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

    A point is keyed by itself in either domain: a cyclotomic rational
    constant hashes like its Fraction, so a rational point and the same point
    with embedded cyclotomic constants count as equal.
    """
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


class AffineMap(_Frozen):
    """Invertible affine map x -> m @ x + t over one scalar domain; immutable."""

    __slots__ = ("m", "t")

    def __init__(
        self, m: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]], t: tuple[Scalar, Scalar] = (0, 0)
    ):
        (m00, m01), (m10, m11) = m
        m00, m01 = _unify(m00, m01)
        m10, m11 = _unify(m10, m11)
        tx, ty = _unify(*t)
        if m00 * m11 - m01 * m10 == 0:
            raise ValueError("singular matrix")
        _set(self, "m", ((m00, m01), (m10, m11)))
        _set(self, "t", (tx, ty))

    def apply(self, p: Point) -> Point:
        """The image m @ p + t.

        When all six map scalars and both coordinates are Fractions, each
        image coordinate is computed on their integer numerators and
        denominators by :func:`_affine_row`, as :func:`incident` decides
        incidence, and built as one Fraction.  Any other domain, even one
        cyclotomic scalar among the eight, takes the scalar arithmetic.
        """
        (m00, m01), (m10, m11) = self.m
        tx, ty = self.t
        x, y = p.x, p.y
        if type(x) is type(y) is type(m00) is type(m01) is type(m10) is type(m11) is type(tx) is type(ty) is Fraction:
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            return Point(_affine_row(m00, m01, tx, xn, xd, yn, yd), _affine_row(m10, m11, ty, xn, xd, yn, yd))
        return Point(m00 * x + m01 * y + tx, m10 * x + m11 * y + ty)


def _affine_row(m0: Fraction, m1: Fraction, t: Fraction, xn: int, xd: int, yn: int, yd: int) -> Fraction:
    """m0·x + m1·y + t for x = xn/xd and y = yn/yd, xd, yd > 0, as one Fraction of integers.

    With m0 = an/ad, m1 = bn/bd, t = tn/td, u = ad·xd and v = bd·yd, the
    value is ((an·xn·v + bn·yn·u)·td + tn·u·v) / (u·v·td).  Every Fraction
    denominator is positive, so this one is too, and Fraction reduces the
    pair once, where the scalar form reduces after each of its four operations.
    """
    (an, ad), (bn, bd), (tn, td) = m0.as_integer_ratio(), m1.as_integer_ratio(), t.as_integer_ratio()
    u, v = ad * xd, bd * yd
    return Fraction((an * xn * v + bn * yn * u) * td + tn * u * v, u * v * td)


def affine_apply(amap: AffineMap, points: Sequence[Point]) -> list[Point]:
    """Pointwise image; preserves collinearity, parallelism, and hence spectra."""
    return [amap.apply(p) for p in points]
