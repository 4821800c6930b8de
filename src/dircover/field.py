"""Exact scalar arithmetic for the two coordinate domains.

Rational coordinates are plain ``fractions.Fraction`` values (arbitrary
precision, always reduced, positive denominator, structural equality).
Irrational coordinates, such as vertices of a regular n-gon, live in the
cyclotomic field Q(zeta_n) and are represented by :class:`CycloElement`:
a rational-coefficient polynomial in zeta_n = e^(2*pi*i/n), kept reduced
modulo the n-th cyclotomic polynomial Phi_n.  Reduction mod Phi_n makes
the representation unique, so equality and zero tests are exact
coefficient comparisons with no tolerance anywhere.

The geometric predicates built on top only ever need ring operations,
conjugation and exact zero tests, so division in Q(zeta_n) is
deliberately absent; :func:`residue` maps scalars into F_p, where chords
are bucketed by slope, and decides nothing.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import OrderMismatchError, ParseError

if TYPE_CHECKING:
    import mpmath  # imported only inside the functions that need it

Rational = Fraction
"""Alias for the rational coordinate scalar type."""

RationalLike = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _shown(text: str) -> str:
    """A token for an error message: whole when short, else a prefix and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse the ``p`` / ``p/q`` text form (optional leading minus) into a Fraction.

    An integer past ``int()``'s digit limit is refused, by its length, before ``int()`` runs.
    """
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
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def format_rational(value: RationalLike) -> str:
    """Inverse of :func:`parse_rational`; integers print without a denominator, at any length."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _poly_div_exact(dividend: list[int], divisor: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials exactly (ascending coefficients, monic divisor)."""
    rem = list(dividend)
    dd = len(divisor) - 1
    quot = [0] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                rem[i - dd + j] -= c * divisor[j]
    if any(rem):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial Phi_n, ascending integer coefficients.

    Computed by dividing x^n - 1 by the product of Phi_d over the proper
    divisors d of n, recursively and exactly.  The result is monic of
    degree phi(n).
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def euler_phi(n: int) -> int:
    """Euler totient from the prime factorisation of n, by trial division in O(sqrt(n))."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return phi - phi // n if n > 1 else phi


@lru_cache(maxsize=None)
def _cyclotomic_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of Phi_n and its nonzero terms below the leading one, as (index, coeff)."""
    poly = cyclotomic_poly(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce_mod_cyclo(nums: list[int], order: int) -> list[int]:
    """In-place remainder of an integer polynomial modulo Phi_order.

    Only the nonzero lower terms of Phi_order are subtracted (Phi_24 and
    Phi_48 have two, Phi_124 has 30); the leading term only clears a
    coefficient that is dropped anyway.
    """
    deg, terms = _cyclotomic_terms(order)
    for i in range(len(nums) - 1, deg - 1, -1):
        c = nums[i]
        if c:
            base = i - deg
            for j, m in terms:
                nums[base + j] -= c * m
    del nums[deg:]
    while len(nums) < deg:
        nums.append(0)
    return nums


class CycloElement:
    """An element of Q(zeta_n), reduced mod Phi_n.

    Internally the phi(n) rational coefficients share one positive
    denominator (``_num`` integers over ``_den``), normalized so their
    collective gcd with the denominator is 1; the zero element is all-zero
    numerators over denominator 1.  This keeps equality structural and the
    hot convolution loop in pure integer arithmetic.  Values are immutable;
    every operation returns a fresh element.

    Rational constants (int or Fraction) mix freely with elements of any
    order; two CycloElements only combine when their orders agree.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        _reduce_mod_cyclo(nums, order)
        norm = CycloElement._normalized(order, nums, den)
        self.order = order
        self._num = norm._num
        self._den = norm._den

    @classmethod
    def _raw(cls, order: int, nums: tuple[int, ...], den: int) -> "CycloElement":
        elem = object.__new__(cls)
        elem.order = order
        elem._num = nums
        elem._den = den
        return elem

    @classmethod
    def _normalized(cls, order: int, nums: list[int], den: int) -> "CycloElement":
        g = den
        for v in nums:
            if v:
                g = gcd(g, v)
        if g == den and not any(nums):
            return cls._raw(order, tuple(0 for _ in nums), 1)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        return cls._raw(order, tuple(nums), den)

    @classmethod
    def from_rational(cls, order: int, value: RationalLike) -> "CycloElement":
        q = Fraction(value)
        phi = euler_phi(order)
        return cls._normalized(order, [q.numerator] + [0] * (phi - 1), q.denominator)

    @classmethod
    def zero(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) rational coefficients on the basis 1, zeta, ..., zeta^(phi(n)-1)."""
        return tuple(Fraction(v, self._den) for v in self._num)

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cannot mix cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = gcd(self._den, o._den)
        m_self = o._den // g
        m_other = self._den // g
        nums = [a * m_self + b * m_other for a, b in zip(self._num, o._num)]
        return CycloElement._normalized(self.order, nums, self._den * m_self)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement._raw(self.order, tuple(-v for v in self._num), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi = len(self._num)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, b in enumerate(o._num):
                    if b:
                        prod[i + j] += a * b
        _reduce_mod_cyclo(prod, self.order)
        return CycloElement._normalized(self.order, prod, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = CycloElement.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "CycloElement":
        """Image under the automorphism zeta -> zeta^(n-1), i.e. complex conjugation."""
        n = self.order
        acc = [0] * max(n, len(self._num))
        for e, c in enumerate(self._num):
            if c:
                acc[(n - e) % n] += c
        _reduce_mod_cyclo(acc, n)
        return CycloElement._normalized(n, acc, self._den)

    def is_zero(self) -> bool:
        """Exact zero test: all coefficients vanish.  No tolerance is involved."""
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        return Fraction(self._num[0], self._den)

    def approx(self, precision_bits: int = 53) -> mpmath.mpc:
        """Evaluate the coefficient polynomial at zeta_n = e^(2*pi*i/n).

        Horner's rule runs at p = ``precision_bits`` + 10 bits.  Take each
        mpmath operation, its cos/sin of pi * (2/n) included, to be within
        one unit in the last place (relative error u = 2**(1 - p)).  With M
        the sum of the absolute values of the coefficients, every partial
        sum stays within M, the computed root is within 4u of zeta_n, and
        each Horner step adds at most 8uM, so the absolute error is at most
        (8 * phi(n) + 1) * u * M.  Predicates never decide on this value; it
        only displays and cross-checks.
        """
        import mpmath  # deferred: only decimal output needs it

        if precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        with mpmath.workprec(precision_bits + 10):
            root = mpmath.expjpi(mpmath.mpf(2) / self.order)
            acc = mpmath.mpc(0)
            for c in reversed(self._num):
                acc = acc * root + c
            return acc / self._den

    def __eq__(self, other):
        if isinstance(other, CycloElement):
            if other.order == self.order:
                return self._num == other._num and self._den == other._den
            if self.is_rational() and other.is_rational():
                return self.as_rational() == other.as_rational()
            raise OrderMismatchError(
                f"cannot compare cyclotomic orders {self.order} and {other.order}"
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        # Rational constants hash like their Fraction value so that embedded
        # constants collide with plain rationals in sets and dict keys.
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.order, self._num, self._den))

    def __str__(self):
        terms = []
        for e, c in enumerate(self._num):
            if not c:
                continue
            q = format_rational(Fraction(c, self._den))
            if e == 0:
                terms.append(q)
            else:
                mon = "z" if e == 1 else f"z^{e}"
                terms.append(mon if q == "1" else f"-{mon}" if q == "-1" else f"{q}*{mon}")
        if not terms:
            return "0"
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self):
        return f"<CycloElement order={self.order}: {self}>"


def zeta(order: int, power: int = 1) -> CycloElement:
    """zeta_n^k as a reduced element of Q(zeta_n)."""
    k = power % order
    return CycloElement(order, [0] * k + [1])


def residue_primes(order: int) -> Iterator[tuple[int, int]]:
    """Primes p = 1 (mod order), each with a root w of Phi_order mod p, found one at a time.

    Candidates run down from 2**24, where trial division is cheap, then up
    without end, so a caller that skips finitely many primes always gets one.
    """
    phi_m = cyclotomic_poly(order)
    top = (2**24 - 2) // order
    for k in chain(range(top, 0, -1), count(top + 1)):
        p = k * order + 1
        if p % 2 and all(p % d for d in range(3, isqrt(p) + 1, 2)):
            roots = (pow(a, (p - 1) // order, p) for a in count(2))  # F_p* is cyclic: one is primitive
            yield p, next(w for w in roots if _horner(phi_m, w, p) == 0)


def _horner(coeffs: Sequence[int], w: int, p: int) -> int:
    """The polynomial with the given ascending coefficients at w, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * w + c) % p
    return acc


def residue(value: Union[Fraction, CycloElement], p: int, w: int) -> Optional[int]:
    """The image of a scalar in F_p under zeta_m -> w, or None when p divides its denominator.

    With w a root of Phi_m mod p this is a ring homomorphism, so an exact
    identity such as dx1 * dy2 = dy1 * dx2 holds mod p too.
    """
    if isinstance(value, Fraction):
        nums, den = (value.numerator,), value.denominator
    else:
        nums, den = value._num, value._den
    if den % p == 0:
        return None
    return _horner(nums, w, p) * pow(den, -1, p) % p


def approx_real(value: Union[Fraction, CycloElement], precision_bits: int) -> mpmath.mpf:
    """The real part of a scalar as an mpmath number; display and cross-checks only.

    A Fraction is divided out at mpmath's working precision; a CycloElement
    is evaluated by :meth:`CycloElement.approx` at ``precision_bits``.
    """
    import mpmath  # deferred: only decimal output needs it

    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return value.approx(precision_bits).real


def approx_str(value: Union[Fraction, CycloElement], precision_bits: int, digits: int) -> str:
    """The real part of a scalar as ``digits`` significant decimals; display only."""
    import mpmath  # deferred: only decimal output needs it

    return mpmath.nstr(approx_real(value, precision_bits), digits)
