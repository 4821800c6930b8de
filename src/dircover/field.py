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
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, count
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import OrderMismatchError, ParseError

RationalLike = Union[int, Fraction]

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


def format_rational(value: RationalLike) -> str:
    """Inverse of :func:`parse_rational`; integers print without a denominator, at any length."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(num: int, den: int) -> str:
    """num / den, den > 0, in lowest terms as :func:`format_rational` writes it: one gcd, no Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(Decimal(num // g))
    return f"{Decimal(num // g)}/{Decimal(den // g)}"


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division in O(sqrt(n))."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial Phi_n, ascending integer coefficients.

    For n > 1, Phi_n is the product of (1 - x^(n/e))^mu(e) over the
    squarefree divisors e of n.  Every factor has constant term 1, so the
    product is a power series, cut after the degree phi(n) of Phi_n: a
    factor 1 - x^d multiplies in one pass from the top, and divides out in
    one pass from the bottom.
    """
    primes = _prime_divisors(n)
    if n == 1:
        return (-1, 1)
    divisors = [(1, 1)]  # (e, mu(e))
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
    deg = euler_phi(n)
    series = [1] + [0] * deg
    for e, mu in divisors:
        d = n // e
        if mu > 0:  # times 1 - x^d; from the top, each term reads an old one
            for i in range(deg, d - 1, -1):
                series[i] -= series[i - d]
        else:  # over 1 - x^d; from the bottom, each term reads a new one
            for i in range(d, deg + 1):
                series[i] += series[i - d]
    return tuple(series)


def euler_phi(n: int) -> int:
    """Euler totient, n times (1 - 1/p) over the primes p dividing n."""
    phi = n
    for p in _prime_divisors(n):
        phi -= phi // p
    return phi


@lru_cache(maxsize=None)
def _cyclotomic_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of Phi_n and its nonzero terms below the leading one, as (index, coeff)."""
    poly = cyclotomic_poly(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce_mod_cyclo(nums: list[int], order: int) -> list[int]:
    """In-place remainder of an integer polynomial modulo Phi_order.

    First a fold: zeta^h = -1 for even order, h = order/2, and zeta^h = 1 for
    odd order, h = order, so a coefficient at i >= h moves to i - h, with its
    sign flipped for even order.  A product of two reduced elements then
    leaves only the rows from phi(order) to h for the division by Phi_order,
    which subtracts only its nonzero lower terms (Phi_24 and Phi_48 have two,
    Phi_124 has 30); the leading term only clears a coefficient that is
    dropped anyway.
    """
    deg, terms = _cyclotomic_terms(order)
    h, sign = (order // 2, -1) if order % 2 == 0 else (order, 1)
    for i in range(len(nums) - 1, h - 1, -1):
        c = nums[i]
        if c:
            nums[i - h] += sign * c
    del nums[h:]
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
    denominator (``_num`` integers over ``_den``).  There is one normal
    form, built in one place, :meth:`_make`: the numerators and the
    denominator have gcd 1, so the zero element is all-zero numerators over
    denominator 1.  This keeps equality structural and the hot convolution
    loop in pure integer arithmetic.  Values are immutable; every operation
    returns a fresh element.

    Rational constants (int or Fraction) mix freely with elements of any
    order; two CycloElements only combine when their orders agree.  Both
    halves of that rule live in :func:`_lift`.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        self._make(order, _reduce_mod_cyclo(nums, order), den)

    def _make(self, order: int, nums: list[int], den: int) -> "CycloElement":
        """Store ``nums`` over ``den`` > 0 in normal form in this element's slots, and return it."""
        g = gcd(den, *nums)
        self.order = order
        self._num = tuple(nums) if g == 1 else tuple([v // g for v in nums])
        self._den = den // g
        return self

    @classmethod
    def from_rational(cls, order: int, value: RationalLike) -> "CycloElement":
        nums = [value.numerator] + [0] * (euler_phi(order) - 1)
        return _new()._make(order, nums, value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) rational coefficients on the basis 1, zeta, ..., zeta^(phi(n)-1)."""
        return tuple(Fraction(v, self._den) for v in self._num)

    def _combine(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        o = _lift(other, self.order)
        if o is None:
            return NotImplemented
        g = gcd(self._den, o._den)
        m_self = o._den // g
        m_other = sign * (self._den // g)
        nums = [a * m_self + b * m_other for a, b in zip(self._num, o._num)]
        return _new()._make(self.order, nums, self._den * m_self)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new()._make(self.order, [-v for v in self._num], self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        o = _lift(other, self.order)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def __mul__(self, other):
        o = _lift(other, self.order)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * len(self._num) - 1)
        right = [(j, b) for j, b in enumerate(o._num) if b]
        for i, a in enumerate(self._num):
            if a:
                for j, b in right:
                    prod[i + j] += a * b
        _reduce_mod_cyclo(prod, self.order)
        return _new()._make(self.order, prod, self._den * o._den)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloElement":
        """Image under the automorphism zeta -> zeta^(n-1), i.e. complex conjugation."""
        return _from_powers(self.order, ((-e, c) for e, c in enumerate(self._num)), self._den)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def __eq__(self, other):
        if isinstance(other, CycloElement):
            if other.order == self.order:
                return self._num == other._num and self._den == other._den
            if not (self.is_rational() and other.is_rational()):
                _lift(other, self.order)  # raises: the orders clash
            num, den = other._num[0], other._den
        elif isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        # A rational constant's normal form is its reduced fraction in the constant term.
        return self._den == den and self._num[0] == num and self.is_rational()

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
            q = _format_ratio(c, self._den)
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


_new = partial(object.__new__, CycloElement)
"""A blank element, for :meth:`CycloElement._make` to fill."""


def _from_powers(order: int, terms: Iterable[tuple[int, int]], den: int = 1) -> CycloElement:
    """sum c * zeta^e / den over the (e, c) of ``terms``, integers e and c, den > 0, reduced once."""
    nums = [0] * order
    for e, c in terms:
        nums[e % order] += c
    return _new()._make(order, _reduce_mod_cyclo(nums, order), den)


def _from_ratios(order: int, ratios: Sequence[tuple[int, int]]) -> CycloElement:
    """sum p/q * zeta^e over the (p, q), q > 0, at each index e, over their lcm, reduced once."""
    den = lcm(*(q for _, q in ratios))
    return _new()._make(order, _reduce_mod_cyclo([p * (den // q) for p, q in ratios], order), den)


def _lift(value, order: int) -> Optional[CycloElement]:
    """The one lifting rule: a scalar as an element of Q(zeta_order), or None if it is no scalar.

    An int or Fraction joins as a constant; a CycloElement of another order
    raises :class:`OrderMismatchError`.
    """
    if isinstance(value, CycloElement):
        if value.order != order:
            raise OrderMismatchError(f"cannot mix cyclotomic orders {order} and {value.order}")
        return value
    if isinstance(value, (int, Fraction)):
        return CycloElement.from_rational(order, value)
    return None


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


def _atan_inv(x: int, w: int) -> int:
    """2**w * atan(1/x) for an integer x > 1, by its series; every term is floored (see :func:`_cos_table`)."""
    total, power, j, x2 = 0, (1 << w) // x, 1, x * x
    while power:
        total += power // j if j % 4 == 1 else -(power // j)
        power //= x2
        j += 2
    return total


@lru_cache(maxsize=None)
def _cos_table(order: int, bits: int) -> tuple[int, ...]:
    """T_k = 2**bits * cos(2*pi*k/order) rounded to an integer within 1, for k < phi(order).

    Integer fixed point at w = bits + g bits, g = bits.bit_length() + 12, and
    every division a floor (a floored quotient of a floor is the floor of the
    exact quotient).  Errors, in units of 2**-w:
    - pi = 16 atan(1/5) - 4 atan(1/239) (Machin), each series summed until its
      power floors to 0: every term errs by less than 1 and the tail by less
      than 1, so with J5 < w/4.6 + 1 and J239 < w/15.8 + 1 terms pi errs by
      less than 4w + 40;
    - the angle x = 2*pi*k'/order, k' = min(k, order - k) so that x lies in
      [0, pi], errs by a < 4w + 41, and y = x*x by at most 7a + 1;
    - cos x = 1 - y/2 * (1 - y/12 * (1 - ...)) by Horner up to the first J with
      (2J)! >= 10**J * 2**w: as y < 10, the dropped tail is below 1, the
      floors add at most 12, and the error of y counts at most twice, since
      the polynomial's derivative in y is below 2 in size.
    In all at most 56w + 589 < 2**(g-1), so dropping the g guard bits with
    rounding leaves an error of at most 1.
    """
    g = bits.bit_length() + 12
    w = bits + g
    pi = 16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)
    terms, fact, tens = 0, 1, 1
    while fact < tens << w:
        terms += 1
        fact *= (2 * terms - 1) * 2 * terms
        tens *= 10
    one, half = 1 << w, 1 << (g - 1)
    table = []
    for k in range(euler_phi(order)):
        y = (2 * min(k, order - k) * pi // order) ** 2 >> w
        r = one
        for j in range(terms, 0, -1):
            r = one - (y * r >> w) // ((2 * j - 1) * 2 * j)
        table.append((r + half) >> g)
    return tuple(table)


def _real_bounds(value: Union[Fraction, CycloElement], bits: int) -> tuple[int, int, int]:
    """Integers (s, e, d), d > 0, with the real part of a scalar within [s - e, s + e] / d.

    A rational value is exact: e = 0.  Otherwise the real part of
    sum c_k zeta^k / den is sum c_k cos(2*pi*k/m) / den, so s is one dot
    product with :func:`_cos_table`, e = sum |c_k| counts its entries' error of
    at most 1, and d = den * 2**bits.  s / d is then the nearest float to a
    value within e / d.
    """
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if value.is_rational():
        return value._num[0], 0, value._den
    nums = value._num
    return sum(map(mul, nums, _cos_table(value.order, bits))), sum(map(abs, nums)), value._den << bits


def _decimal(num: int, den: int, digits: int) -> str:
    """num / den (den > 0) to ``digits`` significant digits, rounded half up, as text.

    One correctly rounded ``decimal`` division, over an exponent range wide
    enough for any quotient of two integers.  Trailing zeros are stripped,
    zero is ``0.0``, and a leading digit at 10**e prints in fixed point when
    min(-(digits // 3), -5) < e < digits, else with ``e+N`` or ``e-N``: the
    ``nstr`` format of the arbitrary precision library that the tests
    compare against.
    """
    if not num:
        return "0.0"
    q = Context(prec=digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN).divide(num, den)
    sign, mant, e = "-" if num < 0 else "", "".join(map(str, q.as_tuple().digits)), q.adjusted()
    if min(-(digits // 3), -5) < e < digits:
        text, exponent = ("0." + "0" * (-e - 1) + mant if e < 0 else f"{mant[:e + 1]}.{mant[e + 1:]}"), ""
    else:
        text, exponent = f"{mant[0]}.{mant[1:]}", f"e{e:+d}"
    text = text.rstrip("0")
    return sign + (text + "0" if text.endswith(".") else text) + exponent


def approx_str(value: Union[Fraction, CycloElement], digits: int) -> str:
    """The real part of a scalar to ``digits`` significant digits, correctly rounded; display only.

    Ziv's test: when both ends of :func:`_real_bounds`'s enclosure render
    alike, so does every value between them.  Otherwise the precision doubles.
    Every rounding boundary is rational, and an irrational real part is none,
    so the loop ends once a miss has replaced the value by its exact real part
    (a rational one then renders exactly).
    """
    bits = 4 * digits + 16
    while True:
        s, e, d = _real_bounds(value, bits)
        text = _decimal(s - e, d, digits)
        if text == _decimal(s + e, d, digits):
            return text
        if isinstance(value, CycloElement):
            value = (value + value.conjugate()) * Fraction(1, 2)
        bits *= 2
