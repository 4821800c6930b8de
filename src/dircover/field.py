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
deliberately absent; :func:`_slope_key` maps coordinates into F_p, where
chords are bucketed by slope, and decides nothing.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, count
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import DegenerateInputError, OrderMismatchError
from .geometry import Direction, Point, _format_ratio

RationalLike = Union[int, Fraction]

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


def _divisor_product(n: int, deg: int, sign: int) -> list[int]:
    """The product of (1 - x^(n/e))^(sign * mu(e)) over the squarefree divisors e of n, cut after x^deg.

    Every factor has constant term 1, so the product is a power series: a
    factor 1 - x^d multiplies in one pass from the top, and divides out in
    one pass from the bottom.  For n > 1, sign 1 gives Phi_n, and sign -1
    the series of 1 / Phi_n, which is -(x^n - 1) / Phi_n below x^n; at
    n = 1 both are negated.
    """
    divisors = [(1, sign)]  # (e, sign * mu(e))
    for p in _prime_divisors(n):
        divisors += [(e * p, -mu) for e, mu in divisors]
    series = [1] + [0] * deg
    for e, mu in divisors:
        d = n // e
        if mu > 0:  # times 1 - x^d; from the top, each term reads an old one
            for i in range(deg, d - 1, -1):
                series[i] -= series[i - d]
        else:  # over 1 - x^d; from the bottom, each term reads a new one
            for i in range(d, deg + 1):
                series[i] += series[i - d]
    return series


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """n-th cyclotomic polynomial Phi_n, ascending integer coefficients.

    For n > 1, Phi_n is the product of (1 - x^(n/e))^mu(e) over the
    squarefree divisors e of n, cut after its degree phi(n).
    """
    return (-1, 1) if n == 1 else tuple(_divisor_product(n, euler_phi(n), 1))


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


def _slope_key(vectors: Sequence[tuple], order: int) -> Callable[[int, int], Optional[int]]:
    """The slope mod p of the chord (i, j), or None when it is vertical mod p.

    ``vectors`` are each point's x, then its y, in Q(zeta_m), m = order, as
    :func:`_cyclotomic_classes` reads them.  p is the first prime from
    :func:`residue_primes` that divides no denominator and keeps the points'
    residue pairs distinct, so no chord maps to (0, 0).  A vector at w, a
    root of Phi_m mod p, over its denominator is a ring homomorphism, so
    parallel chords always share a key; others only by a collision mod p.
    Points whose residue pairs collide are compared as vector pairs (both
    normal forms are unique), and equal ones raise at once, as rational ones do.
    """
    points = list(zip(vectors[0::2], vectors[1::2]))
    for p, w in residue_primes(order):
        if any(den % p == 0 for _, den in vectors):
            continue
        flat = [_horner(nums, w, p) * pow(den, -1, p) % p for nums, den in vectors]
        res = list(zip(flat[0::2], flat[1::2]))
        first: dict[tuple[int, int], int] = {}
        for i, r in enumerate(res):
            j = first.setdefault(r, i)
            if j != i and points[j] == points[i]:
                raise DegenerateInputError("zero direction")
        if len(first) == len(res):
            break

    def key(i: int, j: int) -> Optional[int]:
        dx, dy = res[j][0] - res[i][0], res[j][1] - res[i][1]
        return dy * pow(dx, -1, p) % p if dx else None

    return key


_PACKED_BUDGET = 350_000
"""The most k**2 * phi, k the digit width in bits, that :func:`_cyclotomic_classes` packs; more keeps the field test.

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


def _packed_coordinates(vectors: Sequence[tuple], order: int) -> Optional[tuple[int, list[int], list[int], int]]:
    """(k, xs, ys, Phi_m(2**k)): every coordinate packed at x = 2**k, or None past :data:`_PACKED_BUDGET`.

    Each of ``vectors``, a coordinate in Q(zeta_m), m = order (see
    :func:`_cyclotomic_classes`), is scaled by the common denominator D of
    all of them to an integer vector and packed as its value at x = 2**k.
    Packing is linear, so a chord's packed dx and dy are differences of
    packed points.  k is the least width that makes the test exact.

    Gate.  Before anything is scaled or packed, bit lengths bound k: a scaled
    coefficient num * (D / den) is below 2**w with w = bits(num) + bits(D / den),
    so a spread is below 2**(w + 1), and k <= bits(2*phi * ||Q||_1) +
    wx + wy + 2 for the widest x and y coordinates.  When that bound's square
    times phi exceeds :data:`_PACKED_BUDGET` the answer is None.  It is tried
    first without the bits of D / den, so large coefficients are refused
    before the lcm D is taken: 600 order-12 vectors, each a 3322-bit
    numerator over its own random odd 3322-bit denominator, are refused in
    0.3 ms, while their lcm alone takes 5.5 s (one core of a 2-core host).
    """
    phi = euler_phi(order)
    factor = 2 * phi * sum(map(abs, _divisor_product(order, order - phi, -1)))  # ||Q||_1, Q up to sign

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


def _cyclotomic_classes(pts: Sequence[Point]) -> dict[tuple, int]:
    """:func:`spectrum.pair_directions` when some point is cyclotomic: its classes, keys and counts.

    One pass checks that the points share one order m and reads every
    coordinate once, as its ``(numerators, den)`` in Q(zeta_m), a rational
    one padded to phi(m) entries: the ``vectors`` that :func:`_slope_key` and
    :func:`_packed_coordinates` take.  Then one loop buckets each chord by
    its slope mod a prime, which parallel chords share, and tests it only
    against the first chords of the classes in its bucket, usually one.  The
    gate picks the test once.  Within :data:`_PACKED_BUDGET` it is on packed
    integers: (dx, dy) is parallel to (rx, ry) iff dx * ry - dy * rx = 0 mod
    N = Phi_m(2**k), and the first chord each class absorbs is also tested
    in the field, with a disagreement raising ArithmeticError.  Past the
    budget a chord is a Direction, tested by :meth:`Direction.parallel_to`.

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
    """
    orders = {pt.x.order for pt in pts if isinstance(pt.x, CycloElement)}
    if len(orders) > 1:
        raise OrderMismatchError(f"points from different fields: orders {sorted(orders)}")
    order = orders.pop()
    pad = (0,) * (euler_phi(order) - 1)
    vectors = [
        (v._num, v._den) if isinstance(v, CycloElement) else ((v.numerator, *pad), v.denominator)
        for pt in pts
        for v in (pt.x, pt.y)
    ]
    n = len(pts)
    slope = _slope_key(vectors, order)
    packed = _packed_coordinates(vectors, order)
    if packed is None:
        chord, parallel = lambda i, j: Direction.between(pts[i], pts[j]), Direction.parallel_to
    else:
        k, xs, ys, modulus = packed
        chord = lambda i, j: (xs[j] - xs[i], ys[j] - ys[i])
        parallel = lambda c, r: (c[0] * r[1] - c[1] * r[0]) % modulus == 0
    reps: list[Direction] = []
    firsts: list = []  # each class's first chord, as ``parallel`` takes it
    seconds: list[set[int]] = []
    buckets: dict[Optional[int], list[int]] = {}
    checked: set[int] = set()
    for i in range(n):
        for j in range(i + 1, n):
            c = chord(i, j)
            bucket = buckets.setdefault(slope(i, j), [])
            for r in bucket:
                if parallel(c, firsts[r]):
                    if packed and r not in checked:
                        checked.add(r)
                        if not Direction.between(pts[i], pts[j]).parallel_to(reps[r]):
                            raise ArithmeticError(f"packed parallel test at k = {k} disagrees with the field")
                    break
            else:
                r = len(reps)
                bucket.append(r)
                reps.append(Direction.between(pts[i], pts[j]) if packed else c)
                firsts.append(c)
                seconds.append(set())
            seconds[r].add(j)
    return {(d.dx, d.dy): n - len(js) for d, js in zip(reps, seconds)}


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
