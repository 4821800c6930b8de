"""Field kernel tests.

Derived expectations are frozen from the independent oracles stated next to
them (synthetic polynomial division, double-precision trigonometry, sympy's
cyclotomic polynomials); the implementation never shares code with those.
"""

import decimal
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from dircover.errors import OrderMismatchError, ParseError
from dircover.field import (
    CycloElement,
    _cos_table,
    _cyclotomic_terms,
    _decimal,
    _real_bounds,
    _reduce_mod_cyclo,
    approx_str,
    cyclotomic_poly,
    euler_phi,
)
from dircover.geometry import Direction, NonVerticalLine, Point, format_rational, parse_rational

from support import coefficients, zeta


def _divide_by_x_minus_1(desc_coeffs):
    """Synthetic division oracle: quotient of p(x) / (x - 1), descending coeffs."""
    out = []
    acc = 0
    for c in desc_coeffs[:-1]:
        acc += c
        out.append(acc)
    assert acc + desc_coeffs[-1] == 0, "not divisible by x - 1"
    return out


class TestCyclotomicPoly:
    def test_order_one_is_x_minus_1(self):
        assert cyclotomic_poly(1) == (-1, 1)

    def test_order_four(self):
        assert cyclotomic_poly(4) == (1, 0, 1)

    def test_order_seven_against_division_oracle(self):
        # x^7 - 1 divided by x - 1, descending [1,0,...,0,-1]
        quotient_desc = _divide_by_x_minus_1([1, 0, 0, 0, 0, 0, 0, -1])
        assert tuple(reversed(quotient_desc)) == (1, 1, 1, 1, 1, 1, 1)
        assert cyclotomic_poly(7) == (1, 1, 1, 1, 1, 1, 1)

    # After 1..36: prime powers, orders with many primes, and the largest fields a command builds,
    # counterexample --n 300 in Q(zeta_1196) and polygon --n 997 and --n 1999 in Q(zeta_3988), Q(zeta_7996).
    @pytest.mark.parametrize("n", list(range(1, 37)) + [1024, 2187, 3125, 2310, 4620, 1196, 3988, 7996])
    def test_matches_sympy(self, n):
        x = sympy.symbols("x")
        expected = tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert cyclotomic_poly(n) == expected

    @pytest.mark.parametrize("n", [7996, 30030])
    def test_large_orders_are_fast(self, n):
        start = time.perf_counter()
        poly = cyclotomic_poly.__wrapped__(n)  # past the cache
        assert time.perf_counter() - start < 1.0
        assert len(poly) == euler_phi(n) + 1 and poly[0] == poly[-1] == 1

    def test_degree_is_totient(self):
        for n in range(1, 3001):
            assert euler_phi(n) == int(sympy.totient(n))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


def _dense_reduce(nums, modulus):
    """The reduction loop over every coefficient of the monic modulus."""
    deg = len(modulus) - 1
    for i in range(len(nums) - 1, deg - 1, -1):
        c = nums[i]
        if c:
            for j in range(deg + 1):
                nums[i - deg + j] -= c * modulus[j]
    return nums[:deg] + [0] * max(0, deg - len(nums))


class TestSparseReduction:
    @pytest.mark.parametrize("m, terms", [(12, 3), (24, 3), (48, 3), (100, 5), (124, 31), (140, 17)])
    def test_nonzero_terms(self, m, terms):
        x = sympy.symbols("x")
        expected = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs())]
        deg, lower = _cyclotomic_terms(m)
        assert deg == euler_phi(m) == len(expected) - 1
        assert len(lower) + 1 == terms == sum(1 for c in expected if c)
        assert lower == tuple((j, c) for j, c in enumerate(expected[:-1]) if c)

    @pytest.mark.parametrize("m", [12, 24, 48, 100, 124, 140])
    def test_matches_dense_loop_and_sympy(self, m):
        rng = random.Random(m)
        modulus = cyclotomic_poly(m)
        x = sympy.symbols("x")
        phi_m = sympy.Poly(list(reversed(modulus)), x)
        for length in (1, len(modulus) - 1, len(modulus), 2 * len(modulus) - 3, m + 3):
            nums = [rng.randint(-10**12, 10**12) for _ in range(length)]
            got = _reduce_mod_cyclo(list(nums), m)
            assert got == _dense_reduce(list(nums), modulus)
            rem = sympy.rem(sympy.Poly(list(reversed(nums)), x), phi_m)
            expected = [int(c) for c in reversed(rem.all_coeffs())]
            assert got == expected + [0] * (len(got) - len(expected))


def _random_element(rng, m, nonzero):
    """Integer numerators with ``nonzero`` nonzero terms (None: every term drawn, some 0) over one denominator."""
    phi = euler_phi(m)
    nums = [0] * phi
    if nonzero is None:
        nums = [rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(phi)]
    else:
        for k in rng.sample(range(phi), min(nonzero, phi)):
            nums[k] = rng.randint(-10**6, 10**6) or 1
    return nums, rng.randint(1, 1000)


def _schoolbook(a, b, m):
    """Every coefficient pair multiplied, then divided by Phi_m with no shortcut."""
    prod = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            prod[i + j] += a[i] * b[j]
    return _dense_reduce(prod, cyclotomic_poly(m))


MUL_ORDERS = [3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 30, 31, 48, 60, 97, 100, 105, 124, 128, 210, 255, 256, 299, 300]


class TestMultiplication:
    @pytest.mark.parametrize("m", MUL_ORDERS + [3988])
    def test_sparse_and_dense_products_match_schoolbook(self, m):
        rng = random.Random(m)
        kinds = [(k, q) for k in (1, 2, 4, None) for q in (1, 2, 4, None)]
        for left, right in kinds if m < 3988 else [(2, 4), (4, None)]:
            (a, da), (b, db) = _random_element(rng, m, left), _random_element(rng, m, right)
            x = CycloElement(m, [Fraction(v, da) for v in a])
            y = CycloElement(m, [Fraction(v, db) for v in b])
            expected = tuple(Fraction(v, da * db) for v in _schoolbook(a, b, m))
            assert coefficients(x * y) == expected, (m, left, right)

    def test_i_squared(self):
        assert zeta(4) * zeta(4) == -1

    def test_seventh_roots_wrap(self):
        assert zeta(7, 3) * zeta(7, 4) == 1

    def test_real_combination_square(self):
        # (z + z^6)^2 = z^2 + 2 z^7 + z^12 = 2 + z^2 + z^5; frozen by hand expansion
        lhs = (zeta(7) + zeta(7, 6)) * (zeta(7) + zeta(7, 6))
        assert lhs == CycloElement(7, [2, 0, 1, 0, 0, 1])

    def test_ring_identities_spot(self):
        a = CycloElement(7, [Fraction(1, 2), 0, 3])
        b = CycloElement(7, [0, -1, 0, Fraction(2, 5)])
        c = CycloElement(7, [1, 1, 1, 1, 1])
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_power_wraps_to_one(self):
        for n in (3, 4, 7, 12):
            for k in range(1, n):
                assert zeta(n, k) * zeta(n, n - k) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 15, 28, 97, 100])
    def test_power_is_taken_mod_the_order(self, n):
        for k in (-3 * n - 1, -n, -1, n, n + 1, 5 * n + 3):
            assert zeta(n, k) == CycloElement(n, [0] * (k % n) + [1]), (n, k)


class TestConjugation:
    def test_primitive_root(self):
        assert zeta(7).conjugate() == zeta(7, 6)

    def test_fixes_rationals(self):
        assert CycloElement.from_rational(7, Fraction(3, 2)).conjugate() == Fraction(3, 2)

    def test_linearity(self):
        assert (zeta(7) + zeta(7, 2)).conjugate() == zeta(7, 6) + zeta(7, 5)

    def test_involution(self):
        a = CycloElement(7, [1, Fraction(-2, 3), 0, 5, 0, Fraction(7, 11)])
        assert a.conjugate().conjugate() == a

    def test_real_part_is_fixed(self):
        a = zeta(12, 5) * Fraction(3, 7) + zeta(12, 2)
        real = a + a.conjugate()
        assert real.conjugate() == real

    def test_matches_the_index_loop(self):
        # the reference: move each coefficient from zeta^e to zeta^(n-e), then divide by Phi_n
        rng = random.Random(19)
        for n in list(range(3, 40)) + [97, 105, 128, 199, 255, 299, 300]:
            nums, den = _random_element(rng, n, None)
            a = CycloElement(n, [Fraction(v, den) for v in nums])
            acc = [0] * n
            for e, v in enumerate(coefficients(a)):
                acc[(n - e) % n] += v
            assert a.conjugate() == CycloElement(n, acc), n


class TestZeroTest:
    def test_sum_of_all_seventh_roots(self):
        total = CycloElement.from_rational(7, 0)
        for k in range(7):
            total = total + zeta(7, k)
        assert total == 0

    def test_distinct_monomials_nonzero(self):
        assert zeta(7) - zeta(7, 2) != 0

    def test_sixth_vs_third_root_relation(self):
        # zeta_3 embeds in Q(zeta_6) as zeta_6^2, and zeta_6 = 1 + zeta_3 there
        value = zeta(6) - zeta(6, 2) - 1
        assert value == 0
        assert _real_bounds(value, 64) == (0, 0, 1)


def _integer_decimal(num: int, den: int, digits: int) -> str:
    """The integer-only rendering that ``_decimal`` replaced: exponent search, scaling and carry."""
    if not num:
        return "0.0"
    sign, num = ("-", -num) if num < 0 else ("", num)

    def below(e: int) -> bool:  # num / den < 10**e
        return num * 10**max(-e, 0) < den * 10**max(e, 0)

    e = (num.bit_length() - den.bit_length()) * 1233 >> 12
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    shift = digits - 1 - e
    top, bottom = num * 10**max(shift, 0), den * 10**max(-shift, 0)
    mant = str((2 * top + bottom) // (2 * bottom))
    if len(mant) > digits:  # rounded up to the next power of ten
        mant, e = mant[:digits], e + 1
    if min(-(digits // 3), -5) < e < digits:
        text, exponent = ("0." + "0" * (-e - 1) + mant if e < 0 else f"{mant[:e + 1]}.{mant[e + 1:]}"), ""
    else:
        text, exponent = f"{mant[0]}.{mant[1:]}", f"e{e:+d}"
    text = text.rstrip("0")
    return sign + (text + "0" if text.endswith(".") else text) + exponent


def _as_quotient(mantissa: int, power: int) -> tuple[int, int]:
    """mantissa * 10**power as (num, den)."""
    return (mantissa * 10**power, 1) if power >= 0 else (mantissa, 10**-power)


def _decimal_cases(rng: random.Random, count: int):
    """``count`` seeded (num, den, digits) cases, digits 1 to 40, rich in the values rounding gets wrong."""
    for i in range(count):
        digits = rng.randint(1, 40)
        sign = rng.choice((1, -1))
        kind = i % 6
        if kind == 0:  # a random quotient
            num, den = rng.randint(0, 10 ** rng.randint(1, 60)), rng.randint(1, 10 ** rng.randint(1, 60))
        elif kind == 1:  # an exact tie: digits + 1 significant digits, the last a 5
            num, den = _as_quotient(10 * rng.randrange(10 ** (digits - 1), 10**digits) + 5, rng.randint(-60, 60))
        elif kind == 2:  # a carry: 0.99...95 and its neighbours, which round up to a power of ten
            length = digits + rng.randint(1, 3)
            num, den = _as_quotient(10**length - rng.randint(1, 6), rng.randint(-60, 60) - length)
        elif kind == 3:  # each side of the fixed/exponent thresholds 10**low and 10**digits
            power = rng.choice((min(-(digits // 3), -5), digits)) + rng.randint(-1, 1)
            num, den = _as_quotient(10**digits + rng.randint(-3, 3), power - digits)
        elif kind == 4:  # at most four significant digits, mostly exact at this precision
            num, den = _as_quotient(rng.randint(1, 10**3), rng.randint(-50, 50))
        else:  # a zero numerator, or a quotient of two integers below 1000
            num, den = (0, rng.randint(1, 99)) if rng.random() < 0.05 else (rng.randint(1, 999), rng.randint(1, 999))
        yield sign * num, den, digits


def real(value, bits: int = 64) -> float:
    s, _, d = _real_bounds(value, bits)
    return s / d


def mp_real(value) -> mpmath.mpf:
    """sum c_k cos(2 pi k / m) at the working precision, independent of the integer table."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    m = value.order
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * k / m)
        for k, c in enumerate(coefficients(value))
    )


def mp_str(value, digits: int) -> str:
    with mpmath.workprec(600):
        return mpmath.nstr(mp_real(value), digits)


class TestApprox:
    def test_imaginary_unit(self):
        # zeta_4 = i has real part 0, and i * zeta_8 = zeta_8^3 has real part -sqrt(1/2)
        assert abs(real(zeta(4))) < 1e-15
        assert abs(real(zeta(8, 3)) + 0.5**0.5) < 1e-15

    def test_cosine_pair(self):
        import math

        z = real(zeta(7) + zeta(7, 6))
        assert abs(z - 2 * math.cos(2 * math.pi / 7)) < 1e-12
        # its imaginary part is the real part of -i * z; in Q(zeta_28), i = zeta^7 and zeta_7 = zeta^4
        assert abs(real(-zeta(28, 7) * (zeta(28, 4) + zeta(28, 24)))) < 1e-12

    def test_zero(self):
        assert _real_bounds(CycloElement.from_rational(9, 0), 64) == (0, 0, 1)

    def test_higher_precision_tightens(self):
        # Reduced, the pair is -1 - z^2 - z^3 - z^4 - z^5, so at 138 bits the enclosure has
        # radius 5 * 2**-138 < 2**-135, and it holds the value.
        s, e, d = _real_bounds(zeta(7) + zeta(7, 6), 138)
        assert Fraction(e, d) < Fraction(1, 2**135)
        with mpmath.workprec(300):
            exact = 2 * mpmath.cos(2 * mpmath.pi / 7)
            assert mpmath.mpf(s - e) / d <= exact <= mpmath.mpf(s + e) / d

    def test_fraction_decimals_follow_the_precision(self):
        third = approx_str(Fraction(1, 3), 39)
        assert third == "0." + "3" * 39
        assert third == approx_str(CycloElement.from_rational(12, Fraction(1, 3)), 39)


class TestDecimals:
    """``approx_str`` against ``mpmath.nstr`` of a 600-bit evaluation, string for string."""

    def test_random_real_elements(self):
        rng = random.Random(16)
        for _ in range(60):
            m = rng.randint(3, 300)
            phi = euler_phi(m)
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(rng.randint(1, phi))]
            a = CycloElement(m, coeffs)
            value = a + a.conjugate()
            for digits in (12, 39):
                assert approx_str(value, digits) == mp_str(value, digits), (m, digits)

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(-7)])
    def test_exact_values(self, q):
        for digits in (12, 39):
            assert approx_str(q, digits) == approx_str(CycloElement.from_rational(24, q), digits)
            assert approx_str(q, digits) == mp_str(q, digits)
        assert approx_str(Fraction(0), 12) == "0.0" and approx_str(Fraction(1, 2), 39) == "0.5"

    @pytest.mark.parametrize("power", [-6, -5, -4, -3, 10, 11, 12, 13])
    def test_fixed_point_thresholds(self, power):
        # each side of 10**power, and a value that rounds up to it at 12 digits
        scale = Fraction(10) ** power
        cosine = zeta(7) + zeta(7, 6)  # 1.2469...
        for value in (scale, cosine * scale, scale * Fraction(999999999999996, 10**15)):
            for signed in (value, -value):
                assert approx_str(signed, 12) == mp_str(signed, 12)

    def test_threshold_formats(self):
        # at 12 digits a leading digit at 10**-5 or 10**12 prints with an exponent, at 10**-4 or 10**11 without
        expected = {-5: "1.0e-5", -4: "0.0001", 11: "100000000000.0", 12: "1.0e+12"}
        for power, text in expected.items():
            assert approx_str(Fraction(10) ** power, 12) == text
            assert approx_str(-Fraction(10) ** power, 12) == "-" + text
        assert approx_str(Fraction(999999999999996, 10**15), 12) == "1.0"

    def test_non_real_value_with_rational_real_part(self):
        # the enclosure of Re(i) = 0 and Re(zeta_6) = 1/2 always straddles a rounding boundary;
        # the loop settles on the exact real part
        assert approx_str(zeta(4), 12) == "0.0"
        assert approx_str(zeta(6), 39) == "0.5"

    def test_decimal_division_matches_integer_rounding(self):
        rng = random.Random(18)
        cases = list(_decimal_cases(rng, 100_000))
        wrong = [(n, d, k) for n, d, k in cases if _decimal(n, d, k) != _integer_decimal(n, d, k)]
        assert not wrong, wrong[:5]

    def test_decimal_sets_its_own_exponent_range(self, monkeypatch):
        # A decimal Context takes what it is not given from decimal.DefaultContext, whose range of
        # 10**+-999999 is too wide for a test to pass: CPython 3.11 takes about 20 s on one core of a
        # 2-core x86 host to convert a million-digit integer.  Shrunk to 10**+-20, a default range
        # would overflow, or round away digits, at 10**+-30.
        monkeypatch.setattr(decimal.DefaultContext, "Emax", 20)
        monkeypatch.setattr(decimal.DefaultContext, "Emin", -20)
        for num, den in ((7 * 10**30, 3), (-7, 3 * 10**30), (10**41 - 5, 10**11)):
            for digits in (1, 12, 40):
                assert _decimal(num, den, digits) == _integer_decimal(num, den, digits)

    @pytest.mark.parametrize("order", [3, 4, 5, 7, 12, 24, 96, 124, 300, 1204])
    @pytest.mark.parametrize("bits", [64, 172, 344])
    def test_table_entries_within_one_unit(self, order, bits):
        table = _cos_table(order, bits)
        assert len(table) == euler_phi(order)
        with mpmath.workprec(600):
            for k, t in enumerate(table):
                assert abs(t - mpmath.ldexp(mpmath.cos(2 * mpmath.pi * k / order), bits)) <= 1, k


class TestDomainDiscipline:
    def test_mixed_orders_raise(self):
        with pytest.raises(OrderMismatchError):
            zeta(6) + zeta(7)
        with pytest.raises(OrderMismatchError):
            zeta(6) * zeta(7)
        with pytest.raises(OrderMismatchError):
            zeta(6) == zeta(7)

    @pytest.mark.parametrize(
        "clash",
        [
            lambda: zeta(6) - zeta(7),
            lambda: zeta(7).__rsub__(zeta(6)),
            lambda: Point(zeta(6), zeta(7)),
            lambda: NonVerticalLine(zeta(6), zeta(7)),
            lambda: Direction(zeta(6), zeta(7)),
        ],
        ids=["sub", "rsub", "Point", "NonVerticalLine", "Direction"],
    )
    def test_one_lifting_rule_refuses_mixed_orders(self, clash):
        with pytest.raises(OrderMismatchError):
            clash()

    def test_float_is_no_exact_scalar(self):
        with pytest.raises(TypeError):
            zeta(6) - 0.5

    def test_rational_constants_cross_orders(self):
        assert CycloElement.from_rational(6, 5) == CycloElement.from_rational(7, 5)
        assert CycloElement.from_rational(6, Fraction(1, 2)) == Fraction(1, 2)

    def test_scalar_mixing(self):
        a = zeta(5) * Fraction(2, 3) + 1
        assert a - 1 == Fraction(2, 3) * zeta(5)

    def test_hash_agrees_with_fraction_for_constants(self):
        assert hash(CycloElement.from_rational(12, Fraction(3, 4))) == hash(Fraction(3, 4))
        assert len({Fraction(3, 4), CycloElement.from_rational(12, Fraction(3, 4))}) == 1


class TestCoeffs:
    def test_length_is_phi(self):
        for n in (1, 2, 6, 7, 12, 28):
            assert len(coefficients(CycloElement.from_rational(n, 0))) == euler_phi(n)

    def test_reduction_canonicalizes(self):
        # z^7 in Q(zeta_7) is 1
        assert CycloElement(7, [0] * 7 + [1]) == 1

    def test_structural_equality(self):
        a = CycloElement(5, [Fraction(1, 2), Fraction(2, 4)])
        b = CycloElement(5, [Fraction(2, 4), Fraction(1, 2)])
        assert a == b and coefficients(a) == coefficients(b)


class TestRationalGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", Fraction(3, 4)),
            ("-3/4", Fraction(-3, 4)),
            ("7", Fraction(7)),
            ("-7", Fraction(-7)),
            ("0/5", Fraction(0)),
            ("  6/4 ", Fraction(3, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "3/0", "1/-2", "+3", "", "a/b", "3 / 4", "--2"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_round_trip(self):
        for q in (Fraction(3, 4), Fraction(-5), Fraction(0), Fraction(22, 7)):
            assert parse_rational(format_rational(q)) == q
        assert format_rational(Fraction(-5)) == "-5"
        assert format_rational(Fraction(3, 4)) == "3/4"
