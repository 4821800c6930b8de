"""Reference code that only the tests use.

``dircover`` keeps no test-only API: every definition in the package is
referred to by the package itself (``tests/test_traced_layers.py`` checks
this).  What the tests still need as an independent reference lives here.
"""

from fractions import Fraction
from typing import Sequence

from dircover.field import CycloElement, _from_powers, _real_bounds
from dircover.geometry import NonVerticalLine

EPSILON = 1e-6  # float_crosscheck's cluster tolerance


def zeta(order: int, power: int = 1) -> CycloElement:
    """zeta_n^k as a reduced element of Q(zeta_n)."""
    return _from_powers(order, [(power, 1)])


def coefficients(value: CycloElement) -> tuple[Fraction, ...]:
    """The phi(n) rational coefficients of an element on the basis 1, zeta, ..., zeta^(phi(n)-1)."""
    return tuple(Fraction(v, value._den) for v in value._num)


def float_crosscheck(lines: Sequence[NonVerticalLine]) -> tuple[frozenset, tuple]:
    """Approximate stab spectrum of a line family from floating intersections, for cross-checks.

    Returns the float stab counts and the abscissas it could not decide.  For
    each pairwise intersection abscissa A it clusters the n ordinate values
    { -(a_i*A + b_i) } at tolerance epsilon = 1e-6 and records the cluster
    count; any two values with a gap in [epsilon, 10*epsilon) make that
    abscissa inconclusive (reported, not counted, never an error).  The
    generic count n is always included.  The values are sorted, so the
    nearest value at least epsilon above each one is found by one forward
    pass (:func:`has_ambiguous_gap`).
    """

    def real(x) -> float:  # one integer dot product, then a correctly rounded division
        s, _, d = _real_bounds(x, 64)
        return s / d

    coeffs = [(real(line.a), real(line.b)) for line in lines]
    counts = {len(coeffs)}
    inconclusive: list[float] = []
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            ai, bi = coeffs[i]
            aj, bj = coeffs[j]
            if ai == aj:
                continue
            abscissa = (bi - bj) / (aj - ai)
            ys = sorted(-(a * abscissa + b) for a, b in coeffs)
            if has_ambiguous_gap(ys, EPSILON):
                inconclusive.append(abscissa)
                continue
            clusters = 1 + sum(1 for u in range(1, len(ys)) if ys[u] - ys[u - 1] >= EPSILON)
            counts.add(clusters)
    return frozenset(counts), tuple(inconclusive)


def has_ambiguous_gap(ys: Sequence[float], epsilon: float) -> bool:
    """Whether two of the sorted values differ by a gap in [epsilon, 10*epsilon).

    Float subtraction is monotone, so for each u the least gap of at least
    epsilon is to the first such v, and that v never moves back as u grows.
    """
    v = 0
    for u, y in enumerate(ys):
        v = max(v, u + 1)
        while v < len(ys) and ys[v] - y < epsilon:
            v += 1
        if v == len(ys):
            return False
        if ys[v] - y < 10 * epsilon:
            return True
    return False
