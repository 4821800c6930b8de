"""Regular n-gon configurations: residue combinatorics and exact instantiation.

Index the vertices of a regular n-gon by Z_n.  The chord through vertices
i and j has direction angle pi*(i+j)/n + pi/2 modulo pi, so chords are
parallel exactly when i+j agrees mod n: the residue d = i+j mod n is the
chord's direction class.  All direction-cover counts of the polygon (with
or without the circle's center) reduce to counting solutions of congruences
in Z_n; the geometric realization with exact cyclotomic coordinates is kept
for cross-validation and for building dual line families.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from .field import _from_powers
from .geometry import Point, _Frozen, _set

CASE2_NOTE = (
    "discrepancy note: for n = 2k+1 vertices enumeration gives the spectrum "
    "{k+1, 2k+1}; the closed form {k, 2k+1} undercounts by one "
    "(at n = 7 every chord direction carries exactly 4 cover lines, not 3)."
)


class PolygonConfig(_Frozen):
    """A regular polygon with ``vertices`` >= 3, optionally plus the circle center; immutable."""

    __slots__ = ("vertices", "with_center")

    def __init__(self, vertices: int, with_center: bool = False):
        if vertices < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {vertices}")
        if field_order(vertices) > sys.maxsize:  # past it, range() and list sizes overflow
            raise ValueError(f"{vertices} vertices is too many: the field order exceeds {sys.maxsize}")
        _set(self, "vertices", vertices)
        _set(self, "with_center", with_center)

    @property
    def total(self) -> int:
        return self.vertices + (1 if self.with_center else 0)


def polygon_direction_count(cfg: PolygonConfig, d: int) -> int:
    """Cover-line count of the configuration in chord-direction class d.

    Pure residue arithmetic.  With s = #{i : 2i = d (mod n)}: the class
    contains (n - s)/2 chords of two vertices each, and each of the s
    vertices with 2i = d sits alone on its line (three concyclic points are
    never collinear).  A center point rides along on the class's diameter
    when one exists -- n even and d = n/2 (mod 2) -- and otherwise needs one
    extra line that contains no vertex.
    """
    n = cfg.vertices
    if not 0 <= d < n:
        raise ValueError(f"invalid residue {d} for n={n}")
    s = 1 if n % 2 else (2 if d % 2 == 0 else 0)
    count = (n - s) // 2 + s
    if cfg.with_center:
        diameter_in_class = n % 2 == 0 and (d - n // 2) % 2 == 0
        if not diameter_in_class:
            count += 1
    return count


def polygon_spectrum_enumerated(cfg: PolygonConfig) -> frozenset[int]:
    """Spectrum of the configuration by enumerating all critical direction classes.

    Chord classes are the residues mod n.  When the center is present and n
    is odd, the center-vertex directions form extra classes parallel to no
    chord (their angles are integer multiples of pi/n, chords sit at
    half-integer multiples); each covers the center and one vertex together,
    so it contributes the count n.  The generic count, the total number of
    points, is always achieved.
    """
    n = cfg.vertices
    counts = {polygon_direction_count(cfg, d) for d in range(n)}
    if cfg.with_center and n % 2 == 1:
        counts.add(n)
    counts.add(cfg.total)
    return frozenset(counts)


def polygon_spectrum_closed_form(cfg: PolygonConfig) -> frozenset[int]:
    """Closed-form spectrum for the four classically tabulated cases.

    Plain n = 2k: {k, k+1, 2k}.  Plain n = 2k+1: {k+1, 2k+1} -- note the
    corrected k+1; see CASE2_NOTE.  With center, n = 4k+2:
    {2k+1, 2k+3, 4k+3}; with center, n = 4k: {2k+1, 4k+1}.  An odd vertex
    count with center has no closed form here (use the enumeration).
    """
    n = cfg.vertices
    if not cfg.with_center:
        k = n // 2
        if n % 2 == 0:
            return frozenset({k, k + 1, 2 * k})
        return frozenset({k + 1, 2 * k + 1})
    if n % 4 == 2:
        k = (n - 2) // 4
        return frozenset({2 * k + 1, 2 * k + 3, 4 * k + 3})
    if n % 4 == 0:
        k = n // 4
        return frozenset({2 * k + 1, 4 * k + 1})
    raise ValueError("no closed form for an odd vertex count with center")


class RationalRotation(_Frozen):
    """A rotation by a rational point (c, s) on the unit circle; immutable."""

    __slots__ = ("c", "s")

    def __init__(self, c, s):
        c, s = Fraction(c), Fraction(s)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is not on the unit circle")
        _set(self, "c", c)
        _set(self, "s", s)

    @classmethod
    def from_parameter(cls, t) -> "RationalRotation":
        """Tangent half-angle parametrization ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
        t = Fraction(t)
        den = 1 + t * t
        return cls((1 - t * t) / den, 2 * t / den)


def field_order(n: int) -> int:
    """Order m of the cyclotomic field used for exact n-gon coordinates."""
    return lcm(4, n)


def instantiate_polygon(cfg: PolygonConfig, rotation: RationalRotation) -> list[Point]:
    """Exact vertices of the rotated unit-circle n-gon (center last, if present).

    Works in Q(zeta) with zeta = zeta_m and m = lcm(4, n), so that the vertex
    w * zeta_n^k, w = c + is, is w * zeta^a with a = k*m/n, and zeta^q = i
    with q = m/4.  With C_e = (zeta^e + zeta^-e)/2 = cos(2*pi*e/m), its
    coordinates are x = c*C_a - s*C_(a-q) and y = s*C_a + c*C_(a-q): each is
    four powers of zeta over 2*lcm(den c, den s), reduced once.
    """
    n = cfg.vertices
    m = field_order(n)
    q = m // 4
    den = lcm(rotation.c.denominator, rotation.s.denominator)
    cn, sn = int(rotation.c * den), int(rotation.s * den)  # den clears both denominators
    pts = []
    for a in range(0, m, m // n):
        x = _from_powers(m, ((a, cn), (-a, cn), (a - q, -sn), (q - a, -sn)), 2 * den)
        y = _from_powers(m, ((a, sn), (-a, sn), (a - q, cn), (q - a, cn)), 2 * den)
        pts.append(Point(x, y))
    if cfg.with_center:
        origin = _from_powers(m, ())
        pts.append(Point(origin, origin))
    return pts


def choose_rotation(cfg: PolygonConfig) -> RationalRotation:
    """The rotation giving pairwise distinct x: (0, 1) for odd n without center, else (3/5, 4/5).

    With c + is = e^(i*theta), vertices j != k share an x only when
    e^(2i*theta) = zeta_n^-(j+k), and vertex k meets the center's x = 0 only
    when e^(i*theta) * zeta_n^k = +-i.  Either way c + is is a root of unity
    in Q(i), so +-1 or +-i, and (3/5, 4/5) always works.  For (0, 1), -1 is a
    power of zeta_n only for even n, and vertex 0 sits at x = 0.  The
    identity never works (vertices k and n - k share an x), so this is the
    first working rotation of the half-angle parameters t = 0, 1, 1/2.
    """
    odd_plain = cfg.vertices % 2 == 1 and not cfg.with_center
    return RationalRotation.from_parameter(1 if odd_plain else Fraction(1, 2))
