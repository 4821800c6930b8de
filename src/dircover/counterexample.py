"""Line families whose vertical stab spectrum avoids {n-1, n-2}, with certificates.

For n >= 7, dualizing the vertices of a regular n-gon (rotated so that no
two vertices share an x-coordinate) yields n pairwise non-parallel,
non-concurrent, non-vertical lines; every vertical line meets their union
in a number of points drawn from the polygon's cover spectrum, which stays
clear of n-1 and n-2.  Verification re-derives every claim from the exact
coefficients; decimal renderings are attached for humans only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParseError
from .field import CycloElement, _real_bounds, approx_str, euler_phi, format_rational, parse_rational
from .geometry import NonVerticalLine, concurrent_family, dual_point_to_line
from .polygon import (
    PolygonConfig,
    RationalRotation,
    choose_rotation,
    field_order,
    instantiate_polygon,
)
from .spectrum import stab_spectrum


class VerificationReport:
    """What :func:`verify` decides about one line family; equal to another with the same fields."""

    def __init__(
        self,
        parallel_witness: Optional[tuple[int, int]],
        nonconcurrent: bool,
        concurrency_witness: Optional[tuple[str, str]],
        stab_counts: frozenset[int],
        forbidden: frozenset[int],
    ):
        self.parallel_witness = parallel_witness
        self.nonconcurrent = nonconcurrent
        self.concurrency_witness = concurrency_witness
        self.stab_counts = stab_counts
        self.forbidden = forbidden

    def __eq__(self, other):
        if other.__class__ is not VerificationReport:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def pairwise_nonparallel(self) -> bool:
        return self.parallel_witness is None

    @property
    def forbidden_hit(self) -> frozenset[int]:
        return self.stab_counts & self.forbidden

    @property
    def passed(self) -> bool:
        return self.pairwise_nonparallel and self.nonconcurrent and not self.forbidden_hit

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "pairwise_nonparallel": self.pairwise_nonparallel,
            "parallel_witness": list(self.parallel_witness) if self.parallel_witness else None,
            "nonconcurrent": self.nonconcurrent,
            "concurrency_witness": list(self.concurrency_witness)
            if self.concurrency_witness
            else None,
            "stab_counts": sorted(self.stab_counts),
            "forbidden": sorted(self.forbidden),
            "forbidden_hit": sorted(self.forbidden_hit),
            "verdict": self.verdict,
        }


class CounterexampleBundle:
    """An n-line family with the polygon it is dual to; :func:`construct` sets ``certificate`` once built."""

    def __init__(
        self,
        n: int,
        config: PolygonConfig,
        rotation: RationalRotation,
        lines: tuple[NonVerticalLine, ...],
        field_order: int,
        certificate: Optional[VerificationReport] = None,
        approx_lines: tuple[tuple[str, str], ...] = (),
    ):
        self.n = n
        self.config = config
        self.rotation = rotation
        self.lines = lines
        self.field_order = field_order
        self.certificate = certificate
        self.approx_lines = approx_lines


_MAX_N = 300
"""The most lines :func:`family_config` builds and :func:`read_bundle` loads.

On a 2-core host n = 300 builds and certifies in 17 s, n = 301 (in
Q(zeta_1204)) in 114 s, and an n = 301 bundle verifies in 70 s.
"""


def family_config(n: int, variant: str = "plain") -> PolygonConfig:
    """The polygon configuration dual to the n-line family of ``variant``; no field work."""
    if n < 7:
        raise ValueError(f"construction needs n >= 7, got {n}")
    if n > _MAX_N:
        raise ValueError(f"construction supports n <= {_MAX_N}, got {n}")
    if variant == "plain":
        return PolygonConfig(n)
    if variant == "center":
        if n % 2 == 0:
            raise ValueError("center variant needs odd n (vertex count n-1 must be even)")
        return PolygonConfig(n - 1, with_center=True)
    raise ValueError(f"unknown variant {variant!r}")


def construct(n: int, variant: str = "plain") -> CounterexampleBundle:
    """Build and certify the n-line family dual to a polygon configuration.

    The default uses the plain regular n-gon, which works for every n >= 7:
    odd n = 2k+1 has spectrum {k+1, n} and even n = 2k has {k, k+1, n}, with
    k+1 <= n-3 in both cases.  ``variant="center"`` instead takes a polygon
    of n-1 vertices plus its center (n odd only); its certificate is honest
    and fails for n = 7, where the hexagon-plus-center spectrum {3, 5, 7}
    contains n-2.
    """
    config = family_config(n, variant)
    rotation = choose_rotation(config)
    points = instantiate_polygon(config, rotation)
    lines = tuple(dual_point_to_line(p) for p in points)
    bundle = CounterexampleBundle(
        n=n,
        config=config,
        rotation=rotation,
        lines=lines,
        field_order=field_order(config.vertices),
        approx_lines=approximate_lines(lines),
    )
    bundle.certificate = verify(bundle)
    return bundle


def _meet_point(l1: NonVerticalLine, l2: NonVerticalLine) -> Optional[tuple[str, str]]:
    # Needs field division, so only the rational domain yields coordinates.
    if not (isinstance(l1.a, Fraction) and isinstance(l2.a, Fraction)):
        return None
    x = (l1.b - l2.b) / (l2.a - l1.a)
    y = -(l1.a * x + l1.b)
    return (format_rational(x), format_rational(y))


def verify(bundle: CounterexampleBundle) -> VerificationReport:
    """Re-derive the certificate from the bundle's exact line coefficients.

    The forbidden counts are n-1 and n-2 for the n lines given.  It trusts,
    and does not re-check, what its two producers :func:`read_bundle` and
    :func:`construct` guarantee: ``bundle.n`` lines with real coefficients.
    Rational and cyclotomic coefficients may mix; every predicate stays exact.
    """
    lines = bundle.lines
    n = len(lines)
    forbidden = frozenset({n - 1, n - 2})

    # Lexicographically first parallel pair: least first index of a repeated slope, its 2nd index.
    first: dict = {}
    parallel_witness = None
    for j, line in enumerate(lines):
        i = first.setdefault(line.a, j)
        if i != j and (parallel_witness is None or i < parallel_witness[0]):
            parallel_witness = (i, j)

    is_concurrent = concurrent_family(lines)
    witness = _meet_point(lines[0], lines[1]) if is_concurrent else None

    return VerificationReport(
        parallel_witness=parallel_witness,
        nonconcurrent=not is_concurrent,
        concurrency_witness=witness,
        stab_counts=stab_spectrum(lines),
        forbidden=forbidden,
    )


class FloatCrosscheck:
    """The float stab counts of :func:`float_crosscheck` and the abscissas it could not decide."""

    def __init__(self, counts: frozenset[int], inconclusive: tuple[float, ...]):
        self.counts = counts
        self.inconclusive = inconclusive

    @property
    def conclusive(self) -> bool:
        return not self.inconclusive


_EPSILON = 1e-6  # float_crosscheck's cluster tolerance


def float_crosscheck(bundle: CounterexampleBundle) -> FloatCrosscheck:
    """Approximate stab spectrum from floating intersections, for cross-checks.

    For each pairwise intersection abscissa A it clusters the n ordinate
    values { -(a_i*A + b_i) } at tolerance epsilon = 1e-6 and records the
    cluster count; any two values with a gap in [epsilon, 10*epsilon) make
    that abscissa inconclusive (reported, not counted, never an error).  The
    generic count n is always included.  The values are sorted, so the
    nearest value at least epsilon above each one is found by one forward
    pass (:func:`_has_ambiguous_gap`).
    """

    def real(x) -> float:  # one integer dot product, then a correctly rounded division
        s, _, d = _real_bounds(x, 64)
        return s / d

    coeffs = [(real(line.a), real(line.b)) for line in bundle.lines]
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
            if _has_ambiguous_gap(ys, _EPSILON):
                inconclusive.append(abscissa)
                continue
            clusters = 1 + sum(1 for u in range(1, len(ys)) if ys[u] - ys[u - 1] >= _EPSILON)
            counts.add(clusters)
    return FloatCrosscheck(frozenset(counts), tuple(inconclusive))


def _has_ambiguous_gap(ys: Sequence[float], epsilon: float) -> bool:
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


def approximate_lines(lines: Sequence[NonVerticalLine]) -> tuple[tuple[str, str], ...]:
    """12-digit decimal renderings of (a, b) per line; display only, never verified against."""
    return tuple(tuple(approx_str(s, 12) for s in (line.a, line.b)) for line in lines)


def bundle_to_json(bundle: CounterexampleBundle) -> dict:
    """Serializable document: exact coefficient vectors plus the certificate."""
    for line in bundle.lines:
        if not isinstance(line.a, CycloElement):
            raise ValueError("only cyclotomic-coefficient bundles are serializable")
    return {
        "n": bundle.n,
        "config": {
            "vertices": bundle.config.vertices,
            "with_center": bundle.config.with_center,
        },
        "rotation": {
            "c": format_rational(bundle.rotation.c),
            "s": format_rational(bundle.rotation.s),
        },
        "field_order": bundle.field_order,
        "lines": [
            {
                "a": [format_rational(c) for c in line.a.coeffs],
                "b": [format_rational(c) for c in line.b.coeffs],
            }
            for line in bundle.lines
        ],
        "approx_lines": [{"a": a, "b": b} for a, b in bundle.approx_lines],
        "certificate": bundle.certificate.to_json() if bundle.certificate else None,
    }


def write_bundle(bundle: CounterexampleBundle, path) -> None:
    doc = bundle_to_json(bundle)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def read_bundle(path) -> CounterexampleBundle:
    """Load what :func:`verify` checks; the stored certificate and decimals are never read.

    The header, n up to :data:`_MAX_N` included, and the length of every
    coefficient vector are checked before any field arithmetic, so a crafted
    or oversized document is rejected in linear time.
    """
    with open(path, "r", encoding="utf-8") as fp:
        try:  # a JSON integer literal passes parse_rational's digit-limit check before int() runs
            doc = json.load(fp, parse_int=lambda literal: parse_rational(literal).numerator)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    def rational(token, where: str) -> Fraction:
        try:
            return parse_rational(str(token))
        except ParseError as exc:
            raise ParseError(f"{path}: {where}: {exc}") from None

    try:
        n, order = doc["n"], doc["field_order"]
        vertices, center = doc["config"]["vertices"], doc["config"]["with_center"]
        if {type(n), type(order), type(vertices)} != {int} or type(center) is not bool:  # JSON true is not 1
            raise ParseError(f"{path}: n, vertices and field_order must be JSON integers, with_center a boolean")
        if n > _MAX_N:
            raise ParseError(f"{path}: verify supports n <= {_MAX_N}, got {n}")
        config = PolygonConfig(vertices, center)
        rotation = RationalRotation(*(rational(doc["rotation"][k], f"rotation {k}") for k in "cs"))
        records = [(rec["a"], rec["b"]) for rec in doc["lines"]]
        if not n == config.total == len(records) or order != field_order(config.vertices):
            raise ParseError(
                f"{path}: inconsistent header: n={n}, {len(records)} lines, {config.total} points"
                f" in the configuration, field_order {order} for {config.vertices} vertices"
            )
        phi = euler_phi(order)
        vectors = []
        for i, rec in enumerate(records):
            for name, raw in zip("ab", rec):
                where = f"line {i} {name}"
                if not isinstance(raw, list) or len(raw) != phi:
                    raise ParseError(f"{path}: {where}: expected {phi} coefficients")
                vectors.append([rational(t, where) for t in raw])
        scalars = [CycloElement(order, v) for v in vectors]
        for k, s in enumerate(scalars):
            if s.conjugate() != s:
                raise ParseError(f"{path}: line {k // 2} {'ab'[k % 2]}: coefficient is not real")
        lines = tuple(NonVerticalLine(a, b) for a, b in zip(scalars[::2], scalars[1::2]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed bundle document ({exc})") from None
    return CounterexampleBundle(n=n, config=config, rotation=rotation, lines=lines, field_order=order)
