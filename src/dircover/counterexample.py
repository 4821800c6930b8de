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
from typing import Sequence

from .errors import ParseError
from .field import CycloElement, _from_ratios, approx_str, euler_phi
from .geometry import (
    NonVerticalLine, _format_ratio, _Frozen, _parse_ratio, concurrent_family, dual_point_to_line, format_rational
)
from .polygon import (
    PolygonConfig, RationalRotation, choose_rotation, field_order, instantiate_polygon, polygon_spectrum_enumerated
)
from .spectrum import stab_spectrum


class VerificationReport(_Frozen):
    """What :func:`verify` decides about one line family."""

    __slots__ = ("parallel_witness", "nonconcurrent", "stab_counts", "forbidden")

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
            "concurrency_witness": None,  # kept so that bundle documents keep their shape
            "stab_counts": sorted(self.stab_counts),
            "forbidden": sorted(self.forbidden),
            "forbidden_hit": sorted(self.forbidden_hit),
            "verdict": self.verdict,
        }


class CounterexampleBundle(_Frozen):
    """An n-line family, the polygon it is dual to, its certificate and decimal renderings.

    :func:`read_bundle` gives no certificate (None) and no renderings (()).
    """

    __slots__ = ("config", "rotation", "lines", "certificate", "approx_lines")

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def field_order(self) -> int:
        return field_order(self.config.vertices)


_MAX_N = 300
"""The most lines :func:`family_config` builds and :func:`read_bundle` loads.

The cost is set by phi(lcm(4, n)), not by n alone, so odd n is the slow
end.  Pinned to one CPU of a 2-core host (CPython 3.11), through the CLI,
three runs each: ``counterexample --n 300`` takes 0.60-0.62 s and
``verify`` of its bundle 0.78-0.87 s.  The slowest n up to the cap is odd:
n = 299 (in Q(zeta_1196)), where ``counterexample`` takes 12.4-13.9 s and
``verify`` 12.1-12.8 s.
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

    The certificate's stab counts are checked against the polygon's spectrum
    by :func:`polygon.polygon_spectrum_enumerated`, residue arithmetic in O(n)
    that shares no code with the exact classing; a disagreement raises
    ArithmeticError, so a classing bug fails loudly, not as a wrong certificate.
    """
    config = family_config(n, variant)
    rotation = choose_rotation(config)
    lines = tuple(dual_point_to_line(p) for p in instantiate_polygon(config, rotation))
    cert, residue = verify(lines), polygon_spectrum_enumerated(config)
    if cert.stab_counts != residue:
        raise ArithmeticError(f"stab counts {sorted(cert.stab_counts)} disagree with the residue spectrum {sorted(residue)}")
    return CounterexampleBundle(config, rotation, lines, cert, approximate_lines(lines))


def verify(lines: Sequence[NonVerticalLine]) -> VerificationReport:
    """Re-derive the certificate of a line family from its exact coefficients.

    The forbidden counts are n-1 and n-2 for the n lines given.  It trusts,
    and does not re-check, what its two producers :func:`read_bundle` and
    :func:`construct` guarantee: real coefficients.  Rational and cyclotomic
    coefficients may mix; every predicate stays exact.  A concurrent family
    fails with no meet point: the point needs field division.
    """
    n = len(lines)

    # Lexicographically first parallel pair: least first index of a repeated slope, its 2nd index.
    first: dict = {}
    parallel_witness = None
    for j, line in enumerate(lines):
        i = first.setdefault(line.a, j)
        if i != j and (parallel_witness is None or i < parallel_witness[0]):
            parallel_witness = (i, j)

    return VerificationReport(
        parallel_witness=parallel_witness,
        nonconcurrent=not concurrent_family(lines),
        stab_counts=stab_spectrum(lines),
        forbidden=frozenset({n - 1, n - 2}),
    )


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
                "a": [_format_ratio(v, line.a._den) for v in line.a._num],
                "b": [_format_ratio(v, line.b._den) for v in line.b._num],
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
    try:
        with open(path, "r", encoding="utf-8") as fp:
            try:  # a JSON integer literal passes parse_rational's digit-limit check before int() runs
                doc = json.load(fp, parse_int=lambda literal: _parse_ratio(literal)[0])
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ParseError(f"{path}: invalid JSON ({exc})") from None
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    if type(doc) is not dict:
        raise ParseError(f"{path}: malformed bundle document (a bundle is a JSON object)")

    def ratio(token, where: str) -> tuple[int, int]:
        if token == "0":  # most coefficients
            return 0, 1
        try:
            return _parse_ratio(str(token))
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
        rotation = RationalRotation(*(Fraction(*ratio(doc["rotation"][k], f"rotation {k}")) for k in "cs"))
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
                vectors.append([ratio(t, where) for t in raw])
        scalars = [_from_ratios(order, v) for v in vectors]
        for k, s in enumerate(scalars):
            if s.conjugate() != s:
                raise ParseError(f"{path}: line {k // 2} {'ab'[k % 2]}: coefficient is not real")
        lines = tuple(NonVerticalLine(a, b) for a, b in zip(scalars[::2], scalars[1::2]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed bundle document ({exc})") from None
    return CounterexampleBundle(config, rotation, lines, None, ())
