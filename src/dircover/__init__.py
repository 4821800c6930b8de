"""Exact direction-cover spectra of planar point sets, point-line duality,
and certified families of lines with prescribed vertical stab counts."""

from .errors import DegenerateInputError, DirCoverError, OrderMismatchError, ParseError
from .field import (
    CycloElement,
    Rational,
    cyclotomic_poly,
    euler_phi,
    format_rational,
    parse_rational,
    zeta,
)
from .geometry import (
    AffineMap,
    Direction,
    NonVerticalLine,
    Point,
    affine_apply,
    collinear,
    concurrent_family,
    cross,
    dual_line_to_point,
    dual_point_to_line,
    incident,
    parallel,
)
from .spectrum import (
    LinePartition,
    SpectrumReport,
    generic_direction,
    lines_in_direction,
    pair_directions,
    spectrum,
    stab_spectrum,
    vertical_class_count,
)
from .polygon import (
    CASE2_NOTE,
    PolygonConfig,
    RationalRotation,
    chord_class,
    choose_rotation,
    field_order,
    instantiate_polygon,
    polygon_direction_count,
    polygon_spectrum_closed_form,
    polygon_spectrum_enumerated,
)
from .counterexample import (
    CounterexampleBundle,
    FloatCrosscheck,
    VerificationReport,
    construct,
    float_crosscheck,
    read_bundle,
    verify,
    write_bundle,
)
from .oracle import oracle_spectrum
from .randgen import RandomConfig
from .checks import affine_check, duality_check, oracle_check, pinchasi_check

__version__ = "0.1.0"
