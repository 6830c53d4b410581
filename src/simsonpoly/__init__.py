"""Simson polygons: pedal collinearity, the equidistant family, and the
optimal piecewise-linear approximation of the parabola.

The limit-study names come from ``limits`` and are imported on first
access (PEP 562): importing ``limits`` costs a few milliseconds, which
construct, verify and approx never need to pay.
"""

from .kernel import (
    DEFAULT_TOLERANCE,
    Circle,
    GeometryError,
    Line,
    Point,
    Tolerance,
    circumcircle,
    collinear,
    foot_of_perpendicular,
    line_intersection,
    line_through,
    reflect_line,
    reflect_point,
)
from .report import CheckResult, VerificationReport
from .simson import (
    CompleteQuadrilateral,
    Polygon,
    SimsonCertificate,
    construct_simson_polygon,
    find_simson_point,
    is_convex,
    is_simson_point,
    miquel_point,
    pedal_points,
)
from .equidistant import (
    EquidistantConfig,
    EquidistantPolygon,
    Parabola,
    SimsonPolygonFrame,
    associated_parabola,
    equidistant_from_frame,
    frame_from_certificate,
    make_equidistant,
    midpoint_parabola,
    verify_archimedes,
    verify_isogonal,
    verify_lambert,
    verify_optical,
    verify_parallel_chords,
)
from .approx import (
    ApproxProblem,
    ApproxResult,
    optimal_knots,
    quadrature_l1,
    quadrature_l2,
    segment_l1_error,
    segment_l2_error,
    total_error_objective,
)
from .scene import SceneDocument, SceneFormatError

__version__ = "0.1.0"

_LIMITS_NAMES = frozenset({
    "chain_for_window",
    "convergence_table",
    "hausdorff_chain_parabola",
    "observed_orders",
    "point_to_parabola_distance",
})


def __getattr__(name: str):
    if name in _LIMITS_NAMES:
        from . import limits
        return getattr(limits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LIMITS_NAMES)

__all__ = [
    "ApproxProblem",
    "ApproxResult",
    "CheckResult",
    "Circle",
    "CompleteQuadrilateral",
    "DEFAULT_TOLERANCE",
    "EquidistantConfig",
    "EquidistantPolygon",
    "GeometryError",
    "Line",
    "Parabola",
    "Point",
    "Polygon",
    "SceneDocument",
    "SceneFormatError",
    "SimsonCertificate",
    "SimsonPolygonFrame",
    "Tolerance",
    "VerificationReport",
    "associated_parabola",
    "chain_for_window",
    "circumcircle",
    "collinear",
    "construct_simson_polygon",
    "convergence_table",
    "equidistant_from_frame",
    "find_simson_point",
    "foot_of_perpendicular",
    "frame_from_certificate",
    "hausdorff_chain_parabola",
    "is_convex",
    "is_simson_point",
    "line_intersection",
    "line_through",
    "make_equidistant",
    "midpoint_parabola",
    "miquel_point",
    "observed_orders",
    "optimal_knots",
    "pedal_points",
    "point_to_parabola_distance",
    "quadrature_l1",
    "quadrature_l2",
    "reflect_line",
    "reflect_point",
    "segment_l1_error",
    "segment_l2_error",
    "total_error_objective",
    "verify_archimedes",
    "verify_isogonal",
    "verify_lambert",
    "verify_optical",
    "verify_parallel_chords",
]
