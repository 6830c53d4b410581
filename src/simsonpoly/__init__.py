"""Simson polygons: pedal collinearity, the equidistant family, and the
optimal piecewise-linear approximation of the parabola.

Every public name is imported from its module on first access (PEP 562),
through the one table below.  Importing the package itself loads no
layer, so a CLI request pays only for the modules its subcommand runs:
``limit`` never loads the Simson search or the equidistant verifiers,
and ``approx`` never loads them nor the scene format.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys((
        "Circle", "DEFAULT_TOLERANCE", "GeometryError", "Line", "Parabola",
        "Point", "Tolerance", "circumcircle", "collinear",
        "foot_of_perpendicular", "line_intersection", "line_through",
        "reflect_line", "reflect_point"), "kernel"),
    **dict.fromkeys(("CheckResult", "VerificationReport"), "report"),
    **dict.fromkeys((
        "CompleteQuadrilateral", "Polygon", "SimsonCertificate",
        "construct_simson_polygon", "find_simson_point", "is_convex",
        "is_simson_point", "miquel_point", "pedal_points"), "simson"),
    **dict.fromkeys((
        "EquidistantConfig", "EquidistantPolygon", "SimsonPolygonFrame",
        "associated_parabola", "equidistant_from_frame",
        "frame_from_certificate", "make_equidistant", "midpoint_parabola",
        "verify_archimedes", "verify_isogonal", "verify_lambert",
        "verify_optical", "verify_parallel_chords"), "equidistant"),
    **dict.fromkeys((
        "ApproxProblem", "ApproxResult", "optimal_knots", "quadrature_l1",
        "quadrature_l2", "segment_l1_error", "segment_l2_error",
        "total_error_objective"), "approx"),
    **dict.fromkeys(("SceneDocument", "SceneFormatError"), "scene"),
    **dict.fromkeys((
        "chain_for_window", "convergence_table", "hausdorff_chain_parabola",
        "observed_orders", "point_to_parabola_distance"), "limits"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # A submodule name is not in the table: the AttributeError lets
    # ``from simsonpoly import approx`` fall back to importing it.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + _MODULE_OF[name], __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
