import ast
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomgen import angle_between_lines, xy
from simsonpoly.kernel import (
    Circle,
    CoincidentPoints,
    CollinearInput,
    InvalidConfig,
    Line,
    NonFinite,
    Point,
    REL_EPS,
    UsageError,
    bbox_diagonal,
    best_fit_line,
    bound,
    circumcircle,
    foot_of_perpendicular,
    line_intersection,
    line_through,
    reflect_point,
)

ROOT2 = math.sqrt(2.0)

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


# ---------------------------------------------------------------- line_through

def test_line_through_x_axis():
    l = line_through(Point(0, 0), Point(1, 0))
    assert (l.a, l.b, l.c) == (0.0, 1.0, 0.0)


def test_line_through_vertical():
    l = line_through(Point(1, 0), Point(1, 5))
    assert (l.a, l.b, l.c) == pytest.approx((1.0, 0.0, -1.0))


def test_line_through_diagonal():
    # y = x - 1, normalized with positive leading coefficient
    l = line_through(Point(1, 0), Point(3, 2))
    assert (l.a, l.b, l.c) == pytest.approx((1 / ROOT2, -1 / ROOT2, -1 / ROOT2))
    assert l.distance(Point(1, 0)) <= bound(1.0)
    assert l.distance(Point(3, 2)) <= bound(1.0)


def test_line_through_coincident_raises():
    with pytest.raises(CoincidentPoints):
        line_through(Point(2, 3), Point(2, 3))


def test_line_normalization_rejects_zero_normal():
    with pytest.raises(InvalidConfig,
                       match=r"^line requires \(a, b\) != \(0, 0\)$"):
        Line(0.0, 0.0, 1.0)


@pytest.mark.parametrize("a, b, c", [(1e-320, 0.0, 1.0), (0.0, -1e-320, 1.0),
                                     (1e-300, 1e-300, 1e10)])
def test_line_refuses_an_offset_that_normalises_past_the_float_range(a, b,
                                                                     c):
    # c / hypot(a, b) overflows though a, b and c are finite.
    message = re.escape(f"non-finite line ({a}, {b}, {c})")
    with pytest.raises(NonFinite, match=f"^{message}$"):
        Line(a, b, c)


def test_line_checks_its_inputs_before_its_offset():
    # The normal's zero test comes first, as before the offset check.
    with pytest.raises(InvalidConfig):
        Line(0.0, 0.0, 1e300)
    with pytest.raises(NonFinite):
        Line(1e-320, 0.0, math.inf)
    assert Line(1e-320, 0.0, 0.0) == Line(1.0, 0.0, 0.0)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_circle_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(InvalidConfig,
                       match=f"^circle radius must be positive, got {radius}$"):
        Circle(Point(0, 0), radius)


# ------------------------------------------------------- foot_of_perpendicular

def test_foot_drop_to_x_axis():
    assert xy(foot_of_perpendicular(Point(0, 1), Line(0, 1, 0))) == pytest.approx((0.0, 0.0))


def test_foot_of_point_on_line_is_itself():
    l = line_through(Point(1, 0), Point(3, 2))
    f = foot_of_perpendicular(Point(3, 2), l)
    assert f.distance(Point(3, 2)) < 1e-12


def test_foot_diagonal():
    l = line_through(Point(1, 0), Point(3, 2))  # y = x - 1
    assert xy(foot_of_perpendicular(Point(0, 1), l)) == pytest.approx((1.0, 0.0))


# ----------------------------------------------------------- line_intersection

def test_intersection_of_axes():
    cross = line_intersection(Line(0, 1, 0), Line(1, 0, 0))
    assert isinstance(cross, Point)
    assert xy(cross) == pytest.approx((0.0, 0.0))


def test_intersection_parallel_at_infinity():
    assert line_intersection(Line(0, 1, 0), Line(0, 1, -1)) is None


def test_intersection_of_two_chords():
    # y = x - 1 and y = 3x - 9 meet at (4, 3)
    l1 = line_through(Point(1, 0), Point(3, 2))
    l2 = line_through(Point(3, 0), Point(4, 3))
    cross = line_intersection(l1, l2)
    assert xy(cross) == pytest.approx((4.0, 3.0))


def test_intersection_of_coincident_lines_is_none():
    # Coincident lines are parallel: through the origin, and y = 3 with
    # normals pointing opposite ways (normalising keeps a > 0 in the first
    # line and b > 0 in the second).
    l = line_through(Point(0, 0), Point(1, 1))
    assert line_intersection(l, l) is None
    assert line_intersection(Line(1e-12, -1, 3), Line(0, 1, -3)) is None


# ---------------------------------------------------------------- circumcircle

def test_circumcircle_unit():
    c = circumcircle(Point(1, 0), Point(-1, 0), Point(0, 1))
    assert xy(c.center) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert c.radius == pytest.approx(1.0)


def test_circumcircle_right_triangle():
    c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
    assert xy(c.center) == pytest.approx((1.0, 1.0))
    assert c.radius == pytest.approx(ROOT2)


def test_circumcircle_collinear_raises():
    with pytest.raises(CollinearInput):
        circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))


# ------------------------------------------------------------------ reflection

def test_reflect_point_over_x_axis():
    assert xy(reflect_point(Point(0, 1), Line(0, 1, 0))) == pytest.approx((0.0, -1.0))


def test_reflect_point_on_line_fixed():
    l = line_through(Point(1, 0), Point(3, 2))
    assert xy(reflect_point(Point(1, 0), l)) == pytest.approx((1.0, 0.0))


# ------------------------------------------------------------- point_on_circle

def test_point_on_circle():
    # Circle.distance is the distance from the curve, as Line.distance is.
    unit = Circle(Point(0, 0), 1.0)
    assert unit.distance(Point(1, 0)) == 0.0
    assert unit.distance(Point(2, 0)) == 1.0
    assert unit.distance(Point(0, 0)) == 1.0
    assert unit.distance(Point(0.6, 0.8)) <= bound(1.0)


# ----------------------------------------------------------- tolerance plumbing

def test_tolerance_bound_scales():
    assert REL_EPS == 1e-9
    assert bound(0.0) == 0.0
    assert bound(100.0) == pytest.approx(1e-7)
    assert bound(-100.0) == bound(100.0)


def test_no_package_function_takes_a_tolerance():
    # Every threshold is bound(scale), never a setting.
    modules = sorted((Path(__file__).resolve().parents[1] / "src"
                      / "simsonpoly").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            for param in params:
                assert param.arg not in ("tol", "tolerance"), \
                    (path.name, node.lineno)


def test_best_fit_line_commutes_with_power_of_two_scaling():
    rng = random.Random(7)
    for _ in range(300):
        pts = [Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
               for _ in range(rng.randint(2, 9))]
        fit = best_fit_line(pts)
        for k in (-900, -1, 1, 900):
            scaled = best_fit_line([Point(math.ldexp(p.x, k),
                                          math.ldexp(p.y, k)) for p in pts])
            assert (scaled.a, scaled.b, scaled.c) == \
                (fit.a, fit.b, math.ldexp(fit.c, k))


def test_best_fit_line_ignores_point_order():
    # Near-collinear sets along a random line: the fit of the set read
    # backwards is the same float line.
    rng = random.Random(11)
    for draw in range(200):
        n = (8, 32, 128, 256)[draw % 4]
        ox, oy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        t = rng.uniform(0.0, math.pi)
        ux, uy = math.cos(t), math.sin(t)
        pts = []
        for _ in range(n):
            along, off = rng.uniform(-50.0, 50.0), rng.uniform(-1e-9, 1e-9)
            pts.append(Point(ox + along * ux - off * uy,
                             oy + along * uy + off * ux))
        fit, backwards = best_fit_line(pts), best_fit_line(pts[::-1])
        assert (backwards.a, backwards.b, backwards.c) == \
            (fit.a, fit.b, fit.c), (draw, n)


def test_best_fit_line_needs_two_points():
    with pytest.raises(UsageError,
                       match="^best_fit_line needs at least two points$"):
        best_fit_line([Point(1, 2)])


def test_best_fit_line_centroid_past_float_range_raises():
    with pytest.raises(NonFinite):
        best_fit_line([Point(1e308, 0.0), Point(1e308, 1.0)])


def test_bbox_diagonal():
    assert bbox_diagonal([Point(0, 0), Point(3, 4)]) == pytest.approx(5.0)


# ----------------------------------------------------------- property checks

@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_foot_is_idempotent(p, q, r):
    assume(p.distance(q) > 1e-3)
    l = line_through(p, q)
    f1 = foot_of_perpendicular(r, l)
    f2 = foot_of_perpendicular(f1, l)
    assert f1.distance(f2) <= 1e-9 * (1.0 + r.norm())


@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_reflect_is_involution(p, q, r):
    assume(p.distance(q) > 1e-3)
    l = line_through(p, q)
    back = reflect_point(reflect_point(r, l), l)
    assert back.distance(r) <= 1e-9 * (1.0 + r.norm())


@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_circumcircle_permutation_symmetric(a, b, c):
    assume(min(a.distance(b), b.distance(c), a.distance(c)) > 1e-2)
    assume(abs((b - a).cross(c - a)) > 1e-1)
    c1 = circumcircle(a, b, c)
    c2 = circumcircle(c, a, b)
    c3 = circumcircle(b, c, a)
    for other in (c2, c3):
        assert c1.center.distance(other.center) <= 1e-7 * c1.radius
        assert abs(c1.radius - other.radius) <= 1e-7 * c1.radius


@settings(max_examples=60, deadline=None)
@given(points, points, points, points)
def test_line_intersection_symmetric(p, q, r, s):
    assume(p.distance(q) > 1e-3 and r.distance(s) > 1e-3)
    l1, l2 = line_through(p, q), line_through(r, s)
    assume(abs(l1.a * l2.b - l2.a * l1.b) > bound(1.0))
    a = line_intersection(l1, l2)
    b = line_intersection(l2, l1)
    assert a.distance(b) <= 1e-9 * (1.0 + a.norm())


def test_angle_between_lines_is_unsigned():
    assert angle_between_lines(Point(1, 0), Point(-1, 0)) == pytest.approx(0.0)
    assert angle_between_lines(Point(1, 0), Point(0, 1)) == pytest.approx(math.pi / 2)
