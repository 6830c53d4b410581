import ast
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomgen import angle_between_lines, lines_equal_tight, tight_bound, xy
from simsonpoly.kernel import (
    Circle,
    CoincidentPoints,
    CollinearInput,
    DEFAULT_TOLERANCE,
    Line,
    Point,
    Tolerance,
    bbox_diagonal,
    circumcircle,
    collinear,
    foot_of_perpendicular,
    line_intersection,
    line_through,
    reflect_line,
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
    assert l.distance(Point(1, 0)) <= DEFAULT_TOLERANCE.bound(1.0)
    assert l.distance(Point(3, 2)) <= DEFAULT_TOLERANCE.bound(1.0)


def test_line_through_coincident_raises():
    with pytest.raises(CoincidentPoints):
        line_through(Point(2, 3), Point(2, 3))


def test_line_normalization_rejects_zero_normal():
    with pytest.raises(ValueError):
        Line(0.0, 0.0, 1.0)


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


# ------------------------------------------------------------------- collinear

def test_collinear_on_diagonal():
    assert collinear([Point(0, 0), Point(1, 1), Point(2, 2)])


def test_collinear_right_angle_false():
    assert not collinear([Point(0, 0), Point(1, 0), Point(0, 1)])


def test_collinear_pedal_points_of_circumcircle_point():
    # (0,1) is on the circumcircle of the triangle inscribed in the unit
    # circle, so its pedal feet line up (Simson-Wallace).
    tri = [Point(1, 0), Point(-1, 0), Point(0, -1)]
    p = Point(0, 1)
    feet = [foot_of_perpendicular(p, line_through(tri[i], tri[(i + 1) % 3]))
            for i in range(3)]
    assert collinear(feet)


# ------------------------------------------------------------------ reflection

def test_reflect_point_over_x_axis():
    assert xy(reflect_point(Point(0, 1), Line(0, 1, 0))) == pytest.approx((0.0, -1.0))


def test_reflect_point_on_line_fixed():
    l = line_through(Point(1, 0), Point(3, 2))
    assert xy(reflect_point(Point(1, 0), l)) == pytest.approx((1.0, 0.0))


def test_reflect_line_vertical_over_diagonal():
    # vertical through (2, 1) across y = x - 1 becomes horizontal y = 1
    mirror = line_through(Point(1, 0), Point(3, 2))
    vertical = Line(1, 0, -2)
    out = reflect_line(vertical, mirror)
    assert lines_equal_tight(out, Line(0, 1, -1))


angles = st.floats(0.0, 2.0 * math.pi)
unit_offsets = st.tuples(st.floats(0.1, 1.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(angles, angles, unit_offsets, unit_offsets, st.integers(-3, 100))
def test_reflect_line_is_exact_far_from_origin(t_m, t_mirror, off_m,
                                               off_mirror, exponent):
    # Both lines sit at offsets of one magnitude, up to 1e100, as a side
    # and the vertical through its midpoint do far from the origin.
    size = 10.0 ** exponent
    m = Line(math.cos(t_m), math.sin(t_m), off_m[0] * off_m[1] * size)
    mirror = Line(math.cos(t_mirror), math.sin(t_mirror),
                  off_mirror[0] * off_mirror[1] * size)
    image = reflect_line(m, mirror)
    assert lines_equal_tight(reflect_line(image, mirror), m)
    foot = Point(-m.c * m.a, -m.c * m.b)
    q = reflect_point(foot, mirror)
    assert image.distance(q) <= tight_bound(max(abs(m.c), abs(mirror.c)))


# ------------------------------------------------------------- point_on_circle

def test_point_on_circle():
    # Circle.distance is the distance from the curve, as Line.distance is.
    unit = Circle(Point(0, 0), 1.0)
    assert unit.distance(Point(1, 0)) == 0.0
    assert unit.distance(Point(2, 0)) == 1.0
    assert unit.distance(Point(0, 0)) == 1.0
    assert unit.distance(Point(0.6, 0.8)) <= DEFAULT_TOLERANCE.bound(1.0)


# ----------------------------------------------------------- tolerance plumbing

def test_tolerance_bound_scales():
    tol = Tolerance(rel_eps=1e-6)
    assert tol.bound(0.0) == 0.0
    assert tol.bound(100.0) == pytest.approx(1e-4)
    assert tol.bound(-100.0) == tol.bound(100.0)


def test_tolerance_rejects_nonpositive():
    with pytest.raises(ValueError):
        Tolerance(rel_eps=0.0)


def test_no_package_function_takes_a_tolerance():
    # Every threshold is DEFAULT_TOLERANCE.bound(scale), never a setting.
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
    assume(abs(l1.a * l2.b - l2.a * l1.b) > DEFAULT_TOLERANCE.bound(1.0))
    a = line_intersection(l1, l2)
    b = line_intersection(l2, l1)
    assert a.distance(b) <= 1e-9 * (1.0 + a.norm())


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 2 * math.pi), coords, coords)
def test_collinear_rigid_motion_invariant(theta, tx, ty):
    pts = [Point(0, 0), Point(1, 0.5), Point(2, 1), Point(4, 2)]
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    moved = [Point(cos_t * p.x - sin_t * p.y + tx,
                   sin_t * p.x + cos_t * p.y + ty) for p in pts]
    assert collinear(moved)
    bent = list(moved)
    bent[1] = Point(bent[1].x, bent[1].y + 0.3)
    assert not collinear(bent)


def test_angle_between_lines_is_unsigned():
    assert angle_between_lines(Point(1, 0), Point(-1, 0)) == pytest.approx(0.0)
    assert angle_between_lines(Point(1, 0), Point(0, 1)) == pytest.approx(math.pi / 2)
