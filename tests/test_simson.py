import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgen import OCTAGON_SCALES, random_convex_polygon, \
    random_quadrilateral, random_triangle, regular_polygon, rigid_motion, \
    triangle_circles, xy
from simsonpoly import EquidistantConfig, make_equidistant, simson
from simsonpoly.kernel import Circle, CoincidentPoints, GeometryError, Line, \
    NonFinite, Point, UsageError, bbox_diagonal, bound, line_intersection, \
    line_through
from simsonpoly.scene import _perturbed, _run_checks
from simsonpoly.simson import (
    DegenerateConfiguration,
    PointOnLine,
    Polygon,
    characterization_candidate,
    characterization_circles,
    characterization_defect,
    construct_simson_polygon,
    find_simson_point,
    is_convex,
    is_simson_point,
    pedal_points,
)

RIGHT_TRIANGLE = Polygon((Point(0, 0), Point(4, 0), Point(0, 3)))


# --------------------------------------------------------------- polygon type

def test_polygon_needs_three_vertices():
    with pytest.raises(UsageError,
                       match="^polygon needs at least 3 vertices$"):
        Polygon((Point(0, 0), Point(1, 0)))


def test_polygon_rejects_repeated_consecutive_vertex():
    with pytest.raises(CoincidentPoints,
                       match="^consecutive vertices 0 and 1 coincide$"):
        Polygon((Point(0, 0), Point(0, 0), Point(1, 1)))


def test_polygon_whose_extent_overflows_is_non_finite():
    # Each vertex is finite, but the bounding box diagonal is inf, which
    # would make every side count as degenerate.
    with pytest.raises(NonFinite, match="leaves the float range"):
        Polygon((Point(1e308, 0), Point(-1e308, 0), Point(0, 1e308)))


def test_polygon_indices_wrap():
    assert RIGHT_TRIANGLE.vertex(3) == RIGHT_TRIANGLE.vertex(0)
    assert RIGHT_TRIANGLE.vertex(-1) == RIGHT_TRIANGLE.vertex(2)


@pytest.mark.parametrize("offset", [0.0, 1e5])
def test_side_line_is_line_through_its_vertices(offset):
    # Both build the line from one kernel formula, so a change to it (such
    # as one for polygons far from the origin) changes both at once.
    rng = np.random.default_rng(4301)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = offset * math.cos(angle), offset * math.sin(angle)
        poly = Polygon(tuple(Point(float(x) + dx, float(y) + dy)
                             for x, y in rng.uniform(-5.0, 5.0, (n, 2))))
        for i in range(n):
            side = poly.side_line(i)
            line = line_through(poly.vertex(i), poly.vertex(i + 1))
            assert (side.a, side.b, side.c) == (line.a, line.b, line.c)


def test_nondegenerate_flag():
    assert RIGHT_TRIANGLE.is_nondegenerate()
    flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)))
    assert not flat.is_nondegenerate()


def _nondegenerate_by_triples(poly):
    """Reference for Polygon.is_nondegenerate: one scalar test per triple,
    |cross(V_j - V_i, V_k - V_i)| <= bound(diameter) * |V_j - V_i|."""
    v = poly.vertices
    n = poly.n
    eps = bound(poly.diameter())
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            dj = v[j] - v[i]
            for k in range(j + 1, n):
                if abs(dj.cross(v[k] - v[i])) <= eps * dj.norm():
                    return False
    return True


def _planted_polygon(rng, case):
    """Random n-gon (n 3..13, scale 1e-2..1e4) with one planted feature.

    free:  independent vertices.
    near:  V_c at 0.5..2 times the collinearity bound from line(V_a, V_b),
           for three distinct indices in any order.
    same:  a copy of V_a at a non-consecutive index.
    close: V_a moved by 5 collinearity bounds to a non-consecutive index,
           with the polygon ~1e10 bounds from the origin, where a
           coincidence rule measured at the distance from the origin
           would call the pair coincident.
    """
    while True:
        n = int(rng.integers(4 if case in ("same", "close") else 3, 14))
        scale = 10.0 ** rng.uniform(-2.0, 4.0)
        verts = rng.uniform(-scale, scale, (n, 2))
        limit = bound(2.0 * math.sqrt(2.0) * scale)
        unit = rng.normal(size=2)
        unit /= np.hypot(*unit)
        if case == "near":
            a, b, c = rng.choice(n, 3, replace=False)
            verts[c] = verts[a] + rng.uniform(-1.5, 2.5) * (verts[b] - verts[a])
            normal = np.array([verts[a][1] - verts[b][1],
                               verts[b][0] - verts[a][0]])
            normal /= np.hypot(*normal)
            factor = rng.choice([0.5, 0.8, 1.25, 2.0])
        elif case in ("same", "close"):
            a, c = rng.choice(n, 2, replace=False)
            if (a - c) % n in (1, n - 1):
                continue
            verts[c] = verts[a] + (5.0 * limit * unit if case == "close" else 0)
        offset = (1e10 * limit * unit if case == "close"
                  else rng.uniform(-10.0, 10.0, 2) * scale)
        verts += offset
        if case == "near":
            # Place V_c against the bound of the polygon as finally built.
            diam = bbox_diagonal([Point(*v) for v in verts])
            verts[c] += factor * bound(diam) * normal
        try:
            return Polygon(tuple(Point(*v) for v in verts))
        except CoincidentPoints:
            continue


def _translated_to_origin(poly):
    """The polygon moved so that V_0 sits at the origin."""
    v0 = poly.vertices[0]
    return Polygon(tuple(v - v0 for v in poly.vertices))


def test_nondegenerate_matches_triple_loop():
    rng = np.random.default_rng(20120103)
    seen = {True: 0, False: 0}
    for case in ("free", "near", "same", "close"):
        for _ in range(300):
            poly = _planted_polygon(rng, case)
            want = _nondegenerate_by_triples(poly)
            assert poly.is_nondegenerate() == want, (case, poly)
            moved = _translated_to_origin(poly)
            assert _nondegenerate_by_triples(moved) == want, (case, poly)
            assert moved.is_nondegenerate() == want, (case, poly)
            seen[want] += 1
    assert min(seen.values()) >= 100, seen


# --------------------------------------------------------------- pedal points

def test_pedals_at_right_angle_vertex_repeat():
    # right angle at V1 with legs along the axes: dropping from V1 hits
    # V1 itself on both adjacent sides
    feet = pedal_points(Point(0, 0), RIGHT_TRIANGLE)
    assert xy(feet[0]) == pytest.approx((0.0, 0.0))
    assert xy(feet[2]) == pytest.approx((0.0, 0.0))


def test_pedals_of_circumcenter_are_midpoints():
    tri = Polygon((Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)))
    center = Point(0.5, math.sqrt(3) / 6)  # equilateral: centroid = circumcenter
    feet = pedal_points(center, tri)
    mids = [tri.vertex(i).midpoint(tri.vertex(i + 1)) for i in range(3)]
    for f, m in zip(feet, mids):
        assert f.distance(m) < 1e-12


def test_pedals_collinear_for_circumcircle_point():
    # (4,3) is on the circumcircle (hypotenuse is a diameter)
    feet = pedal_points(Point(4, 3), RIGHT_TRIANGLE)
    assert xy(feet[0]) == pytest.approx((4.0, 0.0))
    assert xy(feet[1]) == pytest.approx((64 / 25, 27 / 25))
    assert xy(feet[2]) == pytest.approx((0.0, 3.0))


# ------------------------------------------------------------- is_simson_point

def test_simson_certificate_on_circumcircle():
    cert = is_simson_point(Point(4, 3), RIGHT_TRIANGLE)
    assert cert is not None
    assert cert.residual <= bound(10.0)
    assert len(cert.projections) == 3
    # the pedal line here is the side line through (4,0) and (0,3)
    assert cert.simson_line.distance(Point(4, 0)) < 1e-9
    assert cert.simson_line.distance(Point(0, 3)) < 1e-9


def test_simson_wallace_on_the_unit_circle():
    # (0, 1) is on the circumcircle of the triangle inscribed in the unit
    # circle, so its pedal feet line up (Simson-Wallace).
    tri = Polygon((Point(1, 0), Point(-1, 0), Point(0, -1)))
    assert is_simson_point(Point(0, 1), tri) is not None


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 2 * math.pi), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0))
def test_simson_verdict_is_rigid_motion_invariant(theta, tx, ty):
    # The right triangle with (4, 3) on its circumcircle, and the point
    # moved 0.3 off it along y: the verdicts survive any rigid motion.
    move, _ = rigid_motion(theta, (tx, ty))
    tri = Polygon(tuple(move(v.x, v.y) for v in RIGHT_TRIANGLE.vertices))
    assert is_simson_point(move(4, 3), tri) is not None
    assert is_simson_point(move(4, 3.3), tri) is None


def test_centroid_is_not_simson_point():
    assert is_simson_point(Point(4 / 3, 1.0), RIGHT_TRIANGLE) is None


def test_square_admits_no_simson_point_anywhere():
    square = Polygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    for x in np.linspace(-1.0, 2.0, 13):
        for y in np.linspace(-1.0, 2.0, 13):
            assert is_simson_point(Point(x, y), square) is None


@pytest.mark.parametrize("y", [1e9, 1e150, 1e160, 1e200, 1e300])
def test_far_candidate_is_rejected_without_overflow(y):
    # The pedals of (0.3, y) miss a common line by 0.5; a threshold at
    # the spread of the pedals and the candidate (~y) would pass them.
    # Two pedals lie near y, and the fit squares their offsets from the
    # centroid, which overflowed from about 1e155 on.
    square = Polygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
    assert is_simson_point(Point(0.3, y), square) is None


# ----------------------------------------------------- complete quadrilateral

FOUR_LINES = (Line(0, 1, 0),                         # y = 0
              Line(1, 0, 0),                         # x = 0
              line_through(Point(1, 0), Point(0, 1)),   # y = 1 - x
              line_through(Point(1.5, 0), Point(0, 3)))  # y = 3 - 2x

MIQUEL_OF_FOUR_LINES = Point(12 / 17, -3 / 17)


def test_miquel_point_of_four_lines():
    # The quadrilateral whose side i lies on line i: vertex i is the meet
    # of lines i - 1 and i.
    poly = Polygon(line_intersection(FOUR_LINES[i - 1], FOUR_LINES[i])
                   for i in range(4))
    m = find_simson_point(poly).simson_point
    assert xy(m) == pytest.approx(xy(MIQUEL_OF_FOUR_LINES), abs=1e-12)
    for circle in triangle_circles(FOUR_LINES):
        assert circle.distance(m) <= bound(circle.radius)


def test_trapezoid_simson_point_is_side_meet():
    # right-angled trapezoid: S = AB cap CD = (0, -1).  Its elements
    # alternate line and circle, so over its 8 listings the candidate
    # comes from both a line-then-circle and a circle-then-line pair.
    vs = [Point(0, 0), Point(0, 2), Point(3, 2), Point(1, 0)]
    pairs = set()
    for order in (vs, vs[::-1]):
        for k in range(4):
            trap = Polygon(tuple(order[k:] + order[:k]))
            elems = characterization_circles(trap)
            pairs.add((type(elems[0]), type(elems[1])))
            assert xy(characterization_candidate(trap, elems)) == \
                pytest.approx((0.0, -1.0), abs=1e-12)
            cert = find_simson_point(trap)
            assert cert is not None
            assert xy(cert.simson_point) == pytest.approx((0.0, -1.0),
                                                          abs=1e-12)
    assert pairs == {(Line, Circle), (Circle, Line)}


def test_candidate_of_uncrossed_line_elements_is_v1():
    # No pair of consecutive elements crosses and element 0 is a line, so
    # every pair is skipped at bound(1.0) and the candidate is V_1, which
    # elements 0 and 1 share.  No polygon is known to build such elements,
    # so they are handed in.
    tri = RIGHT_TRIANGLE
    assert characterization_candidate(tri, [tri.side_line(0)] * 3) == \
        tri.vertex(1)


def _drawn_simson_polygons(rng, n):
    """A moved equidistant polygon and a polygon built on jittered feet,
    from the ranges of the benchmark's verify-sweep draw."""
    cfg = EquidistantConfig(s=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0),
                            x0=rng.uniform(-3.0, 3.0),
                            delta=rng.uniform(0.25, 1.5), n=n)
    move, x_axis = rigid_motion(rng.uniform(0.0, 2.0 * math.pi),
                                (rng.uniform(-10.0, 10.0),
                                 rng.uniform(-10.0, 10.0)))
    moved = Polygon(tuple(move(v.x, v.y)
                          for v in make_equidistant(cfg).vertices))
    feet = [move(cfg.x0 + (i + rng.uniform(-0.25, 0.25)) * cfg.delta, 0.0)
            for i in range(n)]
    return moved, construct_simson_polygon(move(0.0, cfg.s), x_axis, feet)


@pytest.mark.parametrize("n", [4, 5, 8, 32, 128])
def test_elements_0_and_1_cross_at_v1(n):
    # The candidate is read from elements 0 and 1 alone: at V_1, which
    # both pass through, their unit normals cross by more than bound(1.0)
    # on every polygon the package builds and on its negative control.
    rng = random.Random(54)
    for _ in range(80):
        for poly in _drawn_simson_polygons(rng, n):
            control = _perturbed(poly, 1e-3 * poly.diameter(),
                                 rng.randrange(2**31))
            for case in (poly, control):
                centred = simson._search(case)[1]
                e0, e1 = characterization_circles(centred)[:2]
                v1 = centred.vertex(1)
                assert abs(simson._normal_at(e0, v1).cross(
                    simson._normal_at(e1, v1))) > bound(1.0)


# ---------------------------------------------------- characterization circles

def test_characterization_of_triangle_is_circumcircle():
    elems = characterization_circles(RIGHT_TRIANGLE)
    assert all(isinstance(e, Circle) for e in elems)
    for e in elems:
        assert e.center.distance(Point(2.0, 1.5)) < 1e-9
        assert e.radius == pytest.approx(2.5)


def test_characterization_of_quadrilateral_meets_at_miquel():
    # Element i passes through the three meets of side lines i - 1, i and
    # i + 1, so it is the circle of the triangle that omits side i + 2,
    # and the candidate lies on all four such circles.
    rng = np.random.default_rng(5)
    poly = random_quadrilateral(rng)
    eps = bound(poly.diameter())
    elems = characterization_circles(poly)
    circles = triangle_circles(poly.side_lines())
    for i, e in enumerate(elems):
        k = circles[(i + 2) % 4]
        assert e.center.distance(k.center) <= eps
        assert abs(e.radius - k.radius) <= eps
    m = characterization_candidate(poly, elems)
    for k in circles:
        assert k.distance(m) <= 1e-8 * poly.diameter()


def test_characterization_trapezoid_contains_line_element():
    trap = Polygon((Point(0, 0), Point(0, 2), Point(3, 2), Point(1, 0)))
    elems = characterization_circles(trap)
    assert any(isinstance(e, Line) for e in elems)
    assert any(isinstance(e, Circle) for e in elems)


def test_characterization_rejects_degenerate_polygon():
    flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)))
    with pytest.raises(DegenerateConfiguration):
        characterization_circles(flat)


# ------------------------------------------------------------ find_simson_point

def test_regular_pentagon_has_no_simson_point():
    assert find_simson_point(regular_polygon(5)) is None


def test_quadrilateral_simson_point_is_miquel_point():
    rng = np.random.default_rng(11)
    for _ in range(20):
        poly = random_quadrilateral(rng)
        cert = find_simson_point(poly)
        assert cert is not None
        for k in triangle_circles(poly.side_lines()):
            assert k.distance(cert.simson_point) <= \
                bound(max(k.radius, poly.diameter()))


def test_find_simson_point_rejects_collinear_vertices():
    flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)))
    with pytest.raises(DegenerateConfiguration):
        find_simson_point(flat)


HEXAGON_V0_V2_V4_ON_X_AXIS = Polygon(tuple(
    Point(*v) for v in [(0, 0), (1, -2), (2, 0), (3.3, 1.1), (4, 0),
                        (1.7, 2.9)]))


def test_collinear_nonadjacent_vertices_are_searched():
    assert not HEXAGON_V0_V2_V4_ON_X_AXIS.is_nondegenerate()
    assert find_simson_point(HEXAGON_V0_V2_V4_ON_X_AXIS) is None


def test_search_never_calls_the_collinearity_precheck(monkeypatch):
    def forbidden(self):
        raise AssertionError("is_nondegenerate was called")

    monkeypatch.setattr(Polygon, "is_nondegenerate", forbidden)
    trap = Polygon((Point(0, 0), Point(0, 2), Point(3, 2), Point(1, 0)))
    assert find_simson_point(trap) is not None
    assert find_simson_point(RIGHT_TRIANGLE) is not None
    assert find_simson_point(HEXAGON_V0_V2_V4_ON_X_AXIS) is None
    flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)))
    with pytest.raises(DegenerateConfiguration):
        find_simson_point(flat)


def test_parallelogram_yields_no_simson_point():
    para = Polygon((Point(0, 0), Point(2, 0), Point(3, 1), Point(1, 1)))
    assert find_simson_point(para) is None


def test_a_miss_searches_once(monkeypatch):
    # One search, on the centred polygon: a miss builds the elements once.
    calls = []

    def counted(poly):
        calls.append(poly)
        return characterization_circles(poly)

    monkeypatch.setattr(simson, "characterization_circles", counted)
    assert find_simson_point(regular_polygon(5)) is None
    assert len(calls) == 1


def test_defect_is_the_residual_verify_reports_for_a_miss():
    poly = _perturbed(make_equidistant(EquidistantConfig(1.0, -3.5, 1.0, 8)),
                      1e-3, 1)
    (entry,) = _run_checks(poly, ["simson"], (1, 2, 3)).checks
    assert not entry.passed
    defect = characterization_defect(poly)
    assert 0.0 < defect < math.inf
    assert defect.hex() == entry.residual.hex()


def test_triangle_candidates_lie_on_circumcircle():
    # for a triangle every characterization circle is the circumcircle;
    # the search degenerates and a representative point is returned
    cert = find_simson_point(RIGHT_TRIANGLE)
    assert cert is not None
    assert Circle(Point(2.0, 1.5), 2.5).distance(cert.simson_point) \
        <= bound(2.5)


# ------------------------------------------------------ construct_simson_polygon

def test_construct_triangle_from_three_feet():
    poly = construct_simson_polygon(Point(0, 1), Line(0, 1, 0),
                                    [Point(-1, 0), Point(0, 0), Point(1, 0)])
    assert [xy(v) for v in poly.vertices] == [
        pytest.approx((-1.0, 0.0)),
        pytest.approx((1.0, 0.0)),
        pytest.approx((0.0, -1.0)),
    ]
    cert = is_simson_point(Point(0, 1), poly)
    assert cert is not None


def test_construct_projections_are_feet_rotated():
    # pedal of side i is the foot carried by that side, which is feet
    # shifted by one position relative to the vertex labeling
    feet = [Point(x, 0.0) for x in (0.0, 0.7, 1.6, 2.9)]
    poly = construct_simson_polygon(Point(0.3, 2), Line(0, 1, 0), feet)
    cert = is_simson_point(Point(0.3, 2), poly)
    assert cert is not None
    expected = feet[1:] + feet[:1]
    for got, want in zip(cert.projections, expected):
        assert got.distance(want) < 1e-9


def test_construct_rejects_point_on_line():
    with pytest.raises(PointOnLine):
        construct_simson_polygon(Point(0, 0), Line(0, 1, 0),
                                 [Point(-1, 0), Point(0, 0), Point(1, 0)])


def test_construct_rejects_duplicate_feet():
    with pytest.raises(CoincidentPoints, match="^feet 0 and 1 coincide$"):
        construct_simson_polygon(Point(0, 1), Line(0, 1, 0),
                                 [Point(0, 0), Point(0, 0), Point(1, 0)])


def test_construct_rejects_foot_off_line():
    with pytest.raises(ValueError):
        construct_simson_polygon(Point(0, 1), Line(0, 1, 0),
                                 [Point(0, 0.5), Point(1, 0), Point(2, 0)])


def test_construct_checks_run_in_order():
    # PointOnLine before coincident feet before a foot off the line.
    dup_off_line = [Point(0, 0), Point(0, 0), Point(1, 0.5)]
    with pytest.raises(PointOnLine):
        construct_simson_polygon(Point(2, 0), Line(0, 1, 0), dup_off_line)
    with pytest.raises(CoincidentPoints, match="^feet 0 and 1 coincide$"):
        construct_simson_polygon(Point(0, 1), Line(0, 1, 0), dup_off_line)


def test_construct_rejects_overflowing_extent():
    # The feet span more than the float range: an infinite scale would
    # make every tolerance test pass, s on L included.
    feet = [Point(0, 0), Point(1e308, 0), Point(-1e308, 0)]
    with pytest.raises(NonFinite, match="leaves the float range"):
        construct_simson_polygon(Point(0, 1), Line(0, 1, 0), feet)


def _first_duplicate_pair(feet, s):
    limit = bound(bbox_diagonal(list(feet) + [s]))
    n = len(feet)
    return next(((i, j) for i in range(n) for j in range(i + 1, n)
                 if feet[i].distance(feet[j]) <= limit), None)


def _duplicate_set(rng, n):
    """Feet on a line of random direction (axis-parallel ones included),
    some repeated, some moved off a foot, often along the line, by a
    multiple of the bound near 1, and some moved off the line."""
    angle = float(rng.choice([0.0, math.pi / 2, rng.uniform(0, math.pi)]))
    u = Point(math.cos(angle), math.sin(angle))
    ts = [float(t) for t in rng.uniform(-10, 10, n)]
    feet = [Point(3 + t * u.x, -2 + t * u.y) for t in ts]
    limit = bound(30.0)
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(k) for k in rng.choice(n, 2, replace=False))
        factor = float(rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.5, 3.0]))
        phi = float(rng.choice([angle, rng.uniform(0, 2 * math.pi)]))
        feet[j] = Point(feet[i].x + factor * limit * math.cos(phi),
                        feet[i].y + factor * limit * math.sin(phi))
    if rng.uniform() < 0.2:
        k = int(rng.integers(n))
        feet[k] = Point(feet[k].x - u.y, feet[k].y + u.x)
    return feet, Point(3 - 5 * u.y, -2 + 5 * u.x)


def test_duplicate_feet_names_the_first_pair_of_all_pairs():
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(400):
        feet, s = _duplicate_set(rng, int(rng.integers(3, 40)))
        want = _first_duplicate_pair(feet, s)
        # The line through p orthogonal to s - p.
        p = Point(3, -2)
        line = Line(s.x - p.x, s.y - p.y, -(s - p).dot(p))
        try:
            construct_simson_polygon(s, line, feet)
        except CoincidentPoints as exc:
            assert str(exc) == f"feet {want[0]} and {want[1]} coincide"
            found += 1
        except GeometryError:
            assert want is None
        else:
            assert want is None
    assert 100 < found < 400


def test_duplicate_feet_scan_compares_few_pairs(monkeypatch):
    # All pairs would take n(n - 1)/2 distances; the sweep along the
    # line (vertical here, so along y) takes none for spaced feet.
    n = 2000
    calls = []
    distance = Point.distance

    def counted(self, other):
        calls.append(1)
        return distance(self, other)

    monkeypatch.setattr(Point, "distance", counted)
    feet = [Point(1.0, 0.37 * k) for k in range(n)]
    construct_simson_polygon(Point(3.0, 5.0), Line(1, 0, -1), feet)
    assert len(calls) <= 2 * n
    calls.clear()
    with pytest.raises(CoincidentPoints, match="feet 0 and 1999 coincide"):
        construct_simson_polygon(Point(3.0, 5.0), Line(1, 0, -1),
                                 feet[:-1] + feet[:1])
    assert len(calls) <= n


def test_construct_round_trip_recovers_simson_data():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        xs = np.cumsum(rng.uniform(0.8, 2.0, n))
        feet = [Point(float(x), 0.0) for x in xs]
        s = Point(float(rng.uniform(xs[0], xs[-1])),
                  float(rng.choice([-1, 1]) * rng.uniform(1.5, 4.0)))
        poly = construct_simson_polygon(s, Line(0, 1, 0), feet)
        cert = find_simson_point(poly)
        assert cert is not None
        scale = bbox_diagonal(list(poly.vertices) + [s])
        assert cert.simson_point.distance(s) <= 1e-7 * scale


# -------------------------------------------------------------------- convexity

def test_regular_pentagon_is_convex():
    assert is_convex(regular_polygon(5))


def test_reflex_pentagon_is_not_convex():
    dented = Polygon((Point(0, 0), Point(4, 0), Point(4, 3),
                      Point(2, 1), Point(0, 3)))
    assert not is_convex(dented)


def test_flat_vertex_is_not_convex():
    flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)))
    assert not is_convex(flat)


def test_equidistant_octagon_is_not_convex():
    # Simson polygons with n >= 5 cannot be convex
    poly = make_equidistant(EquidistantConfig(s=1, x0=0, delta=1, n=8))
    assert not is_convex(poly.polygon())


@pytest.mark.parametrize("k", OCTAGON_SCALES)
def test_jitter_of_a_scaled_octagon_is_no_simson_polygon(k):
    # Moving each vertex by up to 1e-4 of the diameter breaks the pedal
    # line at the true S, at every scale: no tolerance floor absorbs it.
    from simsonpoly.equidistant import EquidistantConfig, make_equidistant
    octagon = make_equidistant(EquidistantConfig(k, -3.5 * k, k, 8))
    assert is_simson_point(octagon.simson_point, octagon.polygon())
    jitter = 1e-4 * octagon.polygon().diameter()
    rng = np.random.default_rng(2801)
    for _ in range(20):
        moved = Polygon(tuple(Point(v.x + jitter * dx, v.y + jitter * dy)
                              for v, (dx, dy) in zip(
                                  octagon.vertices,
                                  rng.uniform(-1.0, 1.0, (8, 2)).tolist())))
        assert is_simson_point(octagon.simson_point, moved) is None


# ------------------------------------------------------------ property harnesses

def test_simson_wallace_on_random_triangles():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tri, center, radius = random_triangle(rng)
        t = rng.uniform(0, 2 * math.pi)
        on = Point(center.x + radius * math.cos(t),
                   center.y + radius * math.sin(t))
        assert is_simson_point(on, tri) is not None
        off_by = radius * 10 ** rng.uniform(-6, -1) * rng.choice([-1, 1])
        off = Point(center.x + (radius + off_by) * math.cos(t),
                    center.y + (radius + off_by) * math.sin(t))
        assert is_simson_point(off, tri) is None


def test_convex_polygons_never_admit_simson_point():
    rng = np.random.default_rng(23)
    for _ in range(50):
        poly = random_convex_polygon(rng, int(rng.integers(5, 11)))
        assert find_simson_point(poly) is None


def test_second_circle_intersection_grows_along_ray():
    # cyclic A,B,S,C on a circle; X inside segment AB; the circle (AXS)
    # meets ray AC again strictly beyond C
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        ts = np.sort(rng.uniform(0, 2 * math.pi, 4))
        gaps = np.diff(np.r_[ts, ts[0] + 2 * math.pi])
        if gaps.min() < 0.15:
            continue
        a, b, s, c = (np.array([math.cos(t), math.sin(t)]) for t in ts)
        x = a + rng.uniform(0.05, 0.95) * (b - a)
        m = 2.0 * np.array([x - a, s - a])
        rhs = np.array([x @ x - a @ a, s @ s - a @ a])
        ctr = np.linalg.solve(m, rhs)
        d = c - a
        t_second = -2.0 * (d @ (a - ctr)) / (d @ d)
        assert t_second > 1.0
        checked += 1
