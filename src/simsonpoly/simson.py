"""Simson points of polygons.

A point S is a Simson point of a polygon when the feet of the
perpendiculars from S to the side lines (the pedal points) are collinear;
the line carrying them is the Simson line.  For triangles these are
exactly the points of the circumcircle.  For an n-gon the existence
question reduces to a circle condition: with

    W_i = intersection of the side lines V_{i-1}V_i and V_{i+1}V_{i+2}

the polygon admits a Simson point if and only if all circles through
(V_i, W_i, V_{i+1}) share a common point.  When the two sides flanking
side i are parallel, W_i escapes to infinity and the circle degenerates
to the side line V_iV_{i+1} itself; the common-point condition then uses
that line.  This module implements the pedal machinery, the circle
characterization, the Miquel point of a complete quadrilateral, and the
inverse construction of a polygon from a prescribed Simson point, Simson
line and pedal feet.

Vertex/foot labeling convention used throughout: vertex V_i is the meet
of the perpendiculars raised at feet X_i and X_{i+1} (indices wrap), so
the polygon side V_i V_{i+1} carries the foot X_{i+1}.  Consequently the
pedal of S onto side i equals the foot with index i+1; certificates
report pedals in side order.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

from .kernel import (
    Circle,
    CollinearInput,
    Frozen,
    GeometryError,
    Line,
    NonFinite,
    Point,
    bbox_diagonal,
    best_fit_line,
    bound,
    circumcircle,
    foot_of_perpendicular,
    join_points,
    line_intersection,
)


class DegenerateSide(GeometryError):
    """Consecutive polygon vertices coincide."""


class DegenerateConfiguration(GeometryError):
    """Input is too degenerate for the requested construction."""


class PointOnLine(GeometryError):
    """The prescribed Simson point lies on the prescribed Simson line."""


class DuplicateFeet(GeometryError):
    """Two prescribed pedal feet coincide."""


class Polygon(Frozen):
    """Polygon given by its vertex cycle.  Indices wrap.

    The constructor enforces at least three vertices, a finite diameter
    and pairwise distinct consecutive vertices (at the default tolerance);
    anything less does not define side lines.  Vertex indices are 0-based.
    """

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: Iterable[Point]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        scale = bbox_diagonal(verts)
        # An infinite scale would make every side count as degenerate.
        if not math.isfinite(scale):
            raise NonFinite(f"polygon diameter {scale} leaves the float range")
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            if v.distance(w) <= bound(scale):
                raise DegenerateSide(f"consecutive vertices {i} and "
                                     f"{(i + 1) % len(verts)} coincide")
        self._set(verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point:
        return self.vertices[i % self.n]

    def side_line(self, i: int) -> Line:
        """Line carrying the side from vertex i to vertex i+1 (0-based);
        the constructor proved the two distinct at the polygon's scale."""
        return join_points(self.vertex(i), self.vertex(i + 1))

    def side_lines(self) -> list[Line]:
        return [self.side_line(i) for i in range(self.n)]

    def diameter(self) -> float:
        return bbox_diagonal(self.vertices)

    def is_nondegenerate(self) -> bool:
        """No three vertices collinear.

        Vertices i < j < k count as collinear when ``|cross(V_j - V_i,
        V_k - V_i)| <= bound(diameter) * |V_j - V_i|``,
        so also when two of them coincide.  Only vertex differences enter,
        so the verdict does not depend on where the polygon sits.  The
        loop is O(n^3) and stops at the first collinear triple; no search
        or verifier calls it.
        """
        v = self.vertices
        eps = bound(self.diameter())
        for i in range(self.n - 2):
            d = [w - v[i] for w in v[i + 1:]]
            for j, dj in enumerate(d):
                limit = eps * dj.norm()
                if any(abs(dj.cross(dk)) <= limit for dk in d[j + 1:]):
                    return False
        return True


def is_convex(poly: Polygon) -> bool:
    """Strict convexity: all consecutive edge cross products share a sign.

    A vanishing cross product (flat vertex) counts as non-convex.
    """
    n = poly.n
    sign = 0
    for i in range(n):
        e1 = poly.vertex(i + 1) - poly.vertex(i)
        e2 = poly.vertex(i + 2) - poly.vertex(i + 1)
        cr = e1.cross(e2)
        if cr == 0.0:
            return False
        s = 1 if cr > 0.0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def pedal_points(p: Point, poly: Polygon) -> list[Point]:
    """Feet of the perpendiculars from p onto the side lines, in side order.

    Sides are taken as full lines, so a foot may land outside its segment.
    """
    return [foot_of_perpendicular(p, poly.side_line(i)) for i in range(poly.n)]


class SimsonCertificate(Frozen):
    """Witness that a point is a Simson point of some polygon.

    simson_line is the total least squares line through the pedal points
    and residual the largest distance from a pedal point to it.
    projections lists the pedals in side order (pedal onto side i at
    position i).
    """

    __slots__ = _fields = ("simson_point", "simson_line", "projections",
                           "residual")

    def __init__(self, simson_point: Point, simson_line: Line,
                 projections: tuple[Point, ...], residual: float):
        self._set(simson_point, simson_line, projections, residual)


def is_simson_point(p: Point, poly: Polygon) -> Optional[SimsonCertificate]:
    """Certificate if the pedals of p are collinear, else None.

    Collinearity is judged against the fitted line with threshold
    ``bound(poly.diameter())``.  The threshold does not depend on p, so
    a far candidate, whose pedals spread far, cannot loosen its own test.
    """
    pedals = pedal_points(p, poly)
    fit = best_fit_line(pedals)
    residual = max(fit.distance(q) for q in pedals)
    if residual > bound(poly.diameter()):
        return None
    return SimsonCertificate(p, fit, tuple(pedals), residual)


class CompleteQuadrilateral(Frozen):
    """Four lines in general position and their six intersection points.

    General position means no two lines parallel and no three concurrent.
    The six points are labeled so that the collinear triples are
    (a, b, c) on line 1, (a, e, f) on line 2, (b, d, e) on line 3 and
    (c, d, f) on line 4:

        a = l1^l2   b = l1^l3   c = l1^l4
        d = l3^l4   e = l2^l3   f = l2^l4

    The triangles cut out by omitting one line in turn are then
    (d, e, f), (b, c, d), (a, c, f) and (a, b, e).
    """

    _fields = ("lines",)
    __slots__ = (*_fields, "a", "b", "c", "d", "e", "f")

    def __init__(self, lines: Sequence[Line]):
        lines = tuple(lines)
        if len(lines) != 4:
            raise GeometryError("complete quadrilateral needs exactly 4 lines")
        pts = {}
        for i in range(4):
            for j in range(i + 1, 4):
                meet = line_intersection(lines[i], lines[j])
                if meet is None:
                    raise DegenerateConfiguration(
                        f"lines {i} and {j} are parallel")
                pts[(i, j)] = meet
        scale = bbox_diagonal(pts.values())
        for (i, j), p in pts.items():
            for k in range(4):
                if k in (i, j):
                    continue
                if lines[k].distance(p) <= bound(scale):
                    raise DegenerateConfiguration(
                        f"lines {i}, {j} and {k} are concurrent")
        for name, pair in zip("abcdef", ((0, 1), (0, 2), (0, 3), (2, 3),
                                          (1, 2), (1, 3))):
            object.__setattr__(self, name, pts[pair])
        self._set(lines)

    def triangle_circles(self) -> list[Circle]:
        """Circumcircles of the four omitted-line triangles."""
        triples = [(self.a, self.f, self.c), (self.a, self.b, self.e),
                   (self.b, self.c, self.d), (self.d, self.e, self.f)]
        circles = []
        for t in triples:
            try:
                circles.append(circumcircle(*t))
            except CollinearInput as exc:
                raise DegenerateConfiguration(str(exc)) from None
        return circles


def _second_meet(p: Point, o: Point, d: Point) -> Point:
    """Mirror image of p in the line through o along d.

    Two circles through p meet again at this point when their centres
    lie on that line.  The unit direction comes from hypot, so the
    result scales with its data by any power of two.
    """
    norm = d.norm()
    ux, uy = d.x / norm, d.y / norm
    qx, qy = p.x - o.x, p.y - o.y
    t = 2.0 * (qx * ux + qy * uy)
    return Point(o.x + t * ux - qx, o.y + t * uy - qy)


def miquel_point(quad: CompleteQuadrilateral) -> Point:
    """Common point of the four triangle circumcircles.

    The first two circles share the point a by construction, so their
    other common point is a's mirror image in their line of centres; it
    is returned when it lies on the remaining two circles.
    """
    k1, k2, k3, k4 = quad.triangle_circles()
    m = _second_meet(quad.a, k1.center, k2.center - k1.center)
    limit = bound(max(k.radius for k in (k1, k2, k3, k4)))
    if max(k.distance(m) for k in (k3, k4)) > limit:
        raise DegenerateConfiguration(
            "miquel_point: circumcircles have no common point")
    return m


CharacterizationElement = Union[Circle, Line]


def characterization_circles(poly: Polygon) -> list[CharacterizationElement]:
    """The n circles (or degenerate lines) of the Simson point criterion.

    Element i is the circle through V_i, W_i and V_{i+1} where W_i is the
    meet of the two side lines adjacent to side i.  If those side lines
    are parallel the element degenerates to the side line itself; if V_i
    also lies on the next one, at the polygon's diameter, they coincide
    and DegenerateConfiguration is raised.
    """
    n = poly.n
    sides = poly.side_lines()
    limit = bound(poly.diameter())
    elements: list[CharacterizationElement] = []
    for i in range(n):
        next_side = sides[(i + 1) % n]
        meet = line_intersection(sides[(i - 1) % n], next_side)
        if meet is None:
            if next_side.distance(poly.vertex(i)) <= limit:
                raise DegenerateConfiguration(
                    f"characterization_circles: side lines {(i - 1) % n} "
                    f"and {(i + 1) % n} coincide")
            elements.append(sides[i])
            continue
        try:
            elements.append(circumcircle(poly.vertex(i), meet,
                                         poly.vertex(i + 1)))
        except CollinearInput:
            raise DegenerateConfiguration(
                f"characterization_circles: element {i} degenerates, "
                f"W_{i} lies on side {i}") from None
    return elements


def _normal_at(e: CharacterizationElement, p: Point) -> Point:
    """Unit normal of element e at its point p."""
    if isinstance(e, Line):
        return Point(e.a, e.b)
    return Point((p.x - e.center.x) / e.radius, (p.y - e.center.y) / e.radius)


def characterization_candidate(poly: Polygon,
                               elements: Sequence[CharacterizationElement]
                               ) -> Optional[Point]:
    """The one candidate Simson point, from elements 0 and 1 if they cross.

    Elements i and i+1 both pass through V_{i+1}, so they meet again at
    its mirror image in their line of centres; a line element counts as
    a circle centred at infinity along its normal, and two lines meet
    only at V_{i+1}.  A pair whose unit normals at V_{i+1} cross at a
    sine of at most ``bound(1.0)``, as ``line_intersection`` rules,
    gives no point and the next pair is tried.  When none crosses, as
    for a triangle, whose elements are all its circumcircle, element 0's
    topmost point represents it; None when element 0 is a line.
    """
    n = len(elements)
    for i in range(n):
        e1, e2 = elements[i], elements[(i + 1) % n]
        p = poly.vertex(i + 1)
        n1, n2 = _normal_at(e1, p), _normal_at(e2, p)
        if abs(n1.cross(n2)) <= bound(1.0):
            continue
        if isinstance(e1, Circle) and isinstance(e2, Circle):
            return _second_meet(p, e1.center, e2.center - e1.center)
        if isinstance(e1, Circle):
            return _second_meet(p, e1.center, n2)
        if isinstance(e2, Circle):
            return _second_meet(p, e2.center, n1)
        return p
    c = elements[0]
    if isinstance(c, Circle):
        return Point(c.center.x, c.center.y + c.radius)
    return None


def _candidate_violation(poly: Polygon) -> tuple[Optional[Point], float]:
    """The candidate and its worst element distance (inf without one)."""
    elements = characterization_circles(poly)
    cand = characterization_candidate(poly, elements)
    if cand is None:
        return None, math.inf
    return cand, max(e.distance(cand) for e in elements)


def _centred(poly: Polygon) -> tuple[Polygon, Point]:
    """The polygon moved by minus o, and o, the centre of its bounding box."""
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    o = Point(min(xs) + 0.5 * (max(xs) - min(xs)),
              min(ys) + 0.5 * (max(ys) - min(ys)))
    return Polygon(v - o for v in poly.vertices), o


def _search(poly: Polygon) -> Optional[SimsonCertificate]:
    """Certificate of the one candidate if it passes both tests, else None."""
    cand, violation = _candidate_violation(poly)
    if cand is None or violation > bound(max(poly.diameter(), cand.norm())):
        return None
    return is_simson_point(cand, poly)


def find_simson_point(poly: Polygon) -> Optional[SimsonCertificate]:
    """Search for a Simson point via the circle characterization.

    The one point of characterization_candidate is validated against
    every element and then against the pedal collinearity test itself.
    The search runs first on the polygon moved so that its bounding-box
    centre o is the origin, where side offsets and circle centres do
    not cancel, and the certificate is moved back by o.  Only when that
    finds nothing does it run on the polygon as given, where a candidate
    far from o but near the origin keeps more digits.  A miss therefore
    runs the search twice.  Returns None when both fail (in particular for
    parallelograms and for any convex polygon with five or more
    vertices).  The only degeneracy is that of characterization_circles,
    an element that cannot be built, as when two adjacent sides lie on
    one line; other collinear vertices are not.
    """
    centred, o = _centred(poly)
    cert = _search(centred)
    if cert is None:
        return _search(poly)
    line = cert.simson_line
    return SimsonCertificate(
        cert.simson_point + o,
        Line(line.a, line.b, line.c - (line.a * o.x + line.b * o.y)),
        tuple(q + o for q in cert.projections), cert.residual)


def characterization_defect(poly: Polygon) -> float:
    """How far the circle characterization is from being satisfied.

    Zero (up to roundoff) when a Simson point exists.  Otherwise the
    worst element distance of the one candidate of the polygon centred
    as in find_simson_point, and inf when there is none (no pair of
    consecutive elements crosses and element 0 is a line).
    """
    return _candidate_violation(_centred(poly)[0])[1]


def _first_close_pair(points: Sequence[Point],
                      bound: float) -> Optional[tuple[int, int]]:
    """First pair i < j, in (i, j) order, with ``distance <= bound``.

    Two points that close are at most that far apart along either axis,
    so a sweep along the axis of the larger extent tests only the pairs
    whose gap there is within the bound (widened by a few ulps), with
    the same ``distance <= bound`` test as a scan of all pairs.
    """
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    key = xs if max(xs) - min(xs) >= max(ys) - min(ys) else ys
    order = sorted(range(len(points)), key=key.__getitem__)
    window = bound + 4 * math.ulp(bound)
    best = None
    for pos, first in enumerate(order):
        for later in range(pos + 1, len(order)):
            second = order[later]
            if key[second] - key[first] > window:
                break
            pair = (first, second) if first < second else (second, first)
            if (best is None or pair < best) and \
                    points[pair[0]].distance(points[pair[1]]) <= bound:
                best = pair
    return best


def construct_simson_polygon(s: Point, l: Line,
                             feet: Sequence[Point]) -> Polygon:
    """Polygon with prescribed Simson point s, Simson line l and feet.

    Side i is the line through feet[i] orthogonal to the segment from s
    to feet[i]; vertex V_i is the meet of sides i and i+1 (wrapping), so
    the returned vertex cycle realizes the labeling convention of this
    module and the pedals of s are exactly the feet, cyclically shifted
    by one (pedal onto side i is feet[i+1]).

    Raises NonFinite when the extent of the feet and s overflows,
    PointOnLine when s lies on l, DuplicateFeet when two feet coincide
    (naming the first such pair i < j), and GeometryError when a foot is
    off the line l.
    """
    n = len(feet)
    if n < 3:
        raise GeometryError("construct_simson_polygon needs at least 3 feet")
    scale = bbox_diagonal(list(feet) + [s])
    # An infinite scale would make every tolerance test pass.
    if not math.isfinite(scale):
        raise NonFinite(f"diameter {scale} of the feet and the simson point "
                        "leaves the float range")
    limit = bound(scale)
    if l.distance(s) <= limit:
        raise PointOnLine("simson point lies on the simson line")
    pair = _first_close_pair(feet, limit)
    if pair is not None:
        raise DuplicateFeet(f"feet {pair[0]} and {pair[1]} coincide")
    for i, x in enumerate(feet):
        if l.distance(x) > limit:
            raise GeometryError(f"foot {i} does not lie on the simson line")
    sides = []
    for x in feet:
        nx, ny = s.x - x.x, s.y - x.y
        sides.append(Line(nx, ny, -(nx * x.x + ny * x.y)))
    vertices = []
    for i in range(n):
        meet = line_intersection(sides[i], sides[(i + 1) % n])
        if meet is None:
            raise DegenerateConfiguration(
                f"perpendiculars at feet {i} and {(i + 1) % n} are parallel")
        vertices.append(meet)
    return Polygon(tuple(vertices))
