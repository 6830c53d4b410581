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
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .kernel import (
    DEFAULT_TOLERANCE,
    Circle,
    CollinearInput,
    Frozen,
    GeometryError,
    IdenticalCircles,
    IdenticalLines,
    Line,
    NonFinite,
    Point,
    bbox_diagonal,
    best_fit_line,
    circle_intersection,
    circumcircle,
    foot_of_perpendicular,
    line_circle_intersection,
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
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        scale = bbox_diagonal(verts)
        # An infinite scale would make every side count as degenerate.
        if not math.isfinite(scale):
            raise NonFinite(f"polygon diameter {scale} leaves the float range")
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            if v.distance(w) <= DEFAULT_TOLERANCE.bound(scale):
                raise DegenerateSide(f"consecutive vertices {i} and "
                                     f"{(i + 1) % len(verts)} coincide")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> Point:
        return self.vertices[i % self.n]

    def side_line(self, i: int) -> Line:
        """Line carrying the side from vertex i to vertex i+1 (0-based);
        the constructor proved the two distinct at the polygon's scale."""
        p, q = self.vertex(i), self.vertex(i + 1)
        return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)

    def side_lines(self) -> list[Line]:
        return [self.side_line(i) for i in range(self.n)]

    def diameter(self) -> float:
        return bbox_diagonal(self.vertices)

    def is_nondegenerate(self) -> bool:
        """No three vertices collinear.

        Vertices i < j < k count as collinear when ``|cross(V_j - V_i,
        V_k - V_i)| <= DEFAULT_TOLERANCE.bound(diameter) * |V_j - V_i|``,
        so also when two of them coincide.  Only vertex differences enter,
        so the verdict does not depend on where the polygon sits.  The
        loop is O(n^3) and stops at the first collinear triple; no search
        or verifier calls it.
        """
        v = self.vertices
        bound = DEFAULT_TOLERANCE.bound(self.diameter())
        for i in range(self.n - 2):
            d = [w - v[i] for w in v[i + 1:]]
            for j, dj in enumerate(d):
                limit = bound * dj.norm()
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
        object.__setattr__(self, "simson_point", simson_point)
        object.__setattr__(self, "simson_line", simson_line)
        object.__setattr__(self, "projections", projections)
        object.__setattr__(self, "residual", residual)


def is_simson_point(p: Point, poly: Polygon) -> Optional[SimsonCertificate]:
    """Certificate if the pedals of p are collinear, else None.

    Collinearity is judged against the fitted line with threshold
    ``DEFAULT_TOLERANCE.bound(poly.diameter())``.  The threshold does not
    depend on p, so a far candidate, whose pedals spread far, cannot
    loosen its own test.
    """
    pedals = pedal_points(p, poly)
    fit = best_fit_line(pedals)
    residual = max(fit.distance(q) for q in pedals)
    if residual > DEFAULT_TOLERANCE.bound(poly.diameter()):
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
    __slots__ = (*_fields, "_pts")

    def __init__(self, lines: Sequence[Line]):
        lines = tuple(lines)
        object.__setattr__(self, "lines", lines)
        if len(lines) != 4:
            raise GeometryError("complete quadrilateral needs exactly 4 lines")
        pts = {}
        for i in range(4):
            for j in range(i + 1, 4):
                try:
                    meet = line_intersection(lines[i], lines[j])
                except IdenticalLines:
                    raise DegenerateConfiguration(
                        f"lines {i} and {j} coincide") from None
                if meet is None:
                    raise DegenerateConfiguration(
                        f"lines {i} and {j} are parallel")
                pts[(i, j)] = meet
        scale = bbox_diagonal(pts.values())
        for (i, j), p in pts.items():
            for k in range(4):
                if k in (i, j):
                    continue
                if lines[k].distance(p) <= DEFAULT_TOLERANCE.bound(scale):
                    raise DegenerateConfiguration(
                        f"lines {i}, {j} and {k} are concurrent")
        object.__setattr__(self, "_pts", pts)

    @classmethod
    def from_polygon(cls, poly: Polygon) -> "CompleteQuadrilateral":
        if poly.n != 4:
            raise GeometryError("expected a quadrilateral")
        return cls(tuple(poly.side_lines()))

    def _meet(self, i: int, j: int) -> Point:
        return self._pts[(i, j)]

    @property
    def a(self) -> Point:
        return self._meet(0, 1)

    @property
    def b(self) -> Point:
        return self._meet(0, 2)

    @property
    def c(self) -> Point:
        return self._meet(0, 3)

    @property
    def d(self) -> Point:
        return self._meet(2, 3)

    @property
    def e(self) -> Point:
        return self._meet(1, 2)

    @property
    def f(self) -> Point:
        return self._meet(1, 3)

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


def miquel_point(quad: CompleteQuadrilateral) -> Point:
    """Common point of the four triangle circumcircles.

    The first two circles share the point a by construction, so their
    intersection yields at most one further candidate; the one lying on
    the remaining two circles is returned.
    """
    k1, k2, k3, k4 = quad.triangle_circles()
    try:
        candidates = circle_intersection(k1, k2)
    except IdenticalCircles:
        raise DegenerateConfiguration(
            "miquel_point: coincident triangle circumcircles") from None
    best = None
    best_res = math.inf
    for p in candidates:
        res = max(abs(p.distance(k.center) - k.radius) for k in (k3, k4))
        if res < best_res:
            best, best_res = p, res
    limit = DEFAULT_TOLERANCE.bound(max(k.radius for k in (k1, k2, k3, k4)))
    if best is None or best_res > limit:
        raise DegenerateConfiguration(
            "miquel_point: circumcircles have no common point")
    return best


CharacterizationElement = Union[Circle, Line]


def characterization_circles(poly: Polygon) -> list[CharacterizationElement]:
    """The n circles (or degenerate lines) of the Simson point criterion.

    Element i is the circle through V_i, W_i and V_{i+1} where W_i is the
    meet of the two side lines adjacent to side i.  If those side lines
    are parallel the element degenerates to the side line itself.
    """
    n = poly.n
    sides = poly.side_lines()
    elements: list[CharacterizationElement] = []
    for i in range(n):
        prev_side = sides[(i - 1) % n]
        next_side = sides[(i + 1) % n]
        try:
            meet = line_intersection(prev_side, next_side)
        except IdenticalLines:
            raise DegenerateConfiguration(
                f"characterization_circles: side lines {(i - 1) % n} and "
                f"{(i + 1) % n} coincide") from None
        if meet is None:
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


def element_distance(p: Point, elem: CharacterizationElement) -> float:
    """Distance of p from membership in a circle or line element."""
    if isinstance(elem, Circle):
        return abs(p.distance(elem.center) - elem.radius)
    return elem.distance(p)


def _intersect_elements(e1: CharacterizationElement,
                        e2: CharacterizationElement) -> list[Point]:
    if isinstance(e1, Circle) and isinstance(e2, Circle):
        return circle_intersection(e1, e2)
    if isinstance(e1, Circle):
        return line_circle_intersection(e2, e1)
    if isinstance(e2, Circle):
        return line_circle_intersection(e1, e2)
    meet = line_intersection(e1, e2)
    return [] if meet is None else [meet]


def characterization_candidates(elements: Sequence[CharacterizationElement]
                                ) -> list[Point]:
    """Candidate Simson points from the first pair of distinct elements.

    Pairs (i < j, lexicographic) that the kernel calls identical
    (IdenticalCircles, IdenticalLines) carry no information and are
    skipped.  When every element is the same circle (a triangle reduces
    to this) the whole circle qualifies and the topmost point is returned
    as the deterministic representative.
    """
    for e1, e2 in combinations(elements, 2):
        try:
            return _intersect_elements(e1, e2)
        except (IdenticalCircles, IdenticalLines):
            continue
    if elements and isinstance(elements[0], Circle):
        c = elements[0]
        return [Point(c.center.x, c.center.y + c.radius)]
    return []


def find_simson_point(poly: Polygon) -> Optional[SimsonCertificate]:
    """Search for a Simson point via the circle characterization.

    Candidates come from intersecting the first pair of distinct
    characterization elements; each is validated against every element
    and then against the pedal collinearity test itself.  Returns None
    when no candidate survives (in particular for parallelograms, whose
    only formal candidate lies at infinity, and for any convex polygon
    with five or more vertices).  The only degeneracy is that of
    characterization_circles, an element that cannot be built, as when
    two adjacent sides lie on one line; other collinear vertices are not.
    """
    elements = characterization_circles(poly)
    scale = poly.diameter()
    for cand in characterization_candidates(elements):
        violation = max(element_distance(cand, e) for e in elements)
        if violation > DEFAULT_TOLERANCE.bound(max(scale, cand.norm())):
            continue
        cert = is_simson_point(cand, poly)
        if cert is not None:
            return cert
    return None


def characterization_defect(poly: Polygon) -> float:
    """How far the circle characterization is from being satisfied.

    Zero (up to roundoff) when a Simson point exists.  Otherwise the
    smallest over candidates of the worst element violation, and inf when
    there is no candidate.  The first distinct element pair always shares
    a vertex, so in exact arithmetic it meets and there is one.
    """
    elements = characterization_circles(poly)
    return min((max(element_distance(c, e) for e in elements)
                for c in characterization_candidates(elements)),
               default=math.inf)


def construct_simson_polygon(s: Point, l: Line,
                             feet: Sequence[Point]) -> Polygon:
    """Polygon with prescribed Simson point s, Simson line l and feet.

    Side i is the line through feet[i] orthogonal to the segment from s
    to feet[i]; vertex V_i is the meet of sides i and i+1 (wrapping), so
    the returned vertex cycle realizes the labeling convention of this
    module and the pedals of s are exactly the feet, cyclically shifted
    by one (pedal onto side i is feet[i+1]).

    Raises PointOnLine when s lies on l, DuplicateFeet when two feet
    coincide, and GeometryError when a foot is off the line l.
    """
    n = len(feet)
    if n < 3:
        raise GeometryError("construct_simson_polygon needs at least 3 feet")
    scale = bbox_diagonal(list(feet) + [s])
    if l.distance(s) <= DEFAULT_TOLERANCE.bound(scale):
        raise PointOnLine("simson point lies on the simson line")
    for i in range(n):
        for j in range(i + 1, n):
            if feet[i].distance(feet[j]) <= DEFAULT_TOLERANCE.bound(scale):
                raise DuplicateFeet(f"feet {i} and {j} coincide")
    for i, x in enumerate(feet):
        if l.distance(x) > DEFAULT_TOLERANCE.bound(scale):
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
