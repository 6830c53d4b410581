"""Tolerance-aware 2D primitives: points, lines, circles, parabolas.

Everything downstream is built on the handful of constructions in this
module (perpendicular feet, reflections, circumcircles, intersections).
The approach is exact-formula-first: operations evaluate closed forms in
floating point and every predicate decides with the package's one
absolute plus relative tolerance, DEFAULT_TOLERANCE.  There is no exact
rational fallback; degeneracies are reported through the error types
below instead of being silently absorbed.
Results are plain values: a point, a line, a circle, a list of points, or
None where the construction has no finite answer (parallel lines).  The
module is pure Python on ``math`` alone.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


class GeometryError(ValueError):
    """Base class for geometric failure modes raised by this package."""


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide under the tolerance."""


class IdenticalLines(GeometryError):
    """Two lines expected to be distinct coincide under the tolerance."""


class CollinearInput(GeometryError):
    """Three points expected to be in general position are collinear."""


class IdenticalCircles(GeometryError):
    """Two circles expected to be distinct coincide under the tolerance."""


class NonFinite(GeometryError):
    """A coordinate, coefficient or radius left the float range."""


class InvalidConfig(GeometryError):
    """Configuration parameters outside their domain."""


class Frozen:
    """Immutable value over the slots named in ``_fields``.

    It has the semantics of a frozen dataclass: equality holds only
    between instances of the same class with equal field tuples, the
    hash is that of the field tuple, the repr is ``Name(f=v, ...)``, and
    assigning or deleting an attribute raises AttributeError.  A subclass
    lists its slots in ``__slots__`` and its fields in ``_fields``, and
    sets them in ``__init__`` with ``object.__setattr__``.  ``pickle`` and
    ``copy`` restore the slots directly, so ``__init__`` (which may
    normalise its arguments) does not run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # object.__reduce_ex__ hands a slotted instance's state over as
        # (None, {slot: value}).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Tolerance(Frozen):
    """Absolute/relative tolerance pair.

    A comparison at length scale ``L`` uses the threshold
    ``abs_eps + rel_eps * |L|``; see :meth:`bound`.  Every predicate and
    check of the package judges at DEFAULT_TOLERANCE; no caller sets
    another.
    """

    __slots__ = _fields = ("abs_eps", "rel_eps")

    def __init__(self, abs_eps: float = 1e-9, rel_eps: float = 1e-9):
        if not (abs_eps > 0.0 and rel_eps > 0.0):
            raise ValueError("tolerance components must be positive")
        object.__setattr__(self, "abs_eps", abs_eps)
        object.__setattr__(self, "rel_eps", rel_eps)

    def bound(self, scale: float = 0.0) -> float:
        """Comparison threshold at the given length scale."""
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOLERANCE = Tolerance()


class Point(Frozen):
    """Point in the Euclidean plane.  Coordinates must be finite."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFinite(f"non-finite point ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, f: float) -> "Point":
        return Point(self.x * f, self.y * f)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        return Point(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))


class Line(Frozen):
    """Line ``{(x, y) : a*x + b*y + c = 0}`` in normalized implicit form.

    The constructor accepts any nonzero ``(a, b)`` and normalizes so that
    ``a**2 + b**2 == 1`` and the first nonzero of ``(a, b)`` is positive.
    With a unit normal, ``a*x + b*y + c`` is the signed distance to the
    line, which keeps every residual in this package scale-honest.
    """

    __slots__ = _fields = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        n = math.hypot(a, b)
        if not (math.isfinite(n) and math.isfinite(c)):
            raise NonFinite(f"non-finite line ({a}, {b}, {c})")
        if n == 0.0:
            raise ValueError("line requires (a, b) != (0, 0)")
        a, b, c = a / n, b / n, c / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def signed_distance(self, p: Point) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def distance(self, p: Point) -> float:
        return abs(self.signed_distance(p))

    def contains(self, p: Point, scale: float = 0.0) -> bool:
        return self.distance(p) <= DEFAULT_TOLERANCE.bound(scale)

    def direction(self) -> Point:
        """Unit direction vector, sign-canonical (first nonzero positive)."""
        dx, dy = -self.b, self.a
        if dx < 0.0 or (dx == 0.0 and dy < 0.0):
            dx, dy = -dx, -dy
        return Point(dx, dy)

    def perpendicular_at(self, p: Point) -> "Line":
        """Line through p orthogonal to self."""
        return Line(-self.b, self.a, self.b * p.x - self.a * p.y)


class Circle(Frozen):
    """Circle with positive radius.  Point-circles are rejected."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: Point, radius: float):
        if not math.isfinite(radius):
            raise NonFinite(f"non-finite circle radius {radius}")
        if not radius > 0.0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


class Parabola(Frozen):
    """Vertical-axis parabola y = (x^2 - c) / (4 s), s != 0."""

    __slots__ = _fields = ("s", "c")

    def __init__(self, s: float, c: float = 0.0):
        if not (math.isfinite(s) and s != 0.0):
            raise InvalidConfig(f"parabola needs s != 0, got {s}")
        if not math.isfinite(c):
            raise InvalidConfig(f"parabola offset must be finite, got {c}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)

    def y_at(self, x: float) -> float:
        return (x * x - self.c) / (4.0 * self.s)

    def point_at(self, x: float) -> Point:
        return Point(x, self.y_at(x))

    def slope_at(self, x: float) -> float:
        return x / (2.0 * self.s)

    def tangent_at(self, x: float) -> Line:
        # Through (x, y(x)) with slope x/(2s): X*x - 2s*y - (x^2 + c)/2 = 0.
        return Line(x, -2.0 * self.s, -0.5 * (x * x + self.c))

    @property
    def vertex(self) -> Point:
        return Point(0.0, -self.c / (4.0 * self.s))

    @property
    def focus(self) -> Point:
        return Point(0.0, self.s - self.c / (4.0 * self.s))


def equidistant_chain(s: float, x0: float, d: float, m: int) -> list[Point]:
    """Vertices V_1..V_m of the equidistant Simson polygon (s, x0, d, n).

    V_i = (2 x0 + (2i - 1) d, (x0 + (i - 1) d)(x0 + i d) / s) is the meet
    of the perpendiculars at the feet x0 + (i - 1) d and x0 + i d; for
    m < n these vertices lie on Parabola(s, d^2).
    """
    return [Point(2.0 * x0 + (2 * i - 1) * d,
                  (x0 + (i - 1) * d) * (x0 + i * d) / s)
            for i in range(1, m + 1)]


def bbox_diagonal(points: Iterable[Point]) -> float:
    """Diagonal of the axis-aligned bounding box of a point set."""
    pts = list(points)
    if not pts:
        return 0.0
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def line_through(p: Point, q: Point) -> Line:
    """Line through two distinct points.

    Raises CoincidentPoints when p and q coincide under the tolerance at
    the scale of the inputs.
    """
    scale = max(p.norm(), q.norm())
    if p.distance(q) <= DEFAULT_TOLERANCE.bound(scale):
        raise CoincidentPoints(f"line_through: points coincide at {p}")
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def foot_of_perpendicular(p: Point, l: Line) -> Point:
    """Orthogonal projection of p onto l."""
    d = l.signed_distance(p)
    return Point(p.x - d * l.a, p.y - d * l.b)


def reflect_point(p: Point, l: Line) -> Point:
    """Mirror image of p across l."""
    d = l.signed_distance(p)
    return Point(p.x - 2.0 * d * l.a, p.y - 2.0 * d * l.b)


def reflect_line(m: Line, mirror: Line) -> Line:
    """Mirror image of the line m across the line mirror."""
    # q is on the image iff its mirror image q - 2*(n'.q + c')*n' is on m;
    # with k = 2*(n.n') that reads (n - k*n').q + (c - k*c') = 0.  The
    # coefficients are exact to rounding at any offset c.
    k = 2.0 * (m.a * mirror.a + m.b * mirror.b)
    return Line(m.a - k * mirror.a, m.b - k * mirror.b, m.c - k * mirror.c)


def lines_parallel(l1: Line, l2: Line) -> bool:
    """True when the normals are parallel.  Unit normals make the cross
    product the sine of the angle between the lines."""
    return abs(l1.a * l2.b - l2.a * l1.b) <= DEFAULT_TOLERANCE.bound(1.0)


def lines_equal(l1: Line, l2: Line) -> bool:
    if not lines_parallel(l1, l2):
        return False
    offset_scale = max(abs(l1.c), abs(l2.c))
    if l1.a * l2.a + l1.b * l2.b >= 0.0:
        return abs(l1.c - l2.c) <= DEFAULT_TOLERANCE.bound(offset_scale)
    return abs(l1.c + l2.c) <= DEFAULT_TOLERANCE.bound(offset_scale)


def line_intersection(l1: Line, l2: Line) -> Optional[Point]:
    """Crossing point of two lines, or None for distinct parallels.

    Raises IdenticalLines when the lines coincide under the tolerance.
    """
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) <= DEFAULT_TOLERANCE.bound(1.0):
        if lines_equal(l1, l2):
            raise IdenticalLines("line_intersection: lines coincide")
        return None
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def circumcircle(a: Point, b: Point, c: Point) -> Circle:
    """Circle through three points in general position.

    Raises CollinearInput when the points are collinear under the
    tolerance at the scale of their bounding box.
    """
    scale = bbox_diagonal([a, b, c])
    # Collinearity test via the height of c over line(a, b); symmetric
    # enough for a guard, the solve below is what actually fails.
    bx, by = b.x - a.x, b.y - a.y
    cx, cy = c.x - a.x, c.y - a.y
    d = 2.0 * (bx * cy - by * cx)
    base = max(math.hypot(bx, by), math.hypot(cx, cy), 1.0)
    if abs(d) <= 2.0 * DEFAULT_TOLERANCE.bound(scale) * base:
        raise CollinearInput(f"circumcircle: collinear input {a}, {b}, {c}")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(a.x + ux, a.y + uy)
    return Circle(center, math.hypot(ux, uy))


def point_on_circle(p: Point, c: Circle) -> bool:
    """Membership up to tolerance at the scale of the radius."""
    return (abs(p.distance(c.center) - c.radius)
            <= DEFAULT_TOLERANCE.bound(c.radius))


def circle_intersection(c1: Circle, c2: Circle) -> list[Point]:
    """Intersection points of two circles.

    Returns two points for a proper crossing, one point at tangency, and
    an empty list when the circles are disjoint.  Raises IdenticalCircles
    when the circles coincide under the tolerance.  The two-point case is
    ordered deterministically (radical axis orientation).
    """
    d = c1.center.distance(c2.center)
    scale = d + c1.radius + c2.radius
    eps = DEFAULT_TOLERANCE.bound(scale)
    if d <= eps and abs(c1.radius - c2.radius) <= eps:
        raise IdenticalCircles("circle_intersection: circles coincide")
    if d > c1.radius + c2.radius + eps:
        return []
    if d < abs(c1.radius - c2.radius) - eps:
        return []
    ux = (c2.center.x - c1.center.x) / d
    uy = (c2.center.y - c1.center.y) / d
    if abs(d - (c1.radius + c2.radius)) <= eps or \
            abs(d - abs(c1.radius - c2.radius)) <= eps:
        # Tangency: the touch point sits on the center line at distance r1
        # from c1; pick the side consistent with c2.
        cand1 = Point(c1.center.x + ux * c1.radius, c1.center.y + uy * c1.radius)
        cand2 = Point(c1.center.x - ux * c1.radius, c1.center.y - uy * c1.radius)
        if abs(cand1.distance(c2.center) - c2.radius) <= \
                abs(cand2.distance(c2.center) - c2.radius):
            return [cand1]
        return [cand2]
    a = (c1.radius ** 2 - c2.radius ** 2 + d * d) / (2.0 * d)
    h = math.sqrt(max(c1.radius ** 2 - a * a, 0.0))
    mx = c1.center.x + a * ux
    my = c1.center.y + a * uy
    return [Point(mx + h * uy, my - h * ux), Point(mx - h * uy, my + h * ux)]


def line_circle_intersection(l: Line, c: Circle) -> list[Point]:
    """Intersection points of a line and a circle (0, 1 or 2 points)."""
    d0 = l.signed_distance(c.center)
    eps = DEFAULT_TOLERANCE.bound(c.radius)
    if abs(d0) > c.radius + eps:
        return []
    foot = Point(c.center.x - d0 * l.a, c.center.y - d0 * l.b)
    if abs(d0) >= c.radius - eps:
        return [foot]
    h = math.sqrt(max(c.radius ** 2 - d0 * d0, 0.0))
    dx, dy = -l.b, l.a
    return [Point(foot.x + h * dx, foot.y + h * dy),
            Point(foot.x - h * dx, foot.y - h * dy)]


def best_fit_line(points: Sequence[Point]) -> Line:
    """Total least squares line through a point set.

    Minimizes the sum of squared perpendicular distances.  The principal
    direction comes from the closed-form eigenvector of the 2x2 scatter
    matrix, so there is no iteration and no linear algebra dependency.
    For a set of identical points any line through them is optimal; the
    horizontal one is returned.
    """
    if len(points) < 2:
        raise ValueError("best_fit_line needs at least two points")
    mx = sum(p.x for p in points) / len(points)
    my = sum(p.y for p in points) / len(points)
    sxx = sum((p.x - mx) ** 2 for p in points)
    syy = sum((p.y - my) ** 2 for p in points)
    sxy = sum((p.x - mx) * (p.y - my) for p in points)
    if sxx + syy == 0.0:
        return Line(0.0, 1.0, -my)
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    nx, ny = -math.sin(theta), math.cos(theta)
    return Line(nx, ny, -(nx * mx + ny * my))


def collinear(points: Sequence[Point]) -> bool:
    """Whether a point set is collinear under the tolerance.

    Criterion: the maximum distance from any point to the total least
    squares line through the set stays below the tolerance at the scale
    of the bounding box diagonal.  Scale awareness keeps the answer
    invariant under rigid motions and robust under uniform scaling.
    """
    if len(points) < 2:
        raise ValueError("collinear needs at least two points")
    fit = best_fit_line(points)
    residual = max(fit.distance(p) for p in points)
    return residual <= DEFAULT_TOLERANCE.bound(bbox_diagonal(points))


def angle_between_rays(u: Point, v: Point) -> float:
    """Unsigned angle between two direction vectors, in [0, pi]."""
    return math.atan2(abs(u.cross(v)), u.dot(v))


def angle_between_lines(u: Point, v: Point) -> float:
    """Angle between two undirected directions, in [0, pi/2]."""
    return math.atan2(abs(u.cross(v)), abs(u.dot(v)))
