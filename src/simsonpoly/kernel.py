"""2D primitives: points, lines, circles, parabolas, and the tolerance.

Everything downstream is built on the handful of constructions in this
module (perpendicular feet, reflections, circumcircles, line meets).
The approach is exact-formula-first: operations evaluate closed forms in
floating point and every predicate decides with the package's one
relative tolerance REL_EPS, at the threshold ``bound(scale)`` =
REL_EPS * |scale| for a length scale of its data.
There is no exact rational fallback; degeneracies are reported through
the error types below instead of being silently absorbed.
Results are plain values: a point, a line, a circle, a list of points, or
None where the construction has no finite answer (parallel lines).  The
module is pure Python on ``math`` alone.
"""

from __future__ import annotations

import math


class UsageError(ValueError):
    """Base class for malformed input, such as an index out of range."""


class GeometryError(ValueError):
    """Base class for geometric failure modes raised by this package."""


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide under the tolerance."""


class CollinearInput(GeometryError):
    """Three points expected to be in general position are collinear."""


class NonFinite(GeometryError):
    """A coordinate, coefficient or radius left the float range."""


class InvalidConfig(GeometryError):
    """Configuration parameters outside their domain."""


class DegenerateConfiguration(GeometryError):
    """Input is too degenerate for the requested construction, such as
    two lines that must meet being parallel."""


class Frozen:
    """Immutable value over the slots named in ``_fields``.

    It has the semantics of a frozen dataclass: equality holds only
    between instances of the same class with equal field tuples, the
    hash is that of the field tuple, the repr is ``Name(f=v, ...)``, and
    assigning or deleting an attribute raises AttributeError.  A subclass
    lists its slots in ``__slots__`` and its fields in ``_fields``, and
    stores them at the end of ``__init__`` with ``_set``.  ``pickle`` and
    ``copy`` restore the slots directly, so ``__init__`` (which may
    normalise its arguments) does not run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Store values into the fields named by ``_fields``, in order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

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


REL_EPS = 1e-9
"""The package's one relative tolerance: every predicate and check judges
at ``bound(L)`` for a length scale L of its data, a ratio at L = 1."""


def bound(scale: float) -> float:
    """Comparison threshold at the given length scale: REL_EPS * |scale|."""
    return REL_EPS * abs(scale)

MAX_SEGMENTS = 2 ** 14


class TooManySegments(UsageError):
    """More than MAX_SEGMENTS segments in the finest chain of a convergence
    table (the chain over [-w, w] at spacing 2^-m_max has 2 w 2^m_max of
    them) or in the knot grid of an approximation problem."""


class Point(Frozen):
    """Point in the Euclidean plane.  Coordinates must be finite."""

    __slots__ = _fields = ("x", "y")

    # Stores directly, not by _set, which nearly doubles the cost of a point.
    def __init__(self, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFinite(f"non-finite point ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

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

    # Stores directly, not by _set: the search builds thousands of lines.
    def __init__(self, a: float, b: float, c: float):
        n = math.hypot(a, b)
        if not (math.isfinite(n) and math.isfinite(c)):
            raise NonFinite(f"non-finite line ({a}, {b}, {c})")
        if n == 0.0:
            raise InvalidConfig("line requires (a, b) != (0, 0)")
        # A tiny normal can carry a finite c past the float range.
        if not math.isfinite(c / n):
            raise NonFinite(f"non-finite line ({a}, {b}, {c})")
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

    def direction(self) -> Point:
        """Unit direction vector, sign-canonical (first nonzero positive)."""
        dx, dy = -self.b, self.a
        if dx < 0.0 or (dx == 0.0 and dy < 0.0):
            dx, dy = -dx, -dy
        return Point(dx, dy)


class Circle(Frozen):
    """Circle with positive radius.  Point-circles are rejected."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: Point, radius: float):
        if not math.isfinite(radius):
            raise NonFinite(f"non-finite circle radius {radius}")
        if not radius > 0.0:
            raise InvalidConfig(f"circle radius must be positive, got {radius}")
        self._set(center, radius)

    def distance(self, p: Point) -> float:
        """Distance of p from the circle, as ``Line.distance`` for a line."""
        return abs(p.distance(self.center) - self.radius)


def require_height(s: float) -> None:
    """Raise InvalidConfig unless the height s is nonzero and finite."""
    if not (math.isfinite(s) and s != 0.0):
        raise InvalidConfig(f"s must be nonzero and finite, got {s}")


class Parabola(Frozen):
    """Vertical-axis parabola y = (x^2 - c) / (4 s), s != 0."""

    __slots__ = _fields = ("s", "c")

    def __init__(self, s: float, c: float):
        require_height(s)
        if not math.isfinite(c):
            raise InvalidConfig(f"parabola offset must be finite, got {c}")
        self._set(s, c)

    def y_at(self, x: float) -> float:
        return (x * x - self.c) / (4.0 * self.s)


def equidistant_chain(s: float, x0: float, d: float,
                      m: int) -> tuple[list[float], list[float]]:
    """Abscissae and ordinates of the vertices V_1..V_m of the equidistant
    Simson polygon (s, x0, d, n).

    V_i = (2 x0 + (2i - 1) d, (x0 + (i - 1) d)(x0 + i d) / s) is the meet
    of the perpendiculars at the feet x0 + (i - 1) d and x0 + i d; for
    m < n these vertices lie on Parabola(s, d^2).

    Each foot and s are split into a mantissa and a power of two before
    the product of two feet, and each y is scaled back once.  Power-of-two
    scaling commutes with rounding, so the bits are the plain formula's
    wherever its values are normal floats, and no product or quotient
    underflows or overflows on the way.  A y beyond the float range
    raises NonFinite; the x values are not checked.
    """
    t, f = math.frexp(s)
    feet = [math.frexp(x0 + i * d) for i in range(m + 1)]
    try:
        ys = [math.ldexp(a * b / t, ea + eb - f)
              for (a, ea), (b, eb) in zip(feet, feet[1:])]
    except OverflowError:
        raise NonFinite("equidistant vertex beyond the float range") from None
    return [2.0 * x0 + (2 * i - 1) * d for i in range(1, m + 1)], ys


def bbox_diagonal(points: Sequence[Point]) -> float:
    """Diagonal of the axis-aligned bounding box of a non-empty point set."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def join_points(p: Point, q: Point) -> Line:
    """Line through p and q, which the caller has proved distinct."""
    return Line(p.y - q.y, q.x - p.x, p.x * q.y - q.x * p.y)


def line_through(p: Point, q: Point) -> Line:
    """Line through two distinct points.

    Raises CoincidentPoints when p and q coincide under the tolerance at
    the scale of the inputs.
    """
    scale = max(p.norm(), q.norm())
    if p.distance(q) <= bound(scale):
        raise CoincidentPoints(f"line_through: points coincide at {p}")
    return join_points(p, q)


def foot_of_perpendicular(p: Point, l: Line) -> Point:
    """Orthogonal projection of p onto l."""
    d = l.signed_distance(p)
    return Point(p.x - d * l.a, p.y - d * l.b)


def reflect_point(p: Point, l: Line) -> Point:
    """Mirror image of p across l."""
    d = l.signed_distance(p)
    return Point(p.x - 2.0 * d * l.a, p.y - 2.0 * d * l.b)


def line_intersection(l1: Line, l2: Line) -> Point | None:
    """Crossing point of two lines, or None when they are parallel.

    Coincident lines count as parallel: two lines carry no length scale
    (their offsets measure the distance from the origin), so a caller
    that must tell them apart judges at the scale of its own data.
    """
    # Unit normals make det the sine of the angle between the lines.
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) <= bound(1.0):
        return None
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def circumcircle(a: Point, b: Point, c: Point) -> Circle:
    """Circle through three points in general position.

    Raises CollinearInput when the points are collinear under the
    tolerance at the scale of their bounding box.
    """
    bx, by = b.x - a.x, b.y - a.y
    cx, cy = c.x - a.x, c.y - a.y
    # Exact power-of-two scaling keeps the cubic solve in the float range.
    e = -math.frexp(max(abs(bx), abs(by), abs(cx), abs(cy)))[1]
    bx, by = math.ldexp(bx, e), math.ldexp(by, e)
    cx, cy = math.ldexp(cx, e), math.ldexp(cy, e)
    scale = math.ldexp(bbox_diagonal([a, b, c]), e)
    # Collinearity test via the height of c over line(a, b); symmetric
    # enough for a guard, the solve below is what actually fails.
    d = 2.0 * (bx * cy - by * cx)
    base = max(math.hypot(bx, by), math.hypot(cx, cy))
    if abs(d) <= 2.0 * bound(scale) * base:
        raise CollinearInput(f"circumcircle: collinear input {a}, {b}, {c}")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    center = Point(a.x + math.ldexp(ux, -e), a.y + math.ldexp(uy, -e))
    return Circle(center, math.ldexp(math.hypot(ux, uy), -e))


def best_fit_line(points: Sequence[Point]) -> Line:
    """Total least squares line through a point set.

    Minimizes the sum of squared perpendicular distances.  The principal
    direction comes from the closed-form eigenvector of the 2x2 scatter
    matrix, so there is no iteration and no linear algebra dependency.
    For a set of identical points any line through them is optimal; the
    horizontal one is returned.  The offsets from the centroid are scaled
    by the power of two of their extent before the sums, so no square
    leaves the float range and the fit commutes exactly with scaling by
    a power of two.  Every sum is ``math.fsum``, correctly rounded, so
    the fit does not depend on the order of the points nor on the
    Python version (``sum`` of floats compensates from 3.12 on).
    Raises NonFinite when a coordinate sum leaves the float range.
    """
    if len(points) < 2:
        raise UsageError("best_fit_line needs at least two points")
    try:
        mx = math.fsum(p.x for p in points) / len(points)
        my = math.fsum(p.y for p in points) / len(points)
    except OverflowError:
        raise NonFinite("best_fit_line: the coordinate sum leaves the "
                        "float range") from None
    dx = [p.x - mx for p in points]
    dy = [p.y - my for p in points]
    e = -math.frexp(max(map(abs, dx + dy)))[1]
    dx = [math.ldexp(u, e) for u in dx]
    dy = [math.ldexp(v, e) for v in dy]
    sxx = math.fsum(u * u for u in dx)
    syy = math.fsum(v * v for v in dy)
    sxy = math.fsum(u * v for u, v in zip(dx, dy))
    if sxx + syy == 0.0:
        return Line(0.0, 1.0, -my)
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    nx, ny = -math.sin(theta), math.cos(theta)
    return Line(nx, ny, -(nx * mx + ny * my))


def angle_between_rays(u: Point, v: Point) -> float:
    """Unsigned angle between two direction vectors, in [0, pi]."""
    return math.atan2(abs(u.cross(v)), u.dot(v))
