"""Equidistant Simson polygons and their parabola structure.

The canonical frame places the Simson line L on the x-axis and the
Simson point at S = (0, s), s != 0.  With pedal feet X_i = (X + (i-1)*d, 0)
spaced by d > 0, the polygon closes up with vertices

    V_i = (2X + (2i-1)*d,  (X + (i-1)*d) * (X + i*d) / s)     i = 1..n-1

plus a closing vertex V_n cut out by the perpendiculars at X_n and X_1.
The first n-1 vertices lie on the parabola

    C : y = (x^2 - d^2) / (4 s)

independently of X, and the side midpoints lie on C' : y = x^2 / (4 s),
whose focus is exactly S.  The verify_* functions check the resulting
numeric identities (chord slope families, the reflected-ray optics of the
sides, the vertical median alignment, the isogonal angle property, and
the classical tangent-triangle circumcircle statement) on the polygon's
floating point data, so perturbed inputs fail honestly.

Index convention: the closed forms above are 1-based to match the vertex
labels V_1..V_n; the functions taking chord or side indices follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from statistics import fmean

from .kernel import (
    DEFAULT_TOLERANCE,
    AtInfinity,
    GeometryError,
    Line,
    Point,
    Tolerance,
    angle_between_lines,
    angle_between_rays,
    bbox_diagonal,
    circumcircle,
    line_intersection,
    reflect_point,
)
from .report import CheckResult, VerificationReport
from .simson import Polygon, SimsonCertificate


# The Simson line of the canonical frame, y = 0.
_X_AXIS = Line(0.0, 1.0, 0.0)


class InvalidConfig(GeometryError):
    """Configuration parameters outside their domain."""


class IndexOutOfRange(GeometryError):
    """Vertex or side index outside the valid 1-based range."""


class ParallelSides(GeometryError):
    """Side lines required to meet are parallel."""


@dataclass(frozen=True)
class EquidistantConfig:
    """Parameters (s, x0, delta, n) of an equidistant Simson polygon.

    s is the signed height of the Simson point over the Simson line,
    x0 the abscissa of the first pedal foot, delta the foot spacing and
    n the number of sides.
    """

    s: float
    x0: float
    delta: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s != 0.0):
            raise InvalidConfig(f"s must be nonzero and finite, got {self.s}")
        if not math.isfinite(self.x0):
            raise InvalidConfig(f"x0 must be finite, got {self.x0}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidConfig(f"delta must be positive, got {self.delta}")
        if not (isinstance(self.n, int) and self.n >= 3):
            raise InvalidConfig(f"n must be an integer >= 3, got {self.n}")

    def foot_abscissa(self, i: int) -> float:
        """x-coordinate of the i-th pedal foot, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"foot index {i} outside 1..{self.n}")
        return self.x0 + (i - 1) * self.delta


@dataclass(frozen=True)
class Parabola:
    """Vertical-axis parabola y = (x^2 - c) / (4 s), s != 0."""

    s: float
    c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s != 0.0):
            raise InvalidConfig(f"parabola needs s != 0, got {self.s}")
        if not math.isfinite(self.c):
            raise InvalidConfig(f"parabola offset must be finite, got {self.c}")

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


@dataclass(frozen=True)
class SimsonPolygonFrame:
    """Simson polygon data in the canonical frame (L = x-axis, S = (0, s)).

    projections[i] pairs with vertices so that side (V_i, V_{i+1})
    carries projections[i+1], wrapping; this matches the labeling of
    the construction module.  simson_line must be y = 0, i.e.
    Line(0, 1, 0), or InvalidConfig is raised: the verifiers read
    coordinates along L as x and heights over L as y.  The Simson point
    is not pinned to the y-axis, so an off-frame S can be tested.
    """

    vertices: tuple[Point, ...]
    projections: tuple[Point, ...]
    simson_point: Point
    simson_line: Line

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "projections", tuple(self.projections))
        if len(self.vertices) != len(self.projections):
            raise InvalidConfig("vertex and projection counts differ")
        if len(self.vertices) < 3:
            raise InvalidConfig("need at least 3 vertices")
        if self.simson_line != _X_AXIS:
            raise InvalidConfig(
                f"simson_line must be y = 0, got {self.simson_line}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def scale(self) -> float:
        return bbox_diagonal(list(self.vertices) + [self.simson_point])

    def polygon(self) -> Polygon:
        return Polygon(self.vertices)


@dataclass(frozen=True)
class EquidistantPolygon(SimsonPolygonFrame):
    """Frame data plus the generating equidistant configuration."""

    config: EquidistantConfig

    @property
    def chain(self) -> tuple[Point, ...]:
        """The parabola vertices V_1..V_{n-1} (closing vertex dropped)."""
        return self.vertices[:-1]


def foot_line(cfg: EquidistantConfig, i: int) -> Line:
    """Perpendicular to S X_i raised at X_i; the side line carrying X_i."""
    x = cfg.foot_abscissa(i)
    return Line(x, -cfg.s, -x * x)


def make_equidistant(cfg: EquidistantConfig) -> EquidistantPolygon:
    """Build the equidistant Simson polygon for cfg, in canonical frame.

    V_1..V_{n-1} come from the closed form; the closing vertex V_n is the
    meet of the perpendiculars at X_n and X_1, which for foot abscissae
    u, v is the point (u + v, u*v/s).
    """
    s, x0, d, n = cfg.s, cfg.x0, cfg.delta, cfg.n
    verts = [Point(2.0 * x0 + (2 * i - 1) * d,
                   (x0 + (i - 1) * d) * (x0 + i * d) / s)
             for i in range(1, n)]
    xn = cfg.foot_abscissa(n)
    x1 = cfg.foot_abscissa(1)
    verts.append(Point(xn + x1, xn * x1 / s))
    feet = tuple(Point(cfg.foot_abscissa(i), 0.0) for i in range(1, n + 1))
    return EquidistantPolygon(vertices=tuple(verts), projections=feet,
                              simson_point=Point(0.0, s),
                              simson_line=_X_AXIS, config=cfg)


def associated_parabola(cfg: EquidistantConfig) -> Parabola:
    """Parabola C carrying V_1..V_{n-1}; independent of x0."""
    return Parabola(cfg.s, cfg.delta * cfg.delta)


def midpoint_parabola(cfg: EquidistantConfig) -> Parabola:
    """Parabola C' carrying the side midpoints; its focus is S."""
    return Parabola(cfg.s, 0.0)


def chord_slope(cfg: EquidistantConfig, i: int, j: int) -> float:
    """Slope of the chord V_i V_j, 1 <= i < j <= n-1.

    Depends on i and j only through i + j, which is what makes the
    equal-sum chord families parallel.
    """
    if not (1 <= i < j <= cfg.n - 1):
        raise IndexOutOfRange(f"chord ({i}, {j}) outside 1 <= i < j <= {cfg.n - 1}")
    return (2.0 * cfg.x0 + (i + j - 1) * cfg.delta) / (2.0 * cfg.s)


def w_point(cfg: EquidistantConfig, i: int, j: int) -> Point:
    """Meet W_{i,j} of the side lines V_i V_{i+1} and V_j V_{j+1}.

    Valid for 1 <= i, j <= n-2, i != j.  Closed form
    (2X + (i+j) d, (X + i d)(X + j d)/s); note w_point(i, i+1) = V_{i+1}.
    """
    if i == j or not (1 <= i <= cfg.n - 2 and 1 <= j <= cfg.n - 2):
        raise IndexOutOfRange(
            f"w_point ({i}, {j}) outside 1 <= i != j <= {cfg.n - 2}")
    u = cfg.x0 + i * cfg.delta
    v = cfg.x0 + j * cfg.delta
    return Point(2.0 * cfg.x0 + (i + j) * cfg.delta, u * v / cfg.s)


def verify_parallel_chords(poly: EquidistantPolygon,
                           tol: Tolerance = DEFAULT_TOLERANCE
                           ) -> VerificationReport:
    """Chord family structure of the parabola vertices V_1..V_{n-1}.

    Three families of checks, all on numeric vertex data:

    * equal-sum chords V_i V_j (i + j fixed) are mutually parallel,
    * for even j - i the chord is parallel to the tangent of C at the
      middle vertex V_{(i+j)/2},
    * the midpoints of every equal-sum family line up orthogonally to L
      (equal x), the middle vertex included when the family has one.
    """
    report = VerificationReport()
    limit, angle_limit = report.set_limits(poly.scale(), tol)
    chain = poly.chain
    m = len(chain)
    s = poly.config.s
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            groups.setdefault(i + j, []).append((i, j))
    for sigma in sorted(groups):
        chords = groups[sigma]
        dirs = [chain[j - 1] - chain[i - 1] for i, j in chords]
        if len(chords) >= 2:
            residual = max(angle_between_lines(dirs[0], d) for d in dirs[1:])
            report.judge("parallel-chords", (sigma,), residual, angle_limit)
        for (i, j), d in zip(chords, dirs):
            if (j - i) % 2 == 0:
                mid = (i + j) // 2
                x_mid = chain[mid - 1].x
                tangent_dir = Point(2.0 * s, x_mid)
                residual = angle_between_lines(d, tangent_dir)
                report.judge("chord-tangent", (i, j, mid), residual,
                             angle_limit)
        coords = [chain[i - 1].midpoint(chain[j - 1]).x for i, j in chords]
        if sigma % 2 == 0 and 1 <= sigma // 2 <= m:
            coords.append(chain[sigma // 2 - 1].x)
        if len(coords) >= 2:
            residual = max(coords) - min(coords)
            report.judge("midpoints-aligned", (sigma,), residual, limit)
    return report


def verify_isogonal(poly: SimsonPolygonFrame,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> VerificationReport:
    """Discrete isogonal property at every vertex.

    With V' the mirror image of V_i across the Simson line, the angle
    V' V_i X_i equals the angle X_{i+1} V_i S.  Vertices lying on the
    Simson line (V' = V_i) and zero-length rays are skipped with a note.
    """
    report = VerificationReport()
    limit, angle_limit = report.set_limits(poly.scale(), tol)
    n = poly.n
    S = poly.simson_point
    for iv in range(n):
        v = poly.vertices[iv]
        label = (iv + 1,)
        if abs(v.y) <= limit:
            report.add(CheckResult("isogonal", label, 0.0, True,
                                   note="skipped: vertex on the simson line"))
            continue
        x_here = poly.projections[iv]
        x_next = poly.projections[(iv + 1) % n]
        rays = [Point(0.0, -2.0 * v.y), x_here - v, x_next - v, S - v]
        if min(r.norm() for r in rays) <= limit:
            report.add(CheckResult("isogonal", label, 0.0, True,
                                   note="skipped: degenerate ray"))
            continue
        a1 = angle_between_rays(rays[0], rays[1])
        a2 = angle_between_rays(rays[2], rays[3])
        residual = abs(a1 - a2)
        report.judge("isogonal", label, residual, angle_limit)
    return report


def verify_optical(poly: SimsonPolygonFrame,
                   tol: Tolerance = DEFAULT_TOLERANCE) -> VerificationReport:
    """Reflection property of the sides V_i V_{i+1}, i = 1..n-2.

    The line through the side midpoint orthogonal to L, reflected in the
    side, passes through S.  This is the discrete version of the focal
    property of C', which carries the midpoints.  Reflection is an
    isometry, so the distance from S to the reflected line is the
    distance from the mirror image of S in the side to the vertical
    x = x(midpoint); no line is built at the polygon's offset.
    """
    report = VerificationReport()
    limit, _ = report.set_limits(poly.scale(), tol)
    S = poly.simson_point
    verts = poly.vertices
    sides = poly.polygon().side_lines()
    for i in range(1, poly.n - 1):
        mid = verts[i - 1].midpoint(verts[i])
        residual = abs(reflect_point(S, sides[i - 1]).x - mid.x)
        report.judge("optical", (i,), residual, limit)
    return report


def verify_archimedes(poly: SimsonPolygonFrame,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> VerificationReport:
    """Median alignment of the side-line meets, n >= 5.

    For 1 <= i < j <= n-2 the meet W_{i,j} of the side lines V_i V_{i+1}
    and V_j V_{j+1} lines up orthogonally to L with the chord midpoints
    M(V_i, V_{j+1}) and M(V_{i+1}, V_j).  On top of the per-pair checks,
    all W with index sum sigma and all midpoints with index sum sigma+1
    share one such orthogonal line, checked per family.
    """
    report = VerificationReport()
    if poly.n < 5:
        raise InvalidConfig("verify_archimedes needs n >= 5")
    limit, _ = report.set_limits(poly.scale(), tol)
    verts = poly.vertices
    n = poly.n
    # sides[i - 1] is the line V_i V_{i+1}, built once for all pairs.
    sides = poly.polygon().side_lines()

    def meet_coord(i: int, j: int) -> float:
        cross = line_intersection(sides[i - 1], sides[j - 1], tol)
        if isinstance(cross, AtInfinity):
            raise ParallelSides(f"side lines {i} and {j} are parallel")
        return cross.point.x

    def mid_coord(i: int, j: int) -> float:
        return verts[i - 1].midpoint(verts[j - 1]).x

    w_families: dict[int, list[float]] = {}
    m_families: dict[int, list[float]] = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            w = meet_coord(i, j)
            w_families.setdefault(i + j, []).append(w)
            coords = [w, mid_coord(i, j + 1), mid_coord(i + 1, j)]
            residual = max(coords) - min(coords)
            report.judge("archimedes", (i, j), residual, limit)
    for c in range(1, n):
        for d in range(c, n):
            m_families.setdefault(c + d, []).append(
                verts[c - 1].x if c == d else mid_coord(c, d))
    for sigma, ws in sorted(w_families.items()):
        coords = ws + m_families.get(sigma + 1, [])
        if len(coords) >= 2:
            residual = max(coords) - min(coords)
            report.judge("archimedes-family", (sigma,), residual, limit)
    return report


def verify_lambert(poly: SimsonPolygonFrame, i: int, j: int, k: int,
                   tol: Tolerance = DEFAULT_TOLERANCE) -> VerificationReport:
    """Circumcircle of the triangle cut out by three side lines hits S.

    Sides are 1-based; side n joins V_n back to V_1.  This is the
    discrete analogue of Lambert's theorem on parabola tangents and it
    holds for any Simson polygon, not only equidistant ones.
    """
    report = VerificationReport()
    n = poly.n
    idx = (i, j, k)
    if len(set(idx)) != 3 or not all(1 <= t <= n for t in idx):
        raise IndexOutOfRange(f"need three distinct sides in 1..{n}, got {idx}")
    sides = poly.polygon().side_lines()
    corners = []
    for t1, t2 in combinations(idx, 2):
        cross = line_intersection(sides[t1 - 1], sides[t2 - 1], tol)
        if isinstance(cross, AtInfinity):
            raise ParallelSides(f"side lines {t1} and {t2} are parallel")
        corners.append(cross.point)
    circle = circumcircle(*corners, tol=tol)
    residual = abs(poly.simson_point.distance(circle.center) - circle.radius)
    scale = poly.scale()
    report.set_limits(scale, tol)
    # The circle may be far larger than the polygon.
    limit = report.tolerances["lambert_limit"] = tol.bound(
        max(circle.radius, scale))
    report.judge("lambert", idx, residual, limit)
    return report


@dataclass(frozen=True)
class CanonicalFrame:
    """Rigid motion taking a (Simson point, Simson line) pair to frame.

    to_frame rotates the line direction onto the x-axis and translates so
    the line becomes y = 0 with the point at (0, s).
    """

    cos_t: float
    sin_t: float
    shift_x: float
    shift_y: float

    @classmethod
    def of(cls, s_point: Point, line: Line) -> "CanonicalFrame":
        d = line.direction()
        cos_t, sin_t = d.x, d.y
        # Rotation by -angle(d): p -> (c*x + s*y, -s*x + c*y).
        on_line = Point(-line.c * line.a, -line.c * line.b)
        line_y = -sin_t * on_line.x + cos_t * on_line.y
        s_x = cos_t * s_point.x + sin_t * s_point.y
        return cls(cos_t, sin_t, s_x, line_y)

    def to_frame(self, p: Point) -> Point:
        rx = self.cos_t * p.x + self.sin_t * p.y
        ry = -self.sin_t * p.x + self.cos_t * p.y
        return Point(rx - self.shift_x, ry - self.shift_y)

    def from_frame(self, p: Point) -> Point:
        rx = p.x + self.shift_x
        ry = p.y + self.shift_y
        return Point(self.cos_t * rx - self.sin_t * ry,
                     self.sin_t * rx + self.cos_t * ry)


def frame_from_certificate(poly: Polygon,
                           cert: SimsonCertificate) -> SimsonPolygonFrame:
    """Map a certified Simson polygon into the canonical frame.

    The certificate's pedals are in side order; the frame labeling wants
    projections[i] on the side line through V_{i-1} V_i, which is the
    same sequence rotated right by one.
    """
    frame = CanonicalFrame.of(cert.simson_point, cert.simson_line)
    verts = tuple(frame.to_frame(v) for v in poly.vertices)
    pedals = cert.projections
    feet = (pedals[-1],) + pedals[:-1]
    feet = tuple(frame.to_frame(f) for f in feet)
    s = frame.to_frame(cert.simson_point)
    return SimsonPolygonFrame(vertices=verts, projections=feet,
                              simson_point=Point(0.0, s.y),
                              simson_line=_X_AXIS)


def equidistant_from_frame(fp: SimsonPolygonFrame,
                           tol: Tolerance = DEFAULT_TOLERANCE
                           ) -> EquidistantPolygon:
    """Recognize frame data as an equidistant polygon.

    Requires the feet to march monotonically along the line with equal
    spacing (up to tolerance).  A descending march is mirrored, which is
    another rigid motion of the frame.  Raises InvalidConfig otherwise.
    """
    xs = [f.x for f in fp.projections]
    vertices = fp.vertices
    feet = fp.projections
    if len(xs) >= 2 and xs[-1] < xs[0]:
        vertices = tuple(Point(-v.x, v.y) for v in vertices)
        feet = tuple(Point(-f.x, f.y) for f in feet)
        xs = [-x for x in xs]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    scale = fp.scale()
    if min(gaps) <= 0.0:
        raise InvalidConfig("feet do not march monotonically along the line")
    delta = fmean(gaps)
    if max(abs(g - delta) for g in gaps) > tol.bound(scale):
        raise InvalidConfig("feet are not equally spaced")
    cfg = EquidistantConfig(s=fp.simson_point.y, x0=xs[0], delta=delta,
                            n=len(xs))
    return EquidistantPolygon(vertices=vertices, projections=feet,
                              simson_point=fp.simson_point,
                              simson_line=fp.simson_line, config=cfg)
