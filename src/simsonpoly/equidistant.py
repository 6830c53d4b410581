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
from itertools import combinations

from .kernel import (
    DegenerateConfiguration,
    Frozen,
    InvalidConfig,
    Line,
    Parabola,
    Point,
    UsageError,
    angle_between_rays,
    bbox_diagonal,
    bound,
    circumcircle,
    equidistant_chain,
    line_intersection,
    reflect_point,
    require_height,
)
from .report import VerificationReport
from .simson import IndexOutOfRange, Polygon, SimsonCertificate, check_triple


class EquidistantConfig(Frozen):
    """Parameters (s, x0, delta, n) of an equidistant Simson polygon.

    s is the signed height of the Simson point over the Simson line,
    x0 the abscissa of the first pedal foot, delta the foot spacing and
    n the number of sides.
    """

    __slots__ = _fields = ("s", "x0", "delta", "n")

    def __init__(self, s: float, x0: float, delta: float, n: int):
        require_height(s)
        if not math.isfinite(x0):
            raise InvalidConfig(f"x0 must be finite, got {x0}")
        if not (math.isfinite(delta) and delta > 0.0):
            raise InvalidConfig(f"delta must be positive, got {delta}")
        if not (isinstance(n, int) and n >= 3):
            raise UsageError(f"n must be an integer >= 3, got {n}")
        self._set(s, x0, delta, n)

    def foot_abscissa(self, i: int) -> float:
        """x-coordinate of the i-th pedal foot, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"foot index {i} outside 1..{self.n}")
        return self.x0 + (i - 1) * self.delta


class SimsonPolygonFrame(Frozen):
    """Simson polygon data in the canonical frame (L = x-axis, S = (0, s)).

    projections[i] pairs with vertices so that side (V_i, V_{i+1})
    carries projections[i+1], wrapping; this matches the labeling of
    the construction module.  The Simson line is y = 0 by construction
    of the frame: the verifiers read coordinates along L as x and heights
    over L as y.  The Simson point is not pinned to the y-axis, so an
    off-frame S can be tested.
    """

    __slots__ = _fields = ("vertices", "projections", "simson_point")

    def __init__(self, vertices: Sequence[Point],
                 projections: Sequence[Point], simson_point: Point):
        vertices, projections = tuple(vertices), tuple(projections)
        if len(vertices) != len(projections):
            raise InvalidConfig("vertex and projection counts differ")
        if len(vertices) < 3:
            raise UsageError("need at least 3 vertices")
        self._set(vertices, projections, simson_point)

    @property
    def simson_line(self) -> Line:
        """The Simson line L, y = 0 in every frame."""
        return Line(0.0, 1.0, 0.0)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def scale(self) -> float:
        return bbox_diagonal(list(self.vertices) + [self.simson_point])

    def polygon(self) -> Polygon:
        return Polygon(self.vertices)


def make_equidistant(cfg: EquidistantConfig) -> SimsonPolygonFrame:
    """Build the equidistant Simson polygon for cfg, in canonical frame.

    V_1..V_{n-1} come from the closed form; the closing vertex V_n is the
    meet of the perpendiculars at X_n and X_1, which for foot abscissae
    u, v is the point (u + v, u*v/s).  Its y is the chain's formula over
    the two feet x0 and x0 + (n - 1) delta.
    """
    s, x0, d, n = cfg.s, cfg.x0, cfg.delta, cfg.n
    verts = [Point(x, y) for x, y in zip(*equidistant_chain(s, x0, d, n - 1))]
    xn = cfg.foot_abscissa(n)
    x1 = cfg.foot_abscissa(1)
    (_,), (closing_y,) = equidistant_chain(s, x0, (n - 1) * d, 1)
    verts.append(Point(xn + x1, closing_y))
    feet = tuple(Point(cfg.foot_abscissa(i), 0.0) for i in range(1, n + 1))
    return SimsonPolygonFrame(vertices=tuple(verts), projections=feet,
                              simson_point=Point(0.0, s))


def associated_parabola(cfg: EquidistantConfig) -> Parabola:
    """Parabola C carrying V_1..V_{n-1}; independent of x0."""
    return Parabola(cfg.s, cfg.delta * cfg.delta)


def midpoint_parabola(cfg: EquidistantConfig) -> Parabola:
    """Parabola C' carrying the side midpoints; its focus is S."""
    return Parabola(cfg.s, 0.0)


def _index_sums(count: int):
    """Each sum sigma of the index pairs 1 <= i < j <= count, with the
    range of i over the pairs (i, sigma - i), increasing."""
    for sigma in range(3, 2 * count):
        yield sigma, range(max(1, sigma - count), (sigma - 1) // 2 + 1)


def verify_parallel_chords(poly: SimsonPolygonFrame) -> VerificationReport:
    """Chord family structure of the parabola vertices V_1..V_{n-1}.

    Three families of checks, all on numeric vertex data:

    * equal-sum chords V_i V_j (i + j fixed) are mutually parallel,
    * for even j - i the chord is parallel to the tangent of C at the
      middle vertex V_{(i+j)/2}, with s the height of the Simson point,
    * the midpoints of every equal-sum family line up orthogonally to L
      (equal x), the middle vertex included when the family has one.

    Each family keeps one residual per index sum, chord-tangent the worst
    angle of its chords.  The chain is read once as halved coordinates,
    and each chord has one direction angle, atan2 of its halved
    differences; the tangent at V_m has atan2(x_m / 2, s), which is
    atan2(x_m, 2s).  A halved difference of finite floats cannot
    overflow, and atan2 does not depend on scale, so a chord of any
    length keeps its direction; a chord of length zero has the angle 0.
    An angle residual is the largest difference from the family's
    reference angle, folded into [0, pi/2].  Raises NonFinite when the
    frame's scale is not finite.
    """
    report = VerificationReport()
    limit, angle_limit = report.set_limits(poly.scale())
    xs = [0.5 * v.x for v in poly.vertices[:-1]]
    ys = [0.5 * v.y for v in poly.vertices[:-1]]
    s = poly.simson_point.y
    atan2, pi, half_pi = math.atan2, math.pi, 0.5 * math.pi

    def widest(ref, angles):
        """The largest angle in [0, pi/2] between the lines at ref and at
        each of angles: pi/2 less the distance of a turn mod pi from pi/2."""
        return half_pi - min([abs(abs(a - ref) % pi - half_pi)
                              for a in angles])

    par_res, tan_res, mid_res = [], [], []
    # The chords V_i V_j with i + j = sigma and i < j, by increasing i.
    for sigma, i_range in _index_sums(len(xs)):
        angles = [atan2(ys[sigma - i - 1] - ys[i - 1],
                        xs[sigma - i - 1] - xs[i - 1]) for i in i_range]
        coords = [xs[i - 1] + xs[sigma - i - 1] for i in i_range]
        if len(angles) >= 2:
            par_res.append(widest(angles[0], angles[1:]))
        if sigma % 2 == 0:
            # j - i is even: compare with the tangent at V_{sigma/2}.
            tan_res.append(widest(atan2(xs[sigma // 2 - 1], s), angles))
            coords.append(poly.vertices[sigma // 2 - 1].x)
        if len(coords) >= 2:
            mid_res.append(max(coords) - min(coords))
    # The sums with two chords run from 5, the even sums and those with
    # two midpoints from 4, each up to its last sum.
    report.judge("parallel-chords", par_res, lambda k: (k + 5,), angle_limit)
    report.judge("chord-tangent", tan_res, lambda k: (2 * k + 4,),
                 angle_limit)
    report.judge("midpoints-aligned", mid_res, lambda k: (k + 4,), limit)
    return report


def verify_isogonal(poly: SimsonPolygonFrame) -> VerificationReport:
    """Discrete isogonal property at every vertex.

    With V' the mirror image of V_i across the Simson line, the angle
    V' V_i X_i equals the angle X_{i+1} V_i S.  Vertices lying on the
    Simson line (V' = V_i) and vertices with a zero-length ray are
    skipped: their residual is 0 and the note names them.
    """
    report = VerificationReport()
    limit, angle_limit = report.set_limits(poly.scale())
    n = poly.n
    S = poly.simson_point
    skipped: dict[str, list[str]] = {}
    residuals = []
    for iv in range(n):
        v = poly.vertices[iv]
        residuals.append(0.0)
        if abs(v.y) <= limit:
            skipped.setdefault("vertex on the simson line", []).append(
                str(iv + 1))
            continue
        x_here = poly.projections[iv]
        x_next = poly.projections[(iv + 1) % n]
        rays = [Point(0.0, -2.0 * v.y), x_here - v, x_next - v, S - v]
        if min(r.norm() for r in rays) <= limit:
            skipped.setdefault("degenerate ray", []).append(str(iv + 1))
            continue
        a1 = angle_between_rays(rays[0], rays[1])
        a2 = angle_between_rays(rays[2], rays[3])
        residuals[-1] = abs(a1 - a2)
    note = "; ".join(f"skipped: {why} at {', '.join(at)}"
                     for why, at in skipped.items())
    report.judge("isogonal", residuals, lambda k: (k + 1,), angle_limit,
                 note)
    return report


def verify_optical(poly: SimsonPolygonFrame) -> VerificationReport:
    """Reflection property of the sides V_i V_{i+1}, i = 1..n-2.

    The line through the side midpoint orthogonal to L, reflected in the
    side, passes through S.  This is the discrete version of the focal
    property of C', which carries the midpoints.  Reflection is an
    isometry, so the distance from S to the reflected line is the
    distance from the mirror image of S in the side to the vertical
    x = x(midpoint); no line is built at the polygon's offset.
    """
    report = VerificationReport()
    limit, _ = report.set_limits(poly.scale())
    S = poly.simson_point
    verts = poly.vertices
    sides = poly.polygon().side_lines()
    residuals = []
    for i in range(1, poly.n - 1):
        mid = verts[i - 1].midpoint(verts[i])
        residuals.append(abs(reflect_point(S, sides[i - 1]).x - mid.x))
    report.judge("optical", residuals, lambda k: (k + 1,), limit)
    return report


def verify_archimedes(poly: SimsonPolygonFrame) -> VerificationReport:
    """Median alignment of the side-line meets, n >= 5.

    For 1 <= i < j <= n-2 the meet W_{i,j} of the side lines V_i V_{i+1}
    and V_j V_{j+1} lines up orthogonally to L with the chord midpoints
    M(V_i, V_{j+1}) and M(V_{i+1}, V_j).  All W with index sum sigma and
    all midpoints with index sum sigma+1 share one such orthogonal line,
    checked once per sigma; it holds the three points of each pair.

    A meet is computed as ``line_intersection`` computes it, with the
    same guard on the determinant; of the side lines that do not cross,
    the first pair (i, j) in lexicographic order is reported.
    """
    report = VerificationReport()
    if poly.n < 5:
        raise InvalidConfig("verify_archimedes needs n >= 5")
    limit, _ = report.set_limits(poly.scale())
    xs = [v.x for v in poly.vertices]
    # sides[i - 1] is the line V_i V_{i+1}.
    sides = poly.polygon().side_lines()
    a = [line.a for line in sides]
    b = [line.b for line in sides]
    c = [line.c for line in sides]
    parallel = bound(1.0)
    parallel_pairs, residuals = [], []
    for sigma, i_range in _index_sums(poly.n - 2):
        ws = []
        for i in i_range:
            j = sigma - i
            det = a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]
            if abs(det) <= parallel:
                parallel_pairs.append((i, j))
            else:
                ws.append((b[i - 1] * c[j - 1] - b[j - 1] * c[i - 1]) / det)
        if parallel_pairs:
            continue
        # The midpoints M(V_k, V_l), k <= l, with k + l = sigma + 1; the
        # vertex V_k itself when k = l.
        coords = [xs[k - 1] if 2 * k == sigma + 1
                  else 0.5 * (xs[k - 1] + xs[sigma - k])
                  for k in range(i_range.start, i_range.stop + 1)]
        residuals.append(max(*ws, *coords) - min(*ws, *coords))
    if parallel_pairs:
        i, j = min(parallel_pairs)
        raise DegenerateConfiguration(f"side lines {i} and {j} are parallel")
    report.judge("archimedes-family", residuals, lambda k: (k + 3,), limit)
    return report


def verify_lambert(poly: SimsonPolygonFrame, i: int, j: int,
                   k: int) -> VerificationReport:
    """Circumcircle of the triangle cut out by three side lines hits S.

    Sides are 1-based; side n joins V_n back to V_1.  This is the
    discrete analogue of Lambert's theorem on parabola tangents and it
    holds for any Simson polygon, not only equidistant ones.
    """
    report = VerificationReport()
    idx = (i, j, k)
    check_triple(poly.n, idx)
    polygon = poly.polygon()
    sides = {t: polygon.side_line(t - 1) for t in idx}
    corners = []
    for t1, t2 in combinations(idx, 2):
        cross = line_intersection(sides[t1], sides[t2])
        if cross is None:
            raise DegenerateConfiguration(f"side lines {t1} and {t2} are parallel")
        corners.append(cross)
    circle = circumcircle(*corners)
    residual = circle.distance(poly.simson_point)
    scale = poly.scale()
    report.set_limits(scale)
    # The circle may be far larger than the polygon.
    report.judge("lambert", [residual], lambda k: idx,
                 bound(max(circle.radius, scale)))
    return report


def frame_from_certificate(poly: Polygon,
                           cert: SimsonCertificate) -> SimsonPolygonFrame:
    """Map a certified Simson polygon into the canonical frame.

    The rigid motion is one rotation about the Simson point S: with d
    the line's canonical direction and d' = (-d.y, d.x), p maps to
    (d.(p - S), h + d'.(p - S)), where h is S's signed height over the
    line along d'.  Only h is computed from input coordinates; the
    rotation acts on differences from S, so it is the same map in any
    translated coordinates.  verify passes the search's polygon and
    certificate, which are centred on the polygon's bounding box, so no
    rounding at the size of that centre enters.  The certificate's
    pedals are in side order; the frame labeling wants projections[i]
    on the side line through V_{i-1} V_i: the same sequence rotated
    right by one.
    """
    line, s = cert.simson_line, cert.simson_point
    d = line.direction()
    # d' is (a, b) or -(a, b); signed_distance measures along (a, b).
    h = line.signed_distance(s)
    if d.x * line.b - d.y * line.a < 0.0:
        h = -h

    def to_frame(p: Point) -> Point:
        x, y = p.x - s.x, p.y - s.y
        return Point(d.x * x + d.y * y, h + (d.x * y - d.y * x))

    pedals = cert.projections
    return SimsonPolygonFrame(
        vertices=tuple(to_frame(v) for v in poly.vertices),
        projections=tuple(to_frame(f) for f in pedals[-1:] + pedals[:-1]),
        simson_point=Point(0.0, h))


def equidistant_from_frame(fp: SimsonPolygonFrame) -> SimsonPolygonFrame:
    """Recognize frame data as an equidistant polygon, in the same frame.

    Requires the feet to march monotonically along the line with equal
    spacing (up to tolerance), and S off the line.  The labels are first
    rotated to start after the longest step between cyclically adjacent
    feet, which is the one step against the march when the polygon is
    listed from another vertex or in reverse.  A descending march is
    then mirrored, which is another rigid motion of the frame.  Raises
    InvalidConfig otherwise.
    """
    xs = [f.x for f in fp.projections]
    k = max(range(len(xs)), key=lambda i: abs(xs[i] - xs[i - 1]))
    vertices = fp.vertices[k:] + fp.vertices[:k]
    feet = fp.projections[k:] + fp.projections[:k]
    xs = xs[k:] + xs[:k]
    if xs[-1] < xs[0]:
        vertices = tuple(Point(-v.x, v.y) for v in vertices)
        feet = tuple(Point(-f.x, f.y) for f in feet)
        xs = [-x for x in xs]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    if min(gaps) <= 0.0:
        raise InvalidConfig("feet do not march monotonically along the line")
    try:
        delta = math.fsum(gaps) / len(gaps)
    except OverflowError:
        # Finite gaps whose sum does not fit.
        raise InvalidConfig("foot spacing leaves the float range") from None
    # A gap past the float range makes delta inf and its deviation nan.
    limit = bound(fp.scale())
    if not all(abs(g - delta) <= limit for g in gaps):
        raise InvalidConfig("feet are not equally spaced")
    require_height(fp.simson_point.y)
    return SimsonPolygonFrame(vertices=vertices, projections=feet,
                              simson_point=fp.simson_point)
