"""Convergence of equidistant Simson polygons to the parabola y = x^2/(4s).

As the foot spacing shrinks, the polygon squeezes between its two
bounding parabolas and converges to C' : y = x^2/(4 s), the curve whose
focus is the Simson point.  Quantitatively, the vertex chain with knot
spacing D (foot spacing D/2) interpolates C' shifted down by D^2/(16 s),
touching C' at the side midpoints, so its Hausdorff distance from C'
over a window containing the apex is D^2/(16 |s|), of quadratic order.

The chain here is the open vertex run V_1..V_{n-1}, computed by
``kernel.equidistant_chain`` as ``equidistant.make_equidistant`` computes
it, so it is bitwise that polygon's chain; the closing vertex is a
long-range chord and takes no part in the limit.

The Hausdorff distance is measured where it is attained, in pure Python:

- Chain to parabola.  The distance to a convex set is convex along a
  segment.  Every chain segment lies outside the convex side of C' and
  touches it, so the distance to C' peaks at one of the segment's ends:
  the largest over the vertices is the largest over the chain.  Each
  vertex costs one depressed cubic, solved in closed form.
- Parabola to chain.  Over a knot interval [a, b] the chord of the
  lowered parabola is off C' vertically by D^2/(16 |s|) minus
  (x - a)(b - x)/(4 |s|), at most D^2/(16 |s|), reached at the knots.
  An arc point is no farther from the chain than from the chord point
  over it, so no arc point is farther than D^2/(16 |s|).  The arc ends
  (+-w, w^2/(4 s)) lie that far from the end vertices, whose segments
  turn away from them, so they attain it; each is measured exactly
  against every segment.

The result is the larger of the two.  For any chain it is a maximum of
true point-to-set distances and hence a lower bound of the Hausdorff
distance, as a dense sampling is; for the chains ``chain_for_window``
builds it is the Hausdorff distance itself.
"""

from __future__ import annotations

import math

from .kernel import MAX_SEGMENTS, Frozen, GeometryError, InvalidConfig, \
    Parabola, Point, equidistant_chain

_THIRD_TURN = 2.0 * math.pi / 3.0


class TooManySegments(ValueError):
    """The finest chain of a convergence table exceeds MAX_SEGMENTS."""


class ConvergenceRow(Frozen):
    """One refinement level of the limit study.

    chain_to_parabola is the chain-to-parabola part of hausdorff, the
    largest vertex distance; hausdorff exceeds it when the arc ends
    attain the distance.  None on a row built without it.
    """

    __slots__ = _fields = ("delta", "hausdorff", "bound", "chain_to_parabola")

    def __init__(self, delta: float, hausdorff: float, bound: float,
                 chain_to_parabola: float | None = None):
        self._set(delta, hausdorff, bound, chain_to_parabola)


def chain_for_window(s: float, half_width: float, delta: float) -> list[Point]:
    """Equidistant vertex chain spanning [-w, w] with knot spacing delta.

    Foot spacing is d = delta/2 so consecutive vertices are delta apart;
    the first foot x0 is placed so the vertex abscissae run -w,
    -w+delta, .., w, which puts a vertex at the apex whenever delta
    divides w.  The vertices are V_1..V_{n-1} of the equidistant polygon
    (s, x0, d, n = 2w/delta + 2), from its closed form.
    """
    if delta <= 0.0 or half_width <= 0.0:
        raise GeometryError("window and spacing must be positive")
    segments = 2.0 * half_width / delta
    if not math.isfinite(segments):
        raise GeometryError(
            f"spacing {delta} cuts the window [-{half_width}, {half_width}] "
            "into no finite number of segments")
    n_seg = round(segments)
    if abs(segments - n_seg) > 1e-9 or n_seg < 1:
        raise GeometryError(
            f"spacing {delta} does not tile the window [-{half_width}, {half_width}]")
    if not (math.isfinite(s) and s != 0.0):
        raise InvalidConfig(f"s must be nonzero and finite, got {s}")
    d = 0.5 * delta
    x0 = 0.5 * (-half_width - d)
    return equidistant_chain(s, x0, d, n_seg + 1)


def point_to_parabola_distance(p: Point, par: Parabola) -> float:
    """Exact Euclidean distance from a point to the parabola."""
    return _parabola_distance(p.x, p.y, par)


def _parabola_distance(px: float, py: float, par: Parabola) -> float:
    """Distance from (px, py) to y = (x^2 - c)/(4 s).

    The foot's abscissa solves the stationarity condition
    x^3 + beta x + gamma = 0 with beta = 8 s^2 - c - 4 s py and
    gamma = -8 s^2 px, whose real roots have a closed form (Nickalls
    1993).  With m = sqrt(|beta|/3) and a = 3 gamma / (2 beta m) they are

    - beta < 0, |a| <= 1: 2 m cos(acos(a)/3 - 2 pi k/3), k = 0, 1, 2;
    - beta < 0, |a| > 1: -2 sign(gamma) m cosh(acosh(|a|)/3);
    - beta > 0: -2 m sinh(asinh(a)/3);
    - beta = 0: -cbrt(gamma).

    The distance is the least over the roots.
    """
    eight_s2 = 8.0 * par.s * par.s
    beta = eight_s2 - par.c - 4.0 * par.s * py
    gamma = -eight_s2 * px
    if beta == 0.0:
        x = -math.copysign(abs(gamma) ** (1.0 / 3.0), gamma)
    else:
        m = math.sqrt(abs(beta) / 3.0)
        a = 1.5 * gamma / beta / m
        if beta > 0.0:
            x = -2.0 * m * math.sinh(math.asinh(a) / 3.0)
        elif a > 1.0 or a < -1.0:
            x = -2.0 * math.copysign(m, gamma) * math.cosh(
                math.acosh(abs(a)) / 3.0)
        else:
            phi = math.acos(a) / 3.0
            return min(
                _root_distance(px, py, par, beta, gamma,
                               2.0 * m * math.cos(phi)),
                _root_distance(px, py, par, beta, gamma,
                               2.0 * m * math.cos(phi - _THIRD_TURN)),
                _root_distance(px, py, par, beta, gamma,
                               2.0 * m * math.cos(phi + _THIRD_TURN)))
    return _root_distance(px, py, par, beta, gamma, x)


def _root_distance(px: float, py: float, par: Parabola,
                   beta: float, gamma: float, x: float) -> float:
    """Distance from (px, py) to the parabola point over the root x of
    x^3 + beta x + gamma, after one Newton step on x.  Any abscissa gives
    an upper bound of the distance, so a step that runs off a flat double
    root cannot lower the least one."""
    slope = 3.0 * x * x + beta
    if slope != 0.0:
        x -= ((x * x + beta) * x + gamma) / slope
    return math.hypot(px - x, py - par.y_at(x))


def _segment_distance(x: float, y: float,
                      segment: tuple[float, float, float, float, float]
                      ) -> float:
    """Distance from (x, y) to the segment (ax, ay, dx, dy, dx^2 + dy^2)
    from (ax, ay) to (ax + dx, ay + dy)."""
    ax, ay, dx, dy, len2 = segment
    qx = x - ax
    qy = y - ay
    t = (qx * dx + qy * dy) / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    rx = qx - t * dx
    ry = qy - t * dy
    return math.sqrt(rx * rx + ry * ry)


def hausdorff_chain_parabola(chain: list[Point], par: Parabola,
                             half_width: float) -> float:
    """Hausdorff distance between the chain and the parabola arc over
    [-w, w]: the larger of the largest vertex distance to the parabola
    and the larger distance from an arc end to the chain.

    For the chains ``chain_for_window`` builds this is exact.  Their
    segments lie outside the convex side of C' and touch it, and the
    distance to a convex set is convex along a segment, so the chain is
    farthest from C' at a vertex.  Every arc point is within its vertical
    gap to the chain, at most D^2/(16 |s|), and the arc ends (+-w,
    w^2/(4 s)) attain that gap, D^2/(16 |s|) from the end vertices.  For
    any other chain the result is a lower bound: a maximum of true
    point-to-set distances from some points of one set to the other.
    """
    return max(_directed_distances(chain, par, half_width))


def _directed_distances(chain: list[Point], par: Parabola,
                        half_width: float) -> tuple[float, float]:
    """(chain to parabola, arc to chain): the largest distance from a
    vertex of the chain to the parabola, one cubic per vertex, and the
    larger distance from the arc ends (+-w, (w^2 - c)/(4 s)) to the chain,
    each measured against every segment."""
    near = max(_parabola_distance(p.x, p.y, par) for p in chain)
    segments = [(a.x, a.y, b.x - a.x, b.y - a.y,
                 (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y))
                for a, b in zip(chain, chain[1:])]
    far = max(min(_segment_distance(x, par.y_at(x), segment)
                  for segment in segments)
              for x in (-half_width, half_width))
    return near, far


def convergence_table(s: float, half_width: float,
                      m_max: int) -> list[ConvergenceRow]:
    """Hausdorff distances for delta = 1, 1/2, ..., 2^-m_max.

    Before any chain is built, raises GeometryError when the study's
    numbers would overflow or its finest bound 4^-m_max/(16|s|) falls
    below 1e-12 max(w, w^2/(4|s|)), near the rounding of its coordinates,
    and TooManySegments when its finest chain would have more than
    MAX_SEGMENTS segments.
    """
    if m_max < 0:
        raise GeometryError("m_max must be >= 0")
    target = Parabola(s, 0.0)
    # Largest coordinate (w, w^2/(4|s|)) or cubic coefficient
    # (8 s^2 + w^2, 8 s^2 w) of the study; the distances square differences
    # of such numbers, so 16 times its square must stay finite.
    coord = abs(target.y_at(half_width))
    big = max(half_width, coord, 8.0 * s * s + half_width * half_width,
              8.0 * s * s * half_width)
    if not math.isfinite(16.0 * big * big):
        raise GeometryError(
            f"s = {s} with window {half_width} leaves the float range")
    if half_width > math.ldexp(MAX_SEGMENTS, -m_max - 1):
        raise TooManySegments(
            f"window {half_width} at m_max {m_max} needs more than "
            f"{MAX_SEGMENTS} chain segments")
    finest = 4.0 ** -m_max / (16.0 * abs(s))
    if finest < 1e-12 * max(half_width, coord):
        raise GeometryError(
            f"s = {s} with window {half_width} at m_max {m_max}: the bound "
            f"{finest:.3g} is below the float precision of the study")
    rows = []
    for m in range(m_max + 1):
        delta = 2.0 ** (-m)
        chain = chain_for_window(s, half_width, delta)
        near, far = _directed_distances(chain, target, half_width)
        rows.append(ConvergenceRow(delta=delta, hausdorff=max(near, far),
                                   bound=delta * delta / (16.0 * abs(s)),
                                   chain_to_parabola=near))
    return rows


def observed_orders(rows: list[ConvergenceRow]) -> list[float]:
    """log2 ratios of successive Hausdorff distances (one per halving)."""
    return [math.log2(a.hausdorff / b.hausdorff)
            for a, b in zip(rows, rows[1:])]
