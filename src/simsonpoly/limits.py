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

The Hausdorff distance is measured in both directions by dense sampling,
in pure Python.  Chain to parabola: each sample's distance is the least
over the real roots of a depressed cubic, solved in closed form.
Parabola to chain: the chain is x-monotone, so a segment whose abscissae
miss [x - d0, x + d0], where d0 is the sample's distance to the segment
over its own abscissa x, lies more than d0 away horizontally and hence
more than d0 away; only the few segments that meet that interval are
measured.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .kernel import GeometryError, InvalidConfig, Parabola, Point, \
    equidistant_chain

MAX_SEGMENTS = 2 ** 14
"""Most segments the finest chain of a convergence table may have; the
chain over [-w, w] at spacing 2^-m_max has 2 w 2^m_max of them."""

# Samples per chain segment and along the parabola arc of the Hausdorff
# estimate.
_PER_SEGMENT = 8
_PARABOLA_SAMPLES = 2001
_STEPS = tuple(k / _PER_SEGMENT for k in range(1, _PER_SEGMENT + 1))

_THIRD_TURN = 2.0 * math.pi / 3.0


class TooManySegments(ValueError):
    """The finest chain of a convergence table exceeds MAX_SEGMENTS."""


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of the limit study."""

    delta: float
    hausdorff: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.hausdorff / self.bound


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
    return _parabola_distance(p.x, p.y, par.s, par.c)


def _parabola_distance(px: float, py: float, s: float, c: float) -> float:
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
    eight_s2 = 8.0 * s * s
    four_s = 4.0 * s
    beta = eight_s2 - c - four_s * py
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
                _root_distance(px, py, c, four_s, beta, gamma,
                               2.0 * m * math.cos(phi)),
                _root_distance(px, py, c, four_s, beta, gamma,
                               2.0 * m * math.cos(phi - _THIRD_TURN)),
                _root_distance(px, py, c, four_s, beta, gamma,
                               2.0 * m * math.cos(phi + _THIRD_TURN)))
    return _root_distance(px, py, c, four_s, beta, gamma, x)


def _root_distance(px: float, py: float, c: float, four_s: float,
                   beta: float, gamma: float, x: float) -> float:
    """Distance from (px, py) to the parabola point over the root x of
    x^3 + beta x + gamma, after one Newton step on x.  Any abscissa gives
    an upper bound of the distance, so a step that runs off a flat double
    root cannot lower the least one."""
    slope = 3.0 * x * x + beta
    if slope != 0.0:
        x -= ((x * x + beta) * x + gamma) / slope
    return math.hypot(px - x, py - (x * x - c) / four_s)


def _points_to_polyline(px: list[float], py: list[float], vx: list[float],
                        vy: list[float]) -> list[float]:
    """Distances from the points (px, py) to the polyline through the
    vertices (vx, vy), whose abscissae vx increase.

    Each point is measured to the segment over its own abscissa x first,
    at distance d0, and then only to the segments whose abscissae meet
    [x - d0, x + d0]: any other segment is more than d0 away
    horizontally.  Each distance is computed as a scan over all segments
    computes it, so the result is bitwise the same.
    """
    segments = [(ax, ay, bx - ax, by - ay,
                 (bx - ax) * (bx - ax) + (by - ay) * (by - ay))
                for ax, ay, bx, by in zip(vx, vy, vx[1:], vy[1:])]
    last = len(segments) - 1
    out = []
    for x, y in zip(px, py):
        own = min(max(bisect_right(vx, x) - 1, 0), last)
        best = _segment_distance(x, y, segments[own])
        lo = x - best
        hi = x + best
        if lo < vx[own] or hi > vx[own + 1]:
            for i in range(max(bisect_left(vx, lo) - 1, 0),
                           min(bisect_right(vx, hi) - 1, last) + 1):
                d = _segment_distance(x, y, segments[i])
                if d < best:
                    best = d
        out.append(best)
    return out


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


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """num equally spaced values from lo to hi, computed as numpy.linspace
    computes them: j * step + lo, with the last value set to hi."""
    step = (hi - lo) / (num - 1)
    out = [j * step + lo for j in range(num)]
    out[-1] = hi
    return out


def hausdorff_chain_parabola(chain: list[Point], par: Parabola,
                             half_width: float) -> float:
    """Hausdorff distance between the chain and the parabola arc over
    [-w, w], by dense sampling: exact point-to-curve distances in the
    chain-to-parabola direction, pruned point-to-chain distances in the
    other."""
    vx = [p.x for p in chain]
    vy = [p.y for p in chain]
    s, c = par.s, par.c
    d1 = _parabola_distance(vx[0], vy[0], s, c)
    for ax, ay, bx, by in zip(vx, vy, vx[1:], vy[1:]):
        dx = bx - ax
        dy = by - ay
        for t in _STEPS:
            d = _parabola_distance(ax + t * dx, ay + t * dy, s, c)
            if d > d1:
                d1 = d
    xs = _linspace(-half_width, half_width, _PARABOLA_SAMPLES)
    four_s = 4.0 * s
    ys = [(x * x - c) / four_s for x in xs]
    d2 = max(_points_to_polyline(xs, ys, vx, vy))
    return max(d1, d2)


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
    coord = half_width * half_width / (4.0 * abs(s))
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
        dist = hausdorff_chain_parabola(chain, target, half_width)
        rows.append(ConvergenceRow(delta=delta, hausdorff=dist,
                                   bound=delta * delta / (16.0 * abs(s))))
    return rows


def observed_orders(rows: list[ConvergenceRow]) -> list[float]:
    """log2 ratios of successive Hausdorff distances (one per halving)."""
    return [math.log2(a.hausdorff / b.hausdorff)
            for a, b in zip(rows, rows[1:])]
