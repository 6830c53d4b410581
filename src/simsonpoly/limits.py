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
  turn away from them, so they attain it.  Each arc end at x scans the
  segments from the chain's end nearest it.  Segment i lies at least
  its x-gap max(x_i - x, x - x_{i+1}) from the arc end, a gap that
  shrinks towards x and grows past it.  The scan stops once the gap
  exceeds the least distance found plus ``bound`` of the largest
  coordinate, a margin far above the rounding of any computed distance
  (one relative to the least distance would not be, at the precision
  edge, where the bound is 1e-12 of the coordinates).  So no skipped
  segment is nearer, exactly or as computed, and the least distance is
  bitwise that over every segment.  A chain whose abscissae do not
  strictly increase has every segment measured.

The result is the larger of the two.  For any chain it is a maximum of
true point-to-set distances and hence a lower bound of the Hausdorff
distance, as a dense sampling is; for the chains ``chain_for_window``
builds it is the Hausdorff distance itself.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import lt

from .kernel import MAX_SEGMENTS, Frozen, GeometryError, NonFinite, \
    Parabola, Point, TooManySegments, UsageError, bound, equidistant_chain, \
    require_height

_THIRD_TURN = 2.0 * math.pi / 3.0


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


def _require_positive(name: str, value: float) -> None:
    if value <= 0.0:
        raise UsageError(f"{name} must be positive, got {value}")


def chain_for_window(s: float, half_width: float, delta: float) -> list[Point]:
    """Equidistant vertex chain spanning [-w, w] with knot spacing delta.

    Foot spacing is d = delta/2 so consecutive vertices are delta apart;
    the first foot x0 is placed so the vertex abscissae run -w,
    -w+delta, .., w, which puts a vertex at the apex whenever delta
    divides w.  The vertices are V_1..V_{n-1} of the equidistant polygon
    (s, x0, d, n = 2w/delta + 2), from its closed form.
    """
    return [Point(x, y) for x, y in zip(*_window_chain(s, half_width, delta))]


def _window_chain(s: float, half_width: float,
                  delta: float) -> tuple[list[float], list[float]]:
    """The abscissae and ordinates of ``chain_for_window``'s chain."""
    _require_positive("window", half_width)
    _require_positive("spacing", delta)
    segments = 2.0 * half_width / delta
    if not math.isfinite(segments):
        raise NonFinite(
            f"spacing {delta} cuts the window [-{half_width}, {half_width}] "
            "into no finite number of segments")
    n_seg = round(segments)
    if abs(segments - n_seg) > bound(1.0) or n_seg < 1:
        raise GeometryError(
            f"spacing {delta} does not tile the window [-{half_width}, {half_width}]")
    require_height(s)
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


def _segment_distance(x: float, y: float, ax: float, ay: float,
                      bx: float, by: float) -> float:
    """Distance from (x, y) to the segment from (ax, ay) to (bx, by)."""
    dx = bx - ax
    dy = by - ay
    qx = x - ax
    qy = y - ay
    t = (qx * dx + qy * dy) / (dx * dx + dy * dy)
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
    [-w, w], measured as the module docstring says: exact for the chains
    ``chain_for_window`` builds, and for any other chain a lower bound,
    a maximum of true point-to-set distances."""
    return max(_directed_distances([p.x for p in chain],
                                   [p.y for p in chain], par, half_width))


def _directed_distances(xs: list[float], ys: list[float], par: Parabola,
                        half_width: float) -> tuple[float, float]:
    """(chain to parabola, arc to chain) for the chain through (xs, ys):
    the largest vertex distance to the parabola, one cubic per vertex,
    and the larger distance from an arc end (+-w, (w^2 - c)/(4 s)) to
    the chain, with the scan and its stop rule of the module docstring."""
    near = max(map(_parabola_distance, xs, ys, repeat(par)))
    ey = par.y_at(half_width)
    if all(map(lt, xs, xs[1:])):
        margin = bound(max(-xs[0], xs[-1], half_width, abs(ey),
                           max(map(abs, ys))))
    else:
        margin = math.inf
    far = 0.0
    for ex, order in ((-half_width, range(len(xs) - 1)),
                      (half_width, range(len(xs) - 2, -1, -1))):
        best = math.inf
        for i in order:
            if max(xs[i] - ex, ex - xs[i + 1]) > best + margin:
                break
            best = min(best, _segment_distance(ex, ey, xs[i], ys[i],
                                               xs[i + 1], ys[i + 1]))
        far = max(far, best)
    return near, far


def convergence_table(s: float, half_width: float,
                      m_max: int) -> list[ConvergenceRow]:
    """Hausdorff distances for delta = 1, 1/2, ..., 2^-m_max.

    Before any chain is built, raises a UsageError for a window w <= 0 or
    m_max < 0, NonFinite when the study's numbers would overflow,
    GeometryError when its finest bound 4^-m_max/(16|s|) falls below
    1e-12 max(w, w^2/(4|s|)), near the rounding of its coordinates, and
    TooManySegments when its finest chain would have more than
    MAX_SEGMENTS segments.
    """
    _require_positive("window", half_width)
    if m_max < 0:
        raise UsageError(f"m_max must be >= 0, got {m_max}")
    target = Parabola(s, 0.0)
    # Largest coordinate (w, w^2/(4|s|)) or cubic coefficient
    # (8 s^2 + w^2, 8 s^2 w) of the study; the distances square differences
    # of such numbers, so 16 times its square must stay finite.
    coord = abs(target.y_at(half_width))
    big = max(half_width, coord, 8.0 * s * s + half_width * half_width,
              8.0 * s * s * half_width)
    if not math.isfinite(16.0 * big * big):
        raise NonFinite(
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
        near, far = _directed_distances(
            *_window_chain(s, half_width, delta), target, half_width)
        rows.append(ConvergenceRow(delta=delta, hausdorff=max(near, far),
                                   bound=delta * delta / (16.0 * abs(s)),
                                   chain_to_parabola=near))
    return rows


def observed_orders(rows: list[ConvergenceRow]) -> list[float]:
    """log2 ratios of successive Hausdorff distances (one per halving)."""
    return [math.log2(a.hausdorff / b.hausdorff)
            for a, b in zip(rows, rows[1:])]


def limit_request(args) -> tuple[str, None, bool]:
    """The JSON of ``limit``, and whether each observed order is >= 1.9."""
    rows = convergence_table(args.s, args.window, args.m_max)
    orders = observed_orders(rows)
    payload = {
        "s": args.s, "window": args.window,
        "rows": [{"delta": r.delta, "hausdorff": r.hausdorff,
                  "bound": r.bound, "chain_to_parabola": r.chain_to_parabola}
                 for r in rows],
        "observed_orders": orders,
    }
    order_ok = True
    if args.m_max > 0:
        order_ok = payload["order_ok"] = min(orders) >= 1.9
    return json.dumps(payload, indent=2, allow_nan=False), None, order_ok
