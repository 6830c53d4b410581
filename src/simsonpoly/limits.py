"""Convergence of equidistant Simson polygons to the parabola y = x^2/(4s).

As the foot spacing shrinks, the polygon squeezes between its two
bounding parabolas and converges to C' : y = x^2/(4 s), the curve whose
focus is the Simson point.  Quantitatively, the vertex chain with knot
spacing D (foot spacing D/2) interpolates C' shifted down by D^2/(16 s),
touching C' at the side midpoints, so its Hausdorff distance from C'
over a window containing the apex is D^2/(16 |s|), of quadratic order.

The chain here is the open vertex run V_1..V_{n-1}; the closing vertex
is a long-range chord and takes no part in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equidistant import EquidistantConfig, Parabola, make_equidistant
from .kernel import GeometryError, Point

MAX_SEGMENTS = 2 ** 14
"""Most segments the finest chain of a convergence table may have; the
chain over [-w, w] at spacing 2^-m_max has 2 w 2^m_max of them."""

# Parabola samples per block of the parabola-to-chain distances.
_BLOCK_ROWS = 64

# Samples per chain segment and along the parabola arc of the Hausdorff
# estimate.
_PER_SEGMENT = 8
_PARABOLA_SAMPLES = 2001


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

    Foot spacing is delta/2 so consecutive vertices are delta apart; the
    first foot is placed so the vertex abscissae run -w, -w+delta, .., w,
    which puts a vertex at the apex whenever delta divides w.
    """
    if delta <= 0.0 or half_width <= 0.0:
        raise GeometryError("window and spacing must be positive")
    segments = 2.0 * half_width / delta
    n_seg = round(segments)
    if abs(segments - n_seg) > 1e-9 or n_seg < 1:
        raise GeometryError(
            f"spacing {delta} does not tile the window [-{half_width}, {half_width}]")
    feet_spacing = 0.5 * delta
    x0 = 0.5 * (-half_width - feet_spacing)
    cfg = EquidistantConfig(s=s, x0=x0, delta=feet_spacing, n=n_seg + 2)
    return list(make_equidistant(cfg).chain)


def point_to_parabola_distance(p: Point, par: Parabola) -> float:
    """Exact Euclidean distance from a point to the parabola."""
    return float(_parabola_distances(np.array([p.x]), np.array([p.y]), par)[0])


def _parabola_distances(px: np.ndarray, py: np.ndarray,
                        par: Parabola) -> np.ndarray:
    """Exact distances from the points (px, py) to the parabola.

    The stationarity condition is the depressed cubic
    x^3 + (8 s^2 - c - 4 s py) x - 8 s^2 px = 0.  All cubics are solved in
    one eigenvalue pass over their companion matrices (the matrix np.roots
    builds); each distance is the minimum over the real roots.
    """
    s, c = par.s, par.c
    beta = 8.0 * s * s - c - 4.0 * s * py
    gamma = -8.0 * s * s * px
    companion = np.zeros((len(px), 3, 3))
    companion[:, 0, 1] = -beta
    companion[:, 0, 2] = -gamma
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    x = roots.real
    real = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(x))
    dist = np.hypot(px[:, None] - x, py[:, None] - (x * x - c) / (4.0 * s))
    return np.where(real, dist, np.inf).min(axis=1)


def _points_to_polyline(px: np.ndarray, py: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """Distances from the points (px, py) to the polyline through the rows
    of v, _BLOCK_ROWS points at a time so memory stays linear in len(v)."""
    p0 = v[:-1]
    d = v[1:] - v[:-1]
    len2 = (d * d).sum(axis=1)
    out = np.empty(len(px))
    for i in range(0, len(px), _BLOCK_ROWS):
        qx = px[i:i + _BLOCK_ROWS, None] - p0[:, 0]
        qy = py[i:i + _BLOCK_ROWS, None] - p0[:, 1]
        t = np.clip((qx * d[:, 0] + qy * d[:, 1]) / len2, 0.0, 1.0)
        rx = qx - t * d[:, 0]
        ry = qy - t * d[:, 1]
        out[i:i + _BLOCK_ROWS] = np.sqrt(rx * rx + ry * ry).min(axis=1)
    return out


def hausdorff_chain_parabola(chain: list[Point], par: Parabola,
                             half_width: float) -> float:
    """Hausdorff distance between the chain and the parabola arc over
    [-w, w], by dense sampling with exact point-to-curve distances in the
    chain-to-parabola direction."""
    v = np.array([[p.x, p.y] for p in chain])
    t = np.arange(1, _PER_SEGMENT + 1)[:, None] / _PER_SEGMENT
    along = v[:-1, None] + t * (v[1:] - v[:-1])[:, None]
    samples = np.concatenate([v[:1], along.reshape(-1, 2)])
    d1 = float(_parabola_distances(samples[:, 0], samples[:, 1], par).max())
    xs = np.linspace(-half_width, half_width, _PARABOLA_SAMPLES)
    ys = (xs * xs - par.c) / (4.0 * par.s)
    d2 = float(_points_to_polyline(xs, ys, v).max())
    return max(d1, d2)


def convergence_table(s: float, half_width: float,
                      m_max: int) -> list[ConvergenceRow]:
    """Hausdorff distances for delta = 1, 1/2, ..., 2^-m_max.

    Before any array is built, raises GeometryError when the study's
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
