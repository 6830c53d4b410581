"""Dense-sampling estimate of the chain-to-parabola Hausdorff distance.

This is the estimate ``simsonpoly.limits`` used before it measured the
distance in closed form, kept as the tests' one dense oracle.  The chain
is sampled 8 times per segment, each sample measured to the parabola by
the point-to-parabola distance the caller passes, and the arc at 2001
abscissae, each measured to every segment of the chain in one numpy
broadcast.  Every sample distance is a true point-to-set distance, so
the estimate is a lower bound of the Hausdorff distance.
"""

import numpy as np

PER_SEGMENT = 8
PARABOLA_SAMPLES = 2001
_STEPS = tuple(k / PER_SEGMENT for k in range(1, PER_SEGMENT + 1))


def broadcast_polyline(px, py, chain):
    """Distances from the points (px, py), two arrays, to the polyline
    through the chain: every point against every segment."""
    v = np.array([[p.x, p.y] for p in chain])
    p0, d = v[:-1], v[1:] - v[:-1]
    len2 = (d * d).sum(axis=1)
    qx = px[:, None] - p0[None, :, 0]
    qy = py[:, None] - p0[None, :, 1]
    t = np.clip((qx * d[None, :, 0] + qy * d[None, :, 1]) / len2[None, :],
                0.0, 1.0)
    rx = qx - t * d[None, :, 0]
    ry = qy - t * d[None, :, 1]
    return np.sqrt(rx * rx + ry * ry).min(axis=1)


def dense_hausdorff(chain, par, half_width, distance):
    """Hausdorff distance between the chain and the parabola arc over
    [-w, w], by dense sampling: distance(x, y, par) from each chain
    sample to the parabola, and ``broadcast_polyline`` from each arc
    sample to the chain."""
    vx = [p.x for p in chain]
    vy = [p.y for p in chain]
    d1 = distance(vx[0], vy[0], par)
    for ax, ay, bx, by in zip(vx, vy, vx[1:], vy[1:]):
        dx = bx - ax
        dy = by - ay
        for t in _STEPS:
            d = distance(ax + t * dx, ay + t * dy, par)
            if d > d1:
                d1 = d
    xs = np.linspace(-half_width, half_width, PARABOLA_SAMPLES)
    d2 = float(broadcast_polyline(xs, par.y_at(xs), chain).max())
    return max(d1, d2)
