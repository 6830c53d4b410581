"""Dense-sampling estimate of the chain-to-parabola Hausdorff distance.

This is the estimate ``simsonpoly.limits`` used before it measured the
distance in closed form, kept as an oracle.  The chain is sampled 8
times per segment, each sample measured exactly to the parabola, and
the arc at 2001 abscissae, each measured to the chain.  Every sample
distance is a true point-to-set distance, so the estimate is a lower
bound of the Hausdorff distance.
"""

from bisect import bisect_left, bisect_right

from simsonpoly.limits import _parabola_distance, _segment_distance

PER_SEGMENT = 8
PARABOLA_SAMPLES = 2001
_STEPS = tuple(k / PER_SEGMENT for k in range(1, PER_SEGMENT + 1))


def linspace(lo, hi, num):
    """num equally spaced values from lo to hi, computed as numpy.linspace
    computes them: j * step + lo, with the last value set to hi."""
    step = (hi - lo) / (num - 1)
    out = [j * step + lo for j in range(num)]
    out[-1] = hi
    return out


def points_to_polyline(px, py, vx, vy):
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


def dense_hausdorff(chain, par, half_width):
    """Hausdorff distance between the chain and the parabola arc over
    [-w, w], by dense sampling: exact point-to-curve distances in the
    chain-to-parabola direction, pruned point-to-chain distances in the
    other."""
    vx = [p.x for p in chain]
    vy = [p.y for p in chain]
    d1 = _parabola_distance(vx[0], vy[0], par)
    for ax, ay, bx, by in zip(vx, vy, vx[1:], vy[1:]):
        dx = bx - ax
        dy = by - ay
        for t in _STEPS:
            d = _parabola_distance(ax + t * dx, ay + t * dy, par)
            if d > d1:
                d1 = d
    xs = linspace(-half_width, half_width, PARABOLA_SAMPLES)
    ys = [par.y_at(x) for x in xs]
    d2 = max(points_to_polyline(xs, ys, vx, vy))
    return max(d1, d2)
