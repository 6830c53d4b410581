"""The verifiers as they were before they became float passes.

Each function builds ``Point``/``Line`` objects per pair, exactly as the
library verifiers once did, and returns one ``(name, indices, residual)``
row per check in the order the old per-pair report listed them.  The
library's check families must hold the same residuals, bitwise.  Two row
names have no report entry of their own: ``tangent-chord``, one chord's
angle to the tangent, which its index sum's ``chord-tangent`` row
reduces, and ``archimedes``, one pair's spread.
"""

from itertools import combinations

from geomgen import angle_between_lines
from simsonpoly.kernel import (
    DegenerateConfiguration,
    Point,
    angle_between_rays,
    bound,
    circumcircle,
    line_intersection,
    reflect_point,
)


def scalar_parallel_chords(poly):
    chain = poly.vertices[:-1]
    m = len(chain)
    s = poly.simson_point.y
    groups = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            groups.setdefault(i + j, []).append((i, j))
    rows = []
    for sigma in sorted(groups):
        chords = groups[sigma]
        dirs = [chain[j - 1] - chain[i - 1] for i, j in chords]
        if len(chords) >= 2:
            residual = max(angle_between_lines(dirs[0], d) for d in dirs[1:])
            rows.append(("parallel-chords", (sigma,), residual))
        angles = []
        for (i, j), d in zip(chords, dirs):
            if (j - i) % 2 == 0:
                mid = (i + j) // 2
                tangent_dir = Point(2.0 * s, chain[mid - 1].x)
                angles.append(angle_between_lines(d, tangent_dir))
                rows.append(("tangent-chord", (i, j, mid), angles[-1]))
        if angles:
            rows.append(("chord-tangent", (sigma,), max(angles)))
        coords = [chain[i - 1].midpoint(chain[j - 1]).x for i, j in chords]
        if sigma % 2 == 0 and 1 <= sigma // 2 <= m:
            coords.append(chain[sigma // 2 - 1].x)
        if len(coords) >= 2:
            rows.append(("midpoints-aligned", (sigma,),
                         max(coords) - min(coords)))
    return rows


def scalar_isogonal(poly):
    limit = bound(poly.scale())
    n = poly.n
    S = poly.simson_point
    rows = []
    for iv in range(n):
        v = poly.vertices[iv]
        label = (iv + 1,)
        if abs(v.y) <= limit:
            rows.append(("isogonal", label, 0.0))
            continue
        x_here = poly.projections[iv]
        x_next = poly.projections[(iv + 1) % n]
        rays = [Point(0.0, -2.0 * v.y), x_here - v, x_next - v, S - v]
        if min(r.norm() for r in rays) <= limit:
            rows.append(("isogonal", label, 0.0))
            continue
        a1 = angle_between_rays(rays[0], rays[1])
        a2 = angle_between_rays(rays[2], rays[3])
        rows.append(("isogonal", label, abs(a1 - a2)))
    return rows


def scalar_optical(poly):
    S = poly.simson_point
    verts = poly.vertices
    sides = poly.polygon().side_lines()
    rows = []
    for i in range(1, poly.n - 1):
        mid = verts[i - 1].midpoint(verts[i])
        rows.append(("optical", (i,),
                     abs(reflect_point(S, sides[i - 1]).x - mid.x)))
    return rows


def scalar_archimedes(poly):
    verts = poly.vertices
    n = poly.n
    sides = poly.polygon().side_lines()

    def meet_coord(i, j):
        cross = line_intersection(sides[i - 1], sides[j - 1])
        if cross is None:
            raise DegenerateConfiguration(f"side lines {i} and {j} are parallel")
        return cross.x

    def mid_coord(i, j):
        return verts[i - 1].midpoint(verts[j - 1]).x

    rows = []
    w_families, m_families = {}, {}
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            w = meet_coord(i, j)
            w_families.setdefault(i + j, []).append(w)
            coords = [w, mid_coord(i, j + 1), mid_coord(i + 1, j)]
            rows.append(("archimedes", (i, j), max(coords) - min(coords)))
    for c in range(1, n):
        for d in range(c, n):
            m_families.setdefault(c + d, []).append(
                verts[c - 1].x if c == d else mid_coord(c, d))
    for sigma, ws in sorted(w_families.items()):
        coords = ws + m_families.get(sigma + 1, [])
        if len(coords) >= 2:
            rows.append(("archimedes-family", (sigma,),
                         max(coords) - min(coords)))
    return rows


def scalar_lambert(poly, i, j, k):
    idx = (i, j, k)
    sides = poly.polygon().side_lines()
    corners = []
    for t1, t2 in combinations(idx, 2):
        cross = line_intersection(sides[t1 - 1], sides[t2 - 1])
        if cross is None:
            raise DegenerateConfiguration(f"side lines {t1} and {t2} are parallel")
        corners.append(cross)
    circle = circumcircle(*corners)
    return [("lambert", idx,
             abs(poly.simson_point.distance(circle.center) - circle.radius))]
