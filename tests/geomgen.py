"""Random geometry generators, rigid motions, an in-process ``verify``,
a strict JSON reader, the environment of a subprocess, and closed-form
oracles shared across test modules.

Every generator takes an explicit numpy Generator so tests stay
reproducible; the rejection loops enforce conditioning margins (angle
gaps, side non-parallelism) rather than hoping for good draws.  The
oracles are the paper's closed forms for the equidistant polygon, which
the package builds and verifies numerically instead.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from itertools import combinations
from pathlib import Path

import numpy as np

from simsonpoly import EquidistantConfig, Line, Point, Polygon, \
    circumcircle, line_intersection, make_equidistant
from simsonpoly.cli import main
from simsonpoly.equidistant import IndexOutOfRange
from simsonpoly.scene import SceneDocument


def xy(p):
    """Point as a plain tuple for pytest.approx comparisons."""
    return (p.x, p.y)


def tight_bound(scale):
    """1e-12 + 1e-12 * |scale|: a threshold far tighter than the package's
    bound(scale), for a test that pins a value more tightly."""
    return 1e-12 + 1e-12 * abs(scale)


# Scales k of the octagon (k, -3.5k, k, 8), on both sides of 1e-9, where
# an absolute tolerance term of 1e-9 would take over from a relative one.
OCTAGON_SCALES = [10.0 ** e for e in (-100, -50, -12, -10, -9, -6, -5, 0, 3,
                                      100)]


def lines_equal_tight(l1, l2):
    """Whether two lines coincide at tight_bound: their normals agree to
    tight_bound(1) and their offsets to tight_bound of the larger."""
    if abs(l1.a * l2.b - l2.a * l1.b) > tight_bound(1.0):
        return False
    offset = l1.c - l2.c if l1.a * l2.a + l1.b * l2.b >= 0.0 else l1.c + l2.c
    return abs(offset) <= tight_bound(max(abs(l1.c), abs(l2.c)))


def sorted_angles(rng, n, min_gap):
    """n angles on the circle, cyclically separated by at least min_gap."""
    while True:
        ts = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        gaps = np.diff(np.r_[ts, ts[0] + 2.0 * math.pi])
        if gaps.min() > min_gap:
            return ts


def random_triangle(rng, min_gap=0.5):
    """Well-conditioned triangle on a random circle.

    Returns (polygon, center, radius) so callers can place points on or
    off the circumcircle without recomputing it.
    """
    ts = sorted_angles(rng, 3, min_gap)
    center = rng.uniform(-5.0, 5.0, 2)
    radius = rng.uniform(0.5, 3.0)
    verts = tuple(Point(center[0] + radius * math.cos(t),
                        center[1] + radius * math.sin(t)) for t in ts)
    return Polygon(verts), Point(*center), radius


def random_convex_polygon(rng, n):
    """Convex n-gon: ellipse points under a random rotation and shift."""
    ts = sorted_angles(rng, n, 0.15 * 2.0 * math.pi / n)
    ax, by = rng.uniform(0.5, 3.0, 2)
    th = rng.uniform(0.0, math.pi)
    cos_t, sin_t = math.cos(th), math.sin(th)
    cx, cy = rng.uniform(-5.0, 5.0, 2)
    verts = []
    for t in ts:
        ex, ey = ax * math.cos(t), by * math.sin(t)
        verts.append(Point(cx + cos_t * ex - sin_t * ey,
                           cy + sin_t * ex + cos_t * ey))
    return Polygon(tuple(verts))


def random_quadrilateral(rng, parallel_margin=0.05):
    """Convex quadrilateral with no two side lines close to parallel."""
    while True:
        poly = random_convex_polygon(rng, 4)
        sides = poly.side_lines()
        ok = True
        for i in range(4):
            for j in range(i + 1, 4):
                d1, d2 = sides[i].direction(), sides[j].direction()
                if abs(d1.x * d2.y - d1.y * d2.x) < parallel_margin:
                    ok = False
        if ok:
            return poly


def triangle_circles(lines):
    """Circumcircles of the four triangles that three of four lines cut
    out, each through the three meets of its lines.  A quadrilateral's
    Simson point is the Miquel point of its side lines: the one point
    common to these four circles."""
    return [circumcircle(*(line_intersection(p, q) for p, q in
                           combinations(lines[:k] + lines[k + 1:], 2)))
            for k in range(4)]


def random_equidistant_config(rng, s_range=(0.7, 2.5), delta_range=(0.5, 1.5),
                              x0_range=(-2.0, 2.0), n_range=(5, 9)):
    s = float(rng.choice([-1.0, 1.0]) * rng.uniform(*s_range))
    return EquidistantConfig(
        s=s,
        x0=float(rng.uniform(*x0_range)),
        delta=float(rng.uniform(*delta_range)),
        n=int(rng.integers(n_range[0], n_range[1] + 1)))


def sweep_config(rng, n):
    """An n-vertex equidistant configuration drawn as the benchmark's
    verify-sweep draws it: the sign of s, then |s|, x0 and delta."""
    return EquidistantConfig(
        s=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
        x0=float(rng.uniform(-3.0, 3.0)),
        delta=float(rng.uniform(0.25, 1.5)), n=n)


def rigid_motion(theta, shift):
    """A rotation by theta then a shift: the map move(x, y) to a Point, and
    the image of the x-axis."""
    c, s = math.cos(theta), math.sin(theta)
    return (lambda x, y: Point(c * x - s * y + shift[0],
                               s * x + c * y + shift[1]),
            Line(-s, c, s * shift[0] - c * shift[1]))


def moved_equidistant(cfg, theta=0.7, shift=(3.0, -2.0)):
    """The equidistant polygon of cfg under rigid_motion(theta, shift)."""
    move, _ = rigid_motion(theta, shift)
    return Polygon(tuple(move(v.x, v.y)
                         for v in make_equidistant(cfg).vertices))


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def strict_json(text):
    """The JSON document text holds; ValueError if it holds Infinity or
    NaN, which are not JSON and which parsers such as node's reject."""
    return json.loads(text, parse_constant=_no_constant)


def verify_in_process(vertices, *flags):
    """Exit code of ``verify`` on the polygon, run by ``cli.main`` in this
    process, and its report, read as strict JSON, or None if it wrote
    none.  The files live in a temporary directory, so a Hypothesis test
    may call it."""
    with tempfile.TemporaryDirectory() as tmp:
        scene, out = Path(tmp, "scene.json"), Path(tmp, "report.json")
        doc = SceneDocument()
        doc.add_polygon("polygon", Polygon(tuple(vertices)))
        scene.write_text(doc.to_json(), encoding="utf-8")
        with redirect_stderr(StringIO()):
            code = main(["verify", "--in", str(scene), "--out", str(out),
                         *flags])
        return code, strict_json(out.read_text()) if out.exists() else None


def src_env():
    """Environment for a subprocess that runs this tree's package: ``src``
    first on PYTHONPATH, then the inherited PYTHONPATH.  PYTHONUNBUFFERED
    is dropped, so a piped stdout is block-buffered, as it is on CI, and
    output that no flush sends is lost."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def regular_polygon(n, radius=1.0, phase=math.pi / 2.0):
    verts = tuple(Point(radius * math.cos(phase + 2.0 * math.pi * k / n),
                        radius * math.sin(phase + 2.0 * math.pi * k / n))
                  for k in range(n))
    return Polygon(verts)


# ------------------------------------------------------- closed-form oracles
# Indices are 1-based, as the vertex labels V_1..V_n of the paper.

def angle_between_lines(u, v):
    """Angle between two undirected directions, in [0, pi/2]."""
    return math.atan2(abs(u.cross(v)), abs(u.dot(v)))


def foot_line(cfg, i):
    """Perpendicular to S X_i raised at X_i; the side line carrying X_i."""
    x = cfg.foot_abscissa(i)
    return Line(x, -cfg.s, -x * x)


def chord_slope(cfg, i, j):
    """Slope of the chord V_i V_j, 1 <= i < j <= n-1.

    Depends on i and j only through i + j, which is what makes the
    equal-sum chord families parallel.
    """
    if not (1 <= i < j <= cfg.n - 1):
        raise IndexOutOfRange(f"chord ({i}, {j}) outside 1 <= i < j <= {cfg.n - 1}")
    return (2.0 * cfg.x0 + (i + j - 1) * cfg.delta) / (2.0 * cfg.s)


def w_point(cfg, i, j):
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
