"""verify judges the polygon, not where it is placed.

A translation by (T, -T) moves the same polygon, so every moved
equidistant polygon that verify accepts must still be accepted there:
ROADMAP's correctness aim asks that every polygon the package builds be
recognised under any rigid motion.  Far from the origin the side lines'
offset c = p.x q.y - q.x p.y cancels, so verify's one search runs
about the polygon's bounding-box centre.  Searched about the origin, the
seeded draws below passed 60 of 60 at T = 0, 59 at 1e3, 32 at 1e4 and 3
at 1e5.  Searched about the centre, with each circle judged at its own
radius, they pass 60 of 60 at T = 0, 1e4 and 1e5, 59 at 1e6, 47 at 1e7
and 14 at 1e8; every failure up to 1e7 is a search miss.  1e6 and 1e7
are strict xfails (ROADMAP item 1(b)): rounding the vertices at
|V| ~ T moves them by about T * 2^-53, near ``bound(diameter)`` for a
diameter of a few units, the limit that the search's element test and
the checks judge at.  At 1e8 the search misses 44 and the checks reject
2.  The frame is a rotation about S of the search's own coordinates,
centred on the bounding box, so its S and feet carry no rounding at the
size of T.  When it subtracted two shifts of size T after the rotation,
10 passed at 1e8 and the checks rejected 6.  When it rotated about an S
moved back by the centre first, 14 passed at 1e8, but the worst
``lambert`` residual over its limit, among the polygons whose Simson
point verify finds, grew from 1.3e-4 at T = 0 to 1.0e-2 at 1e6 and 0.12
at 1e8, where it is now 5.4e-5 and 5.3e-5.
"""

import math
from functools import cache

import numpy as np
import pytest

from geomgen import moved_equidistant, sweep_config, verify_in_process
from simsonpoly import Point


def _polygons():
    """20 moved equidistant polygons for each n in (8, 32, 64), drawn as
    the benchmark's verify-sweep draws them."""
    for n in (8, 32, 64):
        rng = np.random.default_rng(n)
        for _ in range(20):
            yield moved_equidistant(
                sweep_config(rng, n), float(rng.uniform(0.0, 2.0 * math.pi)),
                rng.uniform(-10.0, 10.0, 2).tolist()).vertices


FAR = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1(b): vertices rounded this far from the origin "
           "move by about bound(diameter), where the search and the "
           "checks judge")


@cache
def _runs(t):
    """verify's exit code and report on each polygon, moved by (t, -t)."""
    return [verify_in_process([Point(v.x + t, v.y - t) for v in vertices])
            for vertices in _polygons()]


def _exit_codes(t):
    return [code for code, _ in _runs(t)]


def _worst_lambert(t):
    """The largest lambert residual over its limit, over the polygons
    whose Simson point verify finds at t."""
    return max(entry["residual"] / entry["limit"]
               for _, report in _runs(t) if report["checks"][0]["pass"]
               for entry in report["checks"] if entry["name"] == "lambert")


@pytest.mark.parametrize("t", [0.0, 1e4, 1e5, pytest.param(1e6, marks=FAR),
                               pytest.param(1e7, marks=FAR)])
def test_translation_keeps_the_verdict(t):
    assert _exit_codes(t) == [0] * 60


def test_the_frame_keeps_polygons_far_from_the_origin():
    # A count, not a verdict: at T = 1e8 the search still misses most.
    assert _exit_codes(1e8).count(0) >= 14


@pytest.mark.parametrize("t", [1e6, 1e8])
def test_the_frame_takes_no_rounding_from_t(t):
    assert _worst_lambert(t) <= _worst_lambert(0.0)
