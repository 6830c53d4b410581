"""Work grows with n as ROADMAP's bar says, counted without a clock.

Each path runs under a ``sys.settrace`` tracer that counts the "line"
events of frames whose module is in ``simsonpoly``.  The count is the
same on every run of one Python, so the ratio of the counts at 2n and
at n shows the complexity class without a VM's timing noise: at most
2.2 for an O(n) path and 4.4 for an O(n^2) one.  Line events differ
between Python versions, so only ratios within one run are compared,
never an absolute count.  Any tracer already set, such as a coverage
tool's, is restored afterwards.

On Python 3.11 the ratios read, for n = 32 -> 64 -> 128: the search
1.96 and 1.98 on a hit, 1.97 and 1.98 on a miss, all checks on a hit
2.98 and 3.34, make_equidistant 1.90 and 1.95, construct_simson_polygon
1.97 and 1.99, optimal_knots 1.86 and 1.93, and one convergence_table
level 1.83 and 1.91.  A level's cubic per vertex sets its ratio: the
scan from each arc end stops after a few segments at any n, a constant
share that keeps the ratio below 2.
"""

import sys

import pytest

from geomgen import moved_equidistant
from simsonpoly import (
    ApproxProblem,
    EquidistantConfig,
    Line,
    Point,
    construct_simson_polygon,
    convergence_table,
    find_simson_point,
    make_equidistant,
    optimal_knots,
)
from simsonpoly.cli import ALL_CHECKS
from simsonpoly.scene import _perturbed, _run_checks

LINEAR, QUADRATIC = 2.2, 4.4
SIZES = (32, 64, 128)


def line_events(fn, *args) -> int:
    """Line events in simsonpoly frames while fn(*args) runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        if name == "simsonpoly" or name.startswith("simsonpoly."):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def ratios(cost) -> list[float]:
    """cost(2n) / cost(n) for each doubling in SIZES."""
    counts = [cost(n) for n in SIZES]
    return [b / a for a, b in zip(counts, counts[1:])]


def subject(n):
    """The equidistant polygon (10, -3, 0.5, n), rotated by 0.7 rad and
    moved by (3, -2)."""
    return moved_equidistant(EquidistantConfig(10.0, -3.0, 0.5, n))


def search_hit(n):
    poly = subject(n)
    assert find_simson_point(poly) is not None
    return line_events(find_simson_point, poly)


def search_miss(n):
    poly = _perturbed(subject(n), 1e-3, 0)
    assert find_simson_point(poly) is None
    return line_events(find_simson_point, poly)


def checks_hit(n):
    poly = subject(n)
    assert _run_checks(poly, list(ALL_CHECKS), (1, 2, 3)).overall
    return line_events(_run_checks, poly, list(ALL_CHECKS), (1, 2, 3))


def equidistant(n):
    return line_events(make_equidistant, EquidistantConfig(10.0, -3.0, 0.5, n))


def feet_construction(n):
    # Feet on y = 0 at unequal steps, seen from S = (0.5, 2).
    feet = [Point(i + 0.25 * (i % 3), 0.0) for i in range(n)]
    return line_events(construct_simson_polygon, Point(0.5, 2.0),
                       Line(0.0, 1.0, 0.0), feet)


def knots(n):
    return line_events(optimal_knots, ApproxProblem(1.0, 1.0, -2.0, 2.0, n))


def convergence_level(n):
    # Level m of a table on [-1, 1] has 2^(m + 1) segments, n at this m.
    m = n.bit_length() - 2
    return (line_events(convergence_table, 1.0, 1.0, m)
            - line_events(convergence_table, 1.0, 1.0, m - 1))


@pytest.mark.parametrize("cost,limit", [
    (search_hit, LINEAR),
    (search_miss, LINEAR),
    (checks_hit, QUADRATIC),
    (equidistant, LINEAR),
    (feet_construction, LINEAR),
    (knots, LINEAR),
    (convergence_level, LINEAR),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_doubling_n_multiplies_the_work_by_at_most(cost, limit):
    assert all(r <= limit for r in ratios(cost)), ratios(cost)


def test_counting_restores_the_tracer_already_set():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        assert line_events(optimal_knots,
                           ApproxProblem(1.0, 1.0, -2.0, 2.0, 8)) > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
