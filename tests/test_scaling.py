"""verify judges the polygon, not the unit it is measured in.

Scaling every coordinate by 2^k is exact in binary floating point while
no value leaves the normal floats, and every threshold is relative to a
length of the data, so the scaled polygon must get the same exit code,
the same entries and verdicts, and, for the length families, the same
residual-to-limit ratio, bit for bit: ROADMAP's correctness aim asks
that tolerances come from the scale of the data.  The angle families
are judged at max(1, scale), so their ratios still move with k (ROADMAP
item 3).

The property's draws depend on the import history, not only on its
seed.  Hypothesis (6.155) mixes the numeric constants of every loaded
module outside ``tests/`` into its draws, and the package imports a
module only when a request runs it.  Run alone, this module has loaded
seven of the package's modules when it draws.  Collecting the whole
suite, as ``-k`` does, imports ``approx`` and ``limits`` too, and in a
full run earlier requests have also loaded ``svgfig``.  So
``@seed(2801)`` draws other polygons in each, and a new numeric literal
in any module of the package can change them.  Run alone, the draws
once found a polygon whose verdict the angle limits flip; it is pinned
from ``scaling_case.json``, which holds every number of it.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from geomgen import moved_equidistant, rigid_motion, verify_in_process
from simsonpoly import EquidistantConfig, Point, Polygon, \
    construct_simson_polygon, make_equidistant
from simsonpoly.scene import _perturbed

LENGTH_FAMILIES = ("midpoints-aligned", "optical", "archimedes-family",
                   "lambert")
ANGLE_FAMILIES = ("isogonal", "parallel-chords", "chord-tangent")
GENERAL_CHECKS = ["--checks", "simson,isogonal,lambert"]


@st.composite
def polygons(draw):
    """(vertices, extra verify arguments) of a polygon the package builds,
    moved rigidly, or of its 1e-3 negative control."""
    n = draw(st.integers(4, 128))
    cfg = EquidistantConfig(
        s=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 3.0)),
        x0=draw(st.floats(-3.0, 3.0)), delta=draw(st.floats(0.25, 1.5)),
        n=n)
    motion, x_axis = rigid_motion(draw(st.floats(0.0, 2.0 * math.pi)),
                                  (draw(st.floats(-10.0, 10.0)),
                                   draw(st.floats(-10.0, 10.0))))
    if draw(st.booleans()):
        vertices = [motion(v.x, v.y) for v in make_equidistant(cfg).vertices]
        extra = []
    else:
        # Feet near the equidistant grid, each moved by up to delta / 4.
        feet = [motion(cfg.x0 + (i + draw(st.floats(-0.25, 0.25)))
                       * cfg.delta, 0.0) for i in range(n)]
        s_point = motion(draw(st.floats(-2.0, 2.0)), cfg.s)
        vertices = list(construct_simson_polygon(s_point, x_axis,
                                                 feet).vertices)
        extra = GENERAL_CHECKS
    if draw(st.booleans()):
        control_seed = draw(st.integers(0, 2 ** 31 - 1))
        vertices = list(_perturbed(Polygon(tuple(vertices)), 1e-3,
                                   control_seed).vertices)
    return vertices, extra


def _scaled(vertices, k):
    return [Point(math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in vertices]


def _normal_squares(vertices):
    """Whether the square of the largest coordinate is a normal float."""
    top = max(max(abs(v.x), abs(v.y)) for v in vertices)
    return sys.float_info.min <= top * top <= sys.float_info.max


def _ratios(report, families):
    return {c["name"]: c["residual"] / c["limit"] for c in report["checks"]
            if c["name"] in families and "limit" in c}


def _entries(report):
    return None if report is None else \
        [(c["name"], c["pass"]) for c in report["checks"]]


def _assert_same_verdicts(vertices, scaled, extra):
    code, report = verify_in_process(vertices, *extra)
    scaled_code, scaled_report = verify_in_process(scaled, *extra)
    assert scaled_code == code
    assert _entries(scaled_report) == _entries(report)
    if report is not None:
        assert _ratios(scaled_report, LENGTH_FAMILIES) == \
            _ratios(report, LENGTH_FAMILIES)


@seed(2801)
@settings(max_examples=100, deadline=None)
@given(polygons(), st.integers(-500, 500))
def test_scaling_by_a_power_of_two_keeps_every_verdict(drawn, k):
    vertices, extra = drawn
    scaled = _scaled(vertices, k)
    assume(_normal_squares(scaled))
    _assert_same_verdicts(vertices, scaled, extra)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="isogonal is judged at max(1, scale): scaled by "
                   "2^-9 it fails at 1.2 times its limit, unscaled it passes "
                   "(ROADMAP item 3)")
def test_scaling_keeps_the_verdicts_of_the_pinned_polygon():
    # A general polygon, n = 98, that the property drew when this module
    # ran alone: exit 0 unscaled, exit 4 scaled.
    case = json.loads(Path(__file__).with_name("scaling_case.json")
                      .read_text(encoding="utf-8"))
    vertices = [Point(x, y) for x, y in case["vertices"]]
    _assert_same_verdicts(vertices, _scaled(vertices, case["k"]),
                          case["flags"])


@pytest.mark.xfail(strict=True, reason="angle limits are judged at "
                   "max(1, scale), not at a fixed bound (ROADMAP item 3)")
@pytest.mark.parametrize("k", [-20, 20])
def test_scaling_keeps_the_angle_families_ratios(k):
    vertices = moved_equidistant(EquidistantConfig(1.0, -3.5, 1.0, 8)).vertices
    _, report = verify_in_process(vertices)
    _, scaled_report = verify_in_process(_scaled(vertices, k))
    assert _ratios(scaled_report, ANGLE_FAMILIES) == \
        _ratios(report, ANGLE_FAMILIES)
