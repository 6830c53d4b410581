import math

import numpy as np
import pytest
from scipy.integrate import quad

from simsonpoly.approx import (
    _GL_NODES,
    _GL_WEIGHTS,
    ApproxProblem,
    UnorderedKnots,
    optimal_knots,
    quadrature_l1,
    quadrature_l2,
    total_error_objective,
)
from simsonpoly.equidistant import EquidistantConfig, make_equidistant
from simsonpoly.kernel import MAX_SEGMENTS, InvalidConfig, NonFinite, \
    TooManySegments, UsageError

P_UNIT = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=4.0, n=4)


def _random_problem(rng):
    s = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
    a = rng.uniform(-4.0, 2.0)
    b = a + rng.uniform(0.5, 5.0)
    return ApproxProblem(s=s, delta=rng.uniform(0.0, 1.0), a=a, b=b,
                         n=int(rng.integers(1, 7)))


def _segment(p, xi, xj):
    """The optimal grid of the one segment [xi, xj] of p's parabola, whose
    errors are that segment's."""
    return optimal_knots(ApproxProblem(p.s, p.delta, xi, xj, 1))


def _chord(p, knots, x):
    """The interpolant of f at the knots, evaluated at x, by numpy."""
    return float(np.interp(x, knots, [p.f(k) for k in knots]))


# ----------------------------------------------------------------- validation

def test_problem_validation():
    with pytest.raises(InvalidConfig,
                       match="^s must be nonzero and finite, got 0.0$"):
        ApproxProblem(s=0.0, delta=0.0, a=0.0, b=1.0, n=1)
    with pytest.raises(InvalidConfig, match="^delta must be >= 0, got -0.1$"):
        ApproxProblem(s=1.0, delta=-0.1, a=0.0, b=1.0, n=1)
    # The interval and the segment count are the caller's choice: usage
    # errors, not shapes that fail to exist.
    with pytest.raises(UsageError):
        ApproxProblem(s=1.0, delta=0.0, a=1.0, b=1.0, n=1)
    with pytest.raises(UsageError):
        ApproxProblem(s=1.0, delta=0.0, a=2.0, b=1.0, n=1)
    with pytest.raises(UsageError):
        ApproxProblem(s=1.0, delta=0.0, a=0.0, b=1.0, n=0)


def test_problem_segments_are_capped():
    assert ApproxProblem(1.0, 0.0, 0.0, 1.0, MAX_SEGMENTS).n == MAX_SEGMENTS
    with pytest.raises(TooManySegments, match=f"at most {MAX_SEGMENTS}"):
        ApproxProblem(1.0, 0.0, 0.0, 1.0, MAX_SEGMENTS + 1)


def test_problem_usage_rules_come_before_the_parabola():
    # An empty interval with s = 0 is refused as the interval, so the
    # command line keeps exit 2 for it whatever s is.
    with pytest.raises(UsageError, match="need a < b"):
        ApproxProblem(s=0.0, delta=-1.0, a=1.0, b=0.0, n=1)


def test_target_function():
    p = ApproxProblem(s=2.0, delta=1.0, a=-1.0, b=1.0, n=1)
    assert p.f(3.0) == pytest.approx(1.0)
    assert p.f(1.0) == pytest.approx(0.0)


# ------------------------------------------------------------- segment errors

def test_segment_l1_unit_case():
    assert _segment(P_UNIT, 0.0, 1.0).l1_error == pytest.approx(1.0 / 24.0)


def test_segment_l1_is_translation_invariant():
    p = ApproxProblem(s=1.7, delta=0.3, a=-10.0, b=10.0, n=1)
    base = _segment(p, 0.0, 1.3).l1_error
    for shift in (-4.0, 2.5, 7.0):
        assert _segment(p, shift, shift + 1.3).l1_error == pytest.approx(base)


def test_segment_l1_negative_s():
    p = ApproxProblem(s=-2.0, delta=0.0, a=0.0, b=2.0, n=1)
    assert _segment(p, 0.0, 2.0).l1_error == pytest.approx(8.0 / 48.0)


def test_segment_l1_matches_direct_integral():
    p = ApproxProblem(s=1.3, delta=0.4, a=0.0, b=3.0, n=1)
    got, _ = quad(lambda x: abs(p.f(x) - _chord(p, [0.5, 2.1], x)),
                  0.5, 2.1)
    assert _segment(p, 0.5, 2.1).l1_error == pytest.approx(got, rel=1e-9)


def test_segment_l2_unit_case():
    assert _segment(P_UNIT, 0.0, 1.0).l2_error == pytest.approx(1.0 / 480.0)


def test_segment_l2_width_scaling():
    # fifth power law: doubling the width scales by 32
    one = _segment(P_UNIT, 0.0, 1.0).l2_error
    two = _segment(P_UNIT, 0.0, 2.0).l2_error
    assert two == pytest.approx(32.0 * one)


def test_segment_l2_matches_direct_integral():
    p = ApproxProblem(s=-1.6, delta=0.2, a=0.0, b=3.0, n=1)
    got, _ = quad(lambda x: (p.f(x) - _chord(p, [0.4, 2.6], x)) ** 2,
                  0.4, 2.6)
    assert _segment(p, 0.4, 2.6).l2_error == pytest.approx(got, rel=1e-9)


def test_segment_errors_reject_bad_interval():
    # The ends are checked as the problem's interval: reversed, equal or NaN.
    for xi, xj in [(2.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(UsageError, match="need a < b"):
            _segment(P_UNIT, xi, xj)


# ------------------------------------------------------------------ objective

@pytest.mark.parametrize("s, xi, xj", [
    (1e-300, -1.0, 1.0),     # 480 s^2 underflows to zero
    (1e-160, -1.0, 1.0),     # the quotient overflows
    (1.0, -1e100, 1e100),    # h^5 overflows
    (1.0, -1e308, 1e308),    # the width itself overflows
])
def test_segment_errors_outside_float_range_raise(s, xi, xj):
    p = ApproxProblem(s=s, delta=0.0, a=xi, b=xj, n=1)
    with pytest.raises(NonFinite, match="leaves the float range"):
        optimal_knots(p)


def test_segment_l1_and_objective_outside_float_range_raise():
    p = ApproxProblem(s=1.0, delta=0.0, a=-1e200, b=1e200, n=2)
    message = r"^s = 1.0 on \[-1e\+200, 1e\+200\] leaves the float range$"
    with pytest.raises(NonFinite, match=message):
        _segment(p, p.a, p.b)
    with pytest.raises(NonFinite, match=message):
        total_error_objective(p, [0.0])


def test_objective_examples():
    p = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=6.0, n=3)
    assert total_error_objective(p, [1.0, 3.0]) == pytest.approx(1 + 8 + 27)
    assert total_error_objective(p, [0.5, 3.0]) == pytest.approx(
        0.125 + 15.625 + 27.0)


def test_objective_knot_count_and_order():
    p = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=6.0, n=3)
    with pytest.raises(InvalidConfig,
                       match="^expected 2 interior knots, got 1$"):
        total_error_objective(p, [1.0])
    with pytest.raises(UnorderedKnots):
        total_error_objective(p, [3.0, 1.0])
    with pytest.raises(UnorderedKnots):
        total_error_objective(p, [0.0, 3.0])  # collides with a


# -------------------------------------------------------------------- optimum

def test_optimal_knots_unit_case():
    res = optimal_knots(P_UNIT)
    assert res.knots == pytest.approx((0.0, 1.0, 2.0, 3.0, 4.0))
    assert res.l1_error == pytest.approx(1.0 / 6.0)
    assert res.l2_error == pytest.approx(4.0 / 480.0)
    assert res.knot_points[2] == pytest.approx((2.0, 1.0))


def test_optimal_single_segment():
    p = ApproxProblem(s=2.0, delta=0.5, a=-1.0, b=1.0, n=1)
    res = optimal_knots(p)
    assert res.knots == pytest.approx((-1.0, 1.0))
    assert res.l1_error == pytest.approx(8.0 / (24.0 * 2.0))


def test_equal_spacing_beats_nearby_grids():
    p = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=3.0, n=3)
    best = total_error_objective(p, [1.0, 2.0])
    for e1 in (-1e-2, 0.0, 1e-2, 1e-3):
        for e2 in (-1e-2, 0.0, 1e-2, -1e-3):
            if e1 == 0.0 and e2 == 0.0:
                continue
            assert total_error_objective(p, [1.0 + e1, 2.0 + e2]) > best


def test_equal_spacing_beats_grid_search():
    p = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=2.0, n=2)
    best = total_error_objective(p, [1.0])
    for t in np.linspace(0.05, 1.95, 191):
        assert total_error_objective(p, [t]) >= best - 1e-12


def test_optimal_grid_ends_at_b():
    # a + 3 h rounds to 0.7000000000000002 here; the last knot is b itself.
    res = optimal_knots(ApproxProblem(s=1.0, delta=0.0, a=-3.0, b=0.7, n=3))
    assert res.knots[-1] == 0.7
    assert res.knot_points[-1] == (0.7, 0.7 * 0.7 / 4.0)
    rng = np.random.default_rng(14)
    for _ in range(2000):
        a = float(rng.uniform(-4.0, -0.5))
        b = float(rng.uniform(0.5, 4.0))
        p = ApproxProblem(s=1.0, delta=0.0, a=a, b=b, n=int(rng.integers(1, 65)))
        knots = optimal_knots(p).knots
        assert (knots[0], knots[-1], len(knots)) == (a, b, p.n + 1)
        assert all(u < v for u, v in zip(knots, knots[1:]))


def test_optimal_grid_too_narrow_for_n_raises():
    # h = 2^-52 / 3: 1 + h rounds to 1, so the grid would repeat knots.
    p = ApproxProblem(s=1.0, delta=0.0, a=1.0, b=1.0000000000000002, n=3)
    with pytest.raises(UnorderedKnots, match="not strictly increasing"):
        optimal_knots(p)


def test_optimal_l1_agrees_with_objective():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = _random_problem(rng)
        res = optimal_knots(p)
        want = total_error_objective(p, res.knots[1:-1]) / (24.0 * abs(p.s))
        assert res.l1_error == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- quadrature

def test_quadrature_matches_closed_form_unit():
    res = optimal_knots(P_UNIT)
    assert quadrature_l1(P_UNIT, res.knots) == pytest.approx(res.l1_error,
                                                             abs=1e-12)
    assert quadrature_l2(P_UNIT, res.knots) == pytest.approx(res.l2_error,
                                                             abs=1e-12)


def test_quadrature_matches_closed_form_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = _random_problem(rng)
        res = optimal_knots(p)
        assert quadrature_l1(p, res.knots) == pytest.approx(res.l1_error,
                                                            rel=1e-10)
        assert quadrature_l2(p, res.knots) == pytest.approx(res.l2_error,
                                                            rel=1e-10)


def test_quadrature_on_uneven_knots():
    p = ApproxProblem(s=1.4, delta=0.6, a=0.0, b=5.0, n=3)
    knots = [0.0, 0.7, 2.9, 5.0]
    want = sum((v - u) ** 3 for u, v in zip(knots, knots[1:])) \
        / (24.0 * abs(p.s))
    assert quadrature_l1(p, knots) == pytest.approx(want, rel=1e-12)


def test_gauss_legendre_table_is_leggauss_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert _GL_NODES == tuple(nodes.tolist())
    assert _GL_WEIGHTS == tuple(weights.tolist())


def test_quadrature_rejects_bad_knots():
    with pytest.raises(UnorderedKnots):
        quadrature_l1(P_UNIT, [0.0])
    with pytest.raises(UnorderedKnots):
        quadrature_l2(P_UNIT, [0.0, 2.0, 1.0])


def test_quadrature_sum_past_float_range_is_inf():
    # Each segment's integral is finite, and their sum is not.  The first
    # segment is symmetric about the apex, so its chord is flat.
    knots = [-8.1e102, 8.1e102, 1.31e103]
    segments = [quadrature_l1(P_UNIT, knots[i:i + 2]) for i in (0, 1)]
    assert all(math.isfinite(q) for q in segments)
    assert segments[0] + segments[1] == math.inf
    assert quadrature_l1(P_UNIT, knots) == math.inf


# ---------------------------------------------------------------- interpolant

def test_interpolant_exact_at_knots():
    # The interpolant the package reports, its knot points, meets f there.
    res = optimal_knots(P_UNIT)
    assert len(res.knot_points) == P_UNIT.n + 1
    for (x, y), k in zip(res.knot_points, res.knots):
        assert x == k and y == pytest.approx(P_UNIT.f(x))


def test_interpolant_midpoint_value():
    # chord of x^2/4 over [0, 2] at x=1 gives 1/2, not the curve's 1/4
    p = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=2.0, n=1)
    xs, ys = zip(*optimal_knots(p).knot_points)
    assert np.interp(1.0, xs, ys) == pytest.approx(0.5)


def test_interpolant_chord_identity():
    # on [xi, xj] the chord is (x(xi+xj) - xi*xj - delta^2)/(4s)
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = _random_problem(rng)
        xi = rng.uniform(p.a, p.b - 0.1)
        xj = rng.uniform(xi + 0.1, p.b + 0.5)
        x = rng.uniform(xi, xj)
        want = (x * (xi + xj) - xi * xj - p.delta ** 2) / (4.0 * p.s)
        assert _chord(p, [xi, xj], x) == pytest.approx(want, abs=1e-12)
        # so f - l = (x - xi)(x - xj)/(4s), of one sign on the segment
        assert p.f(x) - _chord(p, [xi, xj], x) == pytest.approx(
            (x - xi) * (x - xj) / (4.0 * p.s), abs=1e-12)


def test_sup_norm_peaks_at_segment_midpoints():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = _random_problem(rng)
        res = optimal_knots(p)
        h = (p.b - p.a) / p.n
        cap = h * h / (16.0 * abs(p.s))
        xs = np.linspace(p.a, p.b, 2001)
        # The interpolant the package reports: the chain of its knot points.
        kx, ky = zip(*res.knot_points)
        gaps = [abs(p.f(x) - np.interp(x, kx, ky)) for x in xs]
        assert max(gaps) <= cap + 1e-10
        mid = p.a + 0.5 * h
        worst = abs(p.f(mid) - np.interp(mid, kx, ky))
        assert worst == pytest.approx(cap, rel=1e-10)


# -------------------------------------------------- chain correspondence

def test_knot_points_lie_on_equidistant_chain():
    # the optimal interpolant of a window [a, b] is the vertex chain of an
    # equidistant configuration with feet spacing h/2
    for s, a, b, n in [(1.0, 0.0, 4.0, 4), (2.0, -3.0, 1.0, 5),
                       (-1.5, 0.5, 2.5, 2)]:
        p = ApproxProblem(s=s, delta=(b - a) / (2 * n), a=a, b=b, n=n)
        res = optimal_knots(p)
        h = (b - a) / n
        cfg = EquidistantConfig(s=s, x0=a / 2.0 - h / 4.0, delta=h / 2.0,
                                n=n + 2)
        chain = make_equidistant(cfg).vertices[:-1]
        assert len(chain) == n + 1
        for (x, y), v in zip(res.knot_points, chain):
            assert x == pytest.approx(v.x, abs=1e-12)
            assert y == pytest.approx(v.y, abs=1e-12)


@pytest.mark.parametrize("knots", [[], [0.5]])
def test_interpolant_needs_two_knots(knots):
    # The quadratures integrate f minus the interpolant over the knots.
    for quadrature in (quadrature_l1, quadrature_l2):
        with pytest.raises(UnorderedKnots, match="need at least two knots"):
            quadrature(P_UNIT, knots)
