import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from geomgen import xy
from limits_oracle import dense_hausdorff
from simsonpoly import limits
from simsonpoly.equidistant import EquidistantConfig, Parabola, \
    make_equidistant
from simsonpoly.kernel import GeometryError, InvalidConfig, NonFinite, Point, \
    UsageError
from simsonpoly.limits import (
    MAX_SEGMENTS,
    ConvergenceRow,
    TooManySegments,
    _parabola_distance,
    chain_for_window,
    convergence_table,
    hausdorff_chain_parabola,
    observed_orders,
    point_to_parabola_distance,
)


# Reference: one np.roots call per point, the brute-force form of the
# closed-form cubic, measured by the dense oracle at each level.

def roots_distance(x, y, par):
    s, c = par.s, par.c
    roots = np.roots([1.0, 0.0, 8.0 * s * s - c - 4.0 * s * y,
                      -8.0 * s * s * x])
    best = math.inf
    for r in roots:
        rx = float(r.real)
        if abs(r.imag) <= 1e-8 * (1.0 + abs(rx)):
            best = min(best, math.hypot(x - rx, y - par.y_at(rx)))
    return best


def reference_table(s, w, m_max):
    par = Parabola(s, 0.0)
    return [dense_hausdorff(chain_for_window(s, w, 2.0 ** -m), par, w,
                            roots_distance) for m in range(m_max + 1)]


def test_chain_for_window_unit_spacing():
    chain = chain_for_window(1.0, 4.0, 1.0)
    assert len(chain) == 9
    assert [p.x for p in chain] == pytest.approx(list(range(-4, 5)))
    assert xy(chain[0]) == pytest.approx((-4.0, 3.9375))
    assert xy(chain[4]) == pytest.approx((0.0, -0.0625))
    assert xy(chain[-1]) == pytest.approx((4.0, 3.9375))


def test_chain_interpolates_shifted_parabola():
    # knots sit on y = (x^2 - delta^2/4)/(4s), i.e. C' lowered by d^2/(16s)
    s, w, d = 2.0, 3.0, 0.5
    for p in chain_for_window(s, w, d):
        assert p.y == pytest.approx((p.x * p.x - d * d / 4.0) / (4.0 * s))


@pytest.mark.parametrize("w", [2.0, 3.0, 4.0, 8.0])
def test_chain_is_bitwise_the_equidistant_chain(w):
    # The closed form in chain_for_window against the polygon it takes
    # the chain from: spacing d = 2^-m, feet spacing d/2, first foot x0.
    rng = np.random.default_rng(int(w))
    for m in range(11):
        d = 2.0 ** -m
        for sign in (1.0, -1.0):
            s = sign * float(rng.uniform(0.05, 20.0))
            cfg = EquidistantConfig(s, 0.5 * (-w - 0.5 * d), 0.5 * d,
                                    round(2.0 * w / d) + 2)
            want = make_equidistant(cfg).vertices[:-1]
            got = chain_for_window(s, w, d)
            assert [(p.x.hex(), p.y.hex()) for p in got] == \
                [(p.x.hex(), p.y.hex()) for p in want], (s, w, m)


@pytest.mark.parametrize("s", [0.0, -0.0, math.nan, math.inf])
def test_chain_needs_finite_nonzero_s(s):
    with pytest.raises(InvalidConfig,
                       match=f"^s must be nonzero and finite, got {s}$"):
        chain_for_window(s, 4.0, 1.0)


def test_chain_window_must_tile():
    with pytest.raises(GeometryError):
        chain_for_window(1.0, 4.0, 0.3)
    # A window or spacing that is not positive is the caller's error.
    with pytest.raises(UsageError, match="spacing must be positive"):
        chain_for_window(1.0, 4.0, 0.0)
    with pytest.raises(UsageError, match="window must be positive"):
        chain_for_window(1.0, -1.0, 0.5)


# A window or spacing that gives no finite segment count, including the
# finite (1e300, 1e-300) whose count overflows, is refused before rounding.
@pytest.mark.parametrize("w, d", [(math.inf, 1.0), (4.0, math.nan),
                                  (math.nan, 1.0), (1e300, 1e-300)])
def test_chain_refuses_a_non_finite_segment_count(w, d):
    with pytest.raises(NonFinite, match="no finite number of segments"):
        chain_for_window(1.0, w, d)


def test_point_to_parabola_distance_frozen():
    par = Parabola(1.0, 0.0)  # y = x^2/4, apex at origin
    assert point_to_parabola_distance(Point(0, 1), par) == pytest.approx(1.0)
    assert point_to_parabola_distance(Point(2, 1), par) == pytest.approx(0.0,
                                                                         abs=1e-12)
    left = point_to_parabola_distance(Point(-3, 0.5), par)
    right = point_to_parabola_distance(Point(3, 0.5), par)
    assert left == pytest.approx(right)


def test_point_to_parabola_distance_beats_sampling():
    rng = np.random.default_rng(6)
    par = Parabola(-1.3, 0.7)
    xs = np.linspace(-6, 6, 20001)
    ys = (xs * xs - par.c) / (4.0 * par.s)
    for _ in range(20):
        p = Point(*rng.uniform(-4, 4, 2))
        exact = point_to_parabola_distance(p, par)
        sampled = float(np.min(np.hypot(xs - p.x, ys - p.y)))
        assert exact <= sampled + 1e-12
        assert exact == pytest.approx(sampled, abs=1e-6)


def test_hausdorff_unit_chain():
    chain = chain_for_window(1.0, 4.0, 1.0)
    d = hausdorff_chain_parabola(chain, Parabola(1.0, 0.0), 4.0)
    assert d == pytest.approx(1.0 / 16.0, rel=1e-9)


def test_convergence_table_frozen():
    rows = convergence_table(1.0, 4.0, 3)
    assert [r.delta for r in rows] == pytest.approx([1.0, 0.5, 0.25, 0.125])
    for r in rows:
        assert r.bound == pytest.approx(r.delta ** 2 / 16.0)
        assert r.hausdorff == pytest.approx(r.bound, rel=1e-9)
        assert r.hausdorff / r.bound == pytest.approx(1.0, rel=1e-9)


def test_observed_orders_are_quadratic():
    rows = convergence_table(1.0, 4.0, 4)
    for order in observed_orders(rows):
        assert order == pytest.approx(2.0, abs=1e-6)


def test_sign_of_s_does_not_matter():
    up = convergence_table(1.0, 2.0, 3)
    down = convergence_table(-1.0, 2.0, 3)
    for a, b in zip(up, down):
        assert a.hausdorff == pytest.approx(b.hausdorff, rel=1e-12)
        assert a.bound == pytest.approx(b.bound)


def test_table_rejects_negative_depth():
    with pytest.raises(UsageError, match="m_max must be >= 0, got -1"):
        convergence_table(1.0, 4.0, -1)


@pytest.mark.parametrize("s", [1.0, 0.0, 1e300])
def test_table_judges_the_window_sign_first(s):
    # Before the parabola and the float-range guard, which would give a
    # GeometryError for s = 0, s = 1e300 or a window of -1e300.
    with pytest.raises(UsageError, match="window must be positive"):
        convergence_table(s, -1e300, 2)


def test_segment_cap_is_the_kernel_class():
    from simsonpoly import kernel
    assert TooManySegments is kernel.TooManySegments
    assert issubclass(TooManySegments, UsageError)


def test_rows_are_value_objects():
    row = ConvergenceRow(delta=0.5, hausdorff=0.015625, bound=0.015625,
                         chain_to_parabola=0.015625)
    assert row == ConvergenceRow(0.5, 0.015625, 0.015625, 0.015625)
    assert row.hausdorff / row.bound == pytest.approx(1.0)


def _evolute_points(par, ts):
    # x^3 + beta x + gamma has the double root t when beta = -3 t^2 and
    # gamma = 2 t^3; solve the cubic's coefficients for the point.
    s, c = par.s, par.c
    return [Point(-t ** 3 / (4.0 * s * s),
                  (8.0 * s * s - c + 3.0 * t * t) / (4.0 * s)) for t in ts]


def _branch(p, par):
    # The closed form of _parabola_distance that the point's cubic takes.
    s, c = par.s, par.c
    beta = 8.0 * s * s - c - 4.0 * s * p.y
    gamma = -8.0 * s * s * p.x
    if beta == 0.0:
        return "beta = 0"
    if beta > 0.0:
        return "beta > 0"
    m = math.sqrt(-beta / 3.0)
    return "one root" if abs(1.5 * gamma / beta / m) > 1.0 else "three roots"


PARABOLAS = [(1.0, 0.0), (-1.0, 0.0), (0.35, 0.8), (-2.6, -1.7)]


@pytest.mark.parametrize("s, c", PARABOLAS)
def test_batched_distance_matches_roots_loop(s, c):
    rng = np.random.default_rng(17)
    par = Parabola(s, c)
    pts = [Point(*xy) for xy in rng.uniform(-5, 5, (400, 2))]
    pts += [Point(0.0, y) for y in rng.uniform(-5, 5, 40)]  # gamma = 0
    pts += [Point(0.0, 0.0), Point(-0.0, 1.0)]
    pts += _evolute_points(par, np.concatenate([[0.0, 1.0, -1.0],
                                                rng.uniform(-3, 3, 40)]))
    xs = rng.uniform(-5, 5, 40)
    pts += [Point(x, par.y_at(x)) for x in xs]  # on the curve
    branches = set()
    for p in pts:
        got = _parabola_distance(p.x, p.y, par)
        assert got == pytest.approx(roots_distance(p.x, p.y, par),
                                    rel=1e-12, abs=1e-12)
        assert point_to_parabola_distance(p, par) == got
        branches.add(_branch(p, par))
    assert branches >= {"beta > 0", "one root", "three roots"}


@pytest.mark.parametrize("s, c", [(1.0, 0.0), (-1.0, 0.0), (0.5, 0.0),
                                  (-2.0, 1.0)])
def test_cube_root_branch_matches_roots(s, c):
    # beta = 8 s^2 - c - 4 s y vanishes exactly on the line y = y0.
    par = Parabola(s, c)
    y0 = (8.0 * s * s - c) / (4.0 * s)
    rng = np.random.default_rng(23)
    for x in [0.0, -0.0, 1.0, -1.0, 1e-9, *rng.uniform(-5, 5, 40)]:
        p = Point(float(x), y0)
        assert _branch(p, par) == "beta = 0"
        assert point_to_parabola_distance(p, par) == pytest.approx(
            roots_distance(p.x, p.y, par), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s, c", PARABOLAS)
def test_evolute_double_roots_match_roots(s, c):
    # On the evolute the cubic has a double root, where the closed form
    # sits on the border between one and three real roots.
    par = Parabola(s, c)
    pts = _evolute_points(par, np.linspace(-3.0, 3.0, 241))
    assert {_branch(p, par) for p in pts} >= {"one root", "three roots"}
    for p in pts:
        assert point_to_parabola_distance(p, par) == pytest.approx(
            roots_distance(p.x, p.y, par), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s, c", PARABOLAS)
def test_on_curve_distance_is_rounding(s, c):
    # A point of the curve is off it only by the rounding of its y, which
    # Fraction measures exactly.  The computed distance may add the
    # rounding of (x^2 - c)/(4 s) at the polished root, of the root itself
    # (times the slope) and of hypot: a few ulps of y, 8 at most.  The
    # unpolished closed-form root misses by up to ~30 ulps of y.
    par = Parabola(s, c)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1e4, 1e4, 200).tolist() + \
            rng.uniform(-50.0, 50.0, 200).tolist():
        p = Point(x, par.y_at(x))
        off = abs(Fraction(p.y) - (Fraction(p.x) ** 2 - Fraction(c))
                  / (4 * Fraction(s)))
        assert point_to_parabola_distance(p, par) <= (float(off)
                                                      + 8 * math.ulp(p.y))


@pytest.mark.parametrize("s", [0.7, -0.7, 2.9])
@pytest.mark.parametrize("w", [2.0, 3.0, 4.0])
def test_convergence_table_matches_reference(s, w):
    rows = convergence_table(s, w, 5)
    ref = reference_table(s, w, 5)
    assert [r.hausdorff for r in rows] == pytest.approx(ref, rel=1e-12)


def test_hausdorff_never_calls_per_point_distance(monkeypatch):
    calls = []
    original = limits.point_to_parabola_distance

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(limits, "point_to_parabola_distance", counted)
    chain = chain_for_window(1.0, 2.0, 0.25)
    hausdorff_chain_parabola(chain, Parabola(1.0, 0.0), 2.0)
    convergence_table(1.0, 2.0, 2)
    assert calls == []


@pytest.mark.parametrize("s, w, m_max", [(1.0, 2.0, 3), (-0.7, 3.0, 4),
                                         (2.5, 0.5, 2), (0.05, 8.0, 5)])
def test_table_measures_each_vertex_once(monkeypatch, s, w, m_max):
    # One cubic per vertex per level, so no per-sample loop comes back.
    calls = []
    original = limits._parabola_distance

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(limits, "_parabola_distance", counted)
    convergence_table(s, w, m_max)
    assert len(calls) == sum(round(2 * w * 2 ** m) + 1
                             for m in range(m_max + 1))


def test_rows_record_the_vertex_maximum():
    # Apex vertices (delta divides w) sit D^2/(16|s|) below C', as far as
    # the arc ends from the chain; without one, the vertices are nearer.
    s = -1.3
    for w, apex in [(4.0, True), (1.5, False)]:
        for r in convergence_table(s, w, 3):
            chain = chain_for_window(s, w, r.delta)
            near = max(_parabola_distance(p.x, p.y, Parabola(s, 0.0))
                       for p in chain)
            assert r.chain_to_parabola == near
            assert r.chain_to_parabola <= r.hausdorff
            if apex or r.delta < 1.0:
                assert near == pytest.approx(r.bound, rel=1e-12)
            else:
                assert near < r.bound


def _every_segment(chain, par, w):
    """(chain to parabola, arc to chain) with every segment measured from
    each arc end, in the chain's own orientation."""
    near = max(_parabola_distance(p.x, p.y, par) for p in chain)
    far = max(min(limits._segment_distance(x, par.y_at(x), a.x, a.y, b.x, b.y)
                  for a, b in zip(chain, chain[1:]))
              for x in (-w, w))
    return near, far


def _seeded_studies():
    # s = +-10^U(-2, 2) for each window and depth, then the precision
    # edge of test_study_just_above_precision_is_measured.
    rng = random.Random(51)
    studies = [(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0),
                w, m_max)
               for w in (0.5, 1.5, 2.0, 3.0, 4.0, 8.0) for m_max in range(8)]
    return studies + [(1e9, 2.0, 2), (-1e8, 4.0, 2), (1e8, 2.0, 4)]


@pytest.mark.parametrize("s, w, m_max", _seeded_studies())
def test_table_keeps_every_bit_of_the_every_segment_route(s, w, m_max):
    # The scan from each arc end stops early; what it returns must be the
    # every-segment route's distances, bit for bit.
    par = Parabola(s, 0.0)
    for r in convergence_table(s, w, m_max):
        chain = chain_for_window(s, w, r.delta)
        near, far = _every_segment(chain, par, w)
        assert r.chain_to_parabola.hex() == near.hex()
        assert r.hausdorff.hex() == max(near, far).hex()
        assert hausdorff_chain_parabola(chain, par, w).hex() == \
            r.hausdorff.hex()


def test_chain_without_increasing_abscissae_is_scanned_whole():
    # A last vertex back near the left arc end puts the segment nearest
    # that end last in the scan; a stop on the x-gap would miss it.
    s, w = 1.0, 2.0
    par = Parabola(s, 0.0)
    chain = chain_for_window(s, w, 0.5)
    folded = chain + [Point(-w, par.y_at(-w) + 1e-3)]
    near, far = limits._directed_distances(
        [p.x for p in folded], [p.y for p in folded], par, w)
    assert (near, far) == _every_segment(folded, par, w)
    assert far < _every_segment(chain, par, w)[1]
    assert hausdorff_chain_parabola(folded, par, w) == max(near, far)


def test_one_vertex_chain_is_its_distance_to_the_arc_ends():
    # With no segment to scan, an arc end (+-2, 1) lies as far from the
    # chain as from its one vertex, the apex (0, 0): sqrt(5).
    assert hausdorff_chain_parabola([Point(0, 0)], Parabola(1.0, 0.0),
                                    2.0) == math.sqrt(5.0)


_U = 2.0 ** -53


@seed(16)
@settings(max_examples=150, deadline=None)
@given(st.floats(0.01, 10.0), st.sampled_from([1.0, -1.0]),
       st.sampled_from([0.5 * k for k in range(1, 17)]),
       st.integers(0, 6))
def test_hausdorff_is_the_bound_and_above_the_dense_oracle(mag, sign, w,
                                                           m_max):
    # The chain's vertices and the arc ends are rounded at the study's
    # scale max(w, w^2/(4|s|)): a vertex y = (a b)/s with rounded a and
    # b to 4 u |y|, an end y = x^2/(4 s) to 2 u |y|.  The distance is
    # their difference, so it is off the bound by up to 8 u scale beyond
    # the bound's own 1e-12.  The dense oracle samples true distances,
    # so it may not exceed the closed form by more than 1e-12 bound.
    s = sign * mag
    par = Parabola(s, 0.0)
    scale = max(w, w * w / (4.0 * mag))
    for r in convergence_table(s, w, m_max):
        assert abs(r.hausdorff - r.bound) <= 1e-12 * r.bound + 8 * _U * scale
        dense = dense_hausdorff(chain_for_window(s, w, r.delta), par, w,
                                _parabola_distance)
        assert r.hausdorff >= dense - 1e-12 * r.bound


@pytest.mark.parametrize("s, w", [(1e-310, 4.0), (1e300, 4.0),
                                  (1.0, 1e300), (-1e-160, 4.0)])
def test_overflowing_study_is_refused(s, w):
    with pytest.raises(NonFinite, match="float range"):
        convergence_table(s, w, 1)


def _oracle_ratios(s, w, m_max):
    return [h * 16.0 * abs(s) / 4.0 ** -m
            for m, h in enumerate(reference_table(s, w, m_max))]


@pytest.mark.parametrize("s, w, m_max", [(1e9, 2.0, 2), (-1e8, 4.0, 2),
                                         (1e8, 2.0, 4)])
def test_study_just_above_precision_is_measured(s, w, m_max):
    # Finest bound 1.2..9.8 times 1e-12 * max(w, w^2/(4|s|)): the
    # np.roots oracle still measures the bound to 1e-6, and the table
    # agrees with it.
    ratios = _oracle_ratios(s, w, m_max)
    assert max(abs(r - 1.0) for r in ratios) < 1e-6
    rows = convergence_table(s, w, m_max)
    assert [r.hausdorff for r in rows] == pytest.approx(
        reference_table(s, w, m_max), rel=1e-12)


@pytest.mark.parametrize("s, w, m_max", [(3e9, 2.0, 2), (-1e9, 4.0, 2),
                                         (1e9, 2.0, 4), (1e20, 4.0, 2)])
def test_study_below_precision_is_refused(s, w, m_max):
    with pytest.raises(GeometryError, match="float precision"):
        convergence_table(s, w, m_max)


def test_study_far_below_precision_is_noise():
    # Where the refusal guards against: the oracle's own ratios at
    # s = 1e14 are off by more than the bound itself.
    assert max(abs(r - 1.0) for r in _oracle_ratios(1e14, 2.0, 2)) > 1.0


@pytest.mark.parametrize("w, m_max", [(1e5, 0), (4.0, 12), (2.0, 10 ** 30)])
def test_oversized_chain_is_refused(w, m_max):
    with pytest.raises(TooManySegments):
        convergence_table(1.0, w, m_max)


def test_segment_cap_admits_the_studied_range(monkeypatch):
    # The benchmarked grid (windows 2-4, m_max 6-7), window 4 at m_max 8
    # and the cap itself (2 * 4 * 2^11 segments) pass both guards and
    # reach the first chain's coordinates, which are stubbed out so
    # nothing is built.
    def stop(*args):
        raise LookupError

    monkeypatch.setattr(limits, "_window_chain", stop)
    for w, m_max in [(2.0, 7), (3.0, 7), (4.0, 7), (4.0, 8), (4.0, 11)]:
        with pytest.raises(LookupError):
            convergence_table(1.3, w, m_max)
    assert 2 * 4 * 2 ** 11 == MAX_SEGMENTS
