import math
import random
import statistics
import sys

import numpy as np
import pytest

from geomgen import chord_slope, foot_line, lines_equal_tight, \
    moved_equidistant, random_equidistant_config, w_point, xy
from simsonpoly.equidistant import (
    EquidistantConfig,
    IndexOutOfRange,
    InvalidConfig,
    Parabola,
    SimsonPolygonFrame,
    associated_parabola,
    equidistant_from_frame,
    frame_from_certificate,
    make_equidistant,
    midpoint_parabola,
    verify_archimedes,
    verify_isogonal,
    verify_lambert,
    verify_optical,
    verify_parallel_chords,
)
from judged import max_residual, rule_limit
from simsonpoly.kernel import REL_EPS, DegenerateConfiguration, Line, \
    NonFinite, Point, UsageError, bound, circumcircle, line_through
from simsonpoly.report import VerificationReport
from simsonpoly.simson import Polygon, construct_simson_polygon, \
    find_simson_point, is_simson_point

OCT_CFG = EquidistantConfig(s=1, x0=0, delta=1, n=8)
OCT = make_equidistant(OCT_CFG)


# -------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=0, x0=0, delta=1, n=8)
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=1, x0=0, delta=0, n=8)
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=1, x0=0, delta=-1, n=8)
    with pytest.raises(UsageError, match="^n must be an integer >= 3, got 2$"):
        EquidistantConfig(s=1, x0=0, delta=1, n=2)


def test_foot_abscissae():
    cfg = EquidistantConfig(s=1, x0=2, delta=0.5, n=5)
    assert [cfg.foot_abscissa(i) for i in (1, 2, 5)] == [2.0, 2.5, 4.0]


# ------------------------------------------------------------------ generator

def test_octagon_leading_vertices():
    want = [(1, 0), (3, 2), (5, 6), (7, 12), (9, 20), (11, 30), (13, 42)]
    for v, w in zip(OCT.vertices[:-1], want):
        assert xy(v) == pytest.approx(w)


def test_octagon_closing_vertex():
    # V_8 joins the perpendiculars at X_8 (x=7) and X_1 (x=0)
    assert xy(OCT.vertices[-1]) == pytest.approx((7.0, 0.0))


def test_negative_s_flips_below_line():
    poly = make_equidistant(EquidistantConfig(s=-1, x0=0, delta=1, n=8))
    assert xy(poly.vertices[1]) == pytest.approx((3.0, -2.0))


def test_scaled_octagon_is_the_unit_octagon_scaled_bit_for_bit():
    # Scaling (s, x0, delta) by 2^k scales every vertex and foot exactly,
    # so the product of two feet must not leave the float range where
    # the vertex it builds does not.
    unit = make_equidistant(EquidistantConfig(1.0, -3.5, 1.0, 8))
    for k in range(-1020, 1021):
        poly = make_equidistant(EquidistantConfig(
            math.ldexp(1.0, k), math.ldexp(-3.5, k), math.ldexp(1.0, k), 8))
        for got, want in zip(poly.vertices + poly.projections,
                             unit.vertices + unit.projections):
            assert xy(got) == (math.ldexp(want.x, k), math.ldexp(want.y, k)), k


def test_vertex_beyond_the_float_range_is_non_finite():
    # V_8's y is about 1e320, and with s = -1e-160 against feet near
    # 1e200 the closing y is about 1e560.
    with pytest.raises(NonFinite):
        make_equidistant(EquidistantConfig(1.0, 1e160, 1.0, 8))
    with pytest.raises(NonFinite):
        make_equidistant(EquidistantConfig(-1e-160, 1e200, 1e-200, 3))


def _plain_y(s, x0, d, i):
    """V_i's y by the plain formula, or None when its product or its
    quotient underflows or overflows."""
    u, v = x0 + (i - 1) * d, x0 + i * d
    y = u * v / s
    if u == 0.0 or v == 0.0 or all(
            sys.float_info.min <= abs(t) <= sys.float_info.max
            for t in (u * v, y)):
        return y
    return None


def test_vertices_are_the_plain_formula_wherever_it_stays_normal():
    # Feet and s from 1e-320 to 1e308: the scaled products keep the plain
    # formula's bits wherever it has them, and otherwise give a finite
    # vertex or NonFinite, never another error.
    rng = np.random.default_rng(30)
    compared = 0
    for _ in range(3000):
        s, x0, delta = (float(rng.choice([-1.0, 1.0])
                              * 10.0 ** rng.uniform(-320.0, 308.0))
                        for _ in range(3))
        cfg = EquidistantConfig(s, x0, abs(delta), int(rng.integers(3, 18)))
        try:
            chain = make_equidistant(cfg).vertices[:-1]
        except NonFinite:
            continue
        for i, v in enumerate(chain, 1):
            want = _plain_y(cfg.s, cfg.x0, cfg.delta, i)
            if want is not None:
                assert v.y == want, (cfg, i)
                compared += 1
    assert compared > 1000


def test_generated_polygon_admits_its_simson_point():
    cert = is_simson_point(Point(0, 1), OCT.polygon())
    assert cert is not None
    got = sorted(cert.projections, key=lambda p: p.x)
    want = sorted(OCT.projections, key=lambda p: p.x)
    for g, w in zip(got, want):
        assert g.distance(w) < 1e-12


def test_vertices_match_perpendicular_construction():
    # closed form against the generic side-line construction
    rng = np.random.default_rng(3)
    for _ in range(100):
        cfg = random_equidistant_config(rng)
        poly = make_equidistant(cfg)
        feet = [Point(cfg.foot_abscissa(i), 0.0) for i in range(1, cfg.n + 1)]
        built = construct_simson_polygon(Point(0, cfg.s), Line(0, 1, 0), feet)
        scale = poly.scale()
        for v, w in zip(poly.vertices, built.vertices):
            assert v.distance(w) <= 1e-9 * scale


def test_foot_line_is_tangent_to_midpoint_parabola():
    polygon = OCT.polygon()
    for i in range(1, OCT_CFG.n + 1):
        # Side V_{i-1} V_i, 0-based side i - 2, carries the foot X_i.
        line = polygon.side_line(i - 2)
        assert lines_equal_tight(line, foot_line(OCT_CFG, i))
        x = OCT_CFG.foot_abscissa(i)
        assert line.distance(Point(x, 0.0)) < 1e-12
        # tangency point of the side line on C'
        assert abs(line.signed_distance(Point(2 * x, x * x / OCT_CFG.s))) \
            < 1e-12


# ------------------------------------------------------------------ parabolas

def test_associated_parabola_carries_chain():
    par = associated_parabola(OCT_CFG)
    assert par.c == pytest.approx(1.0)
    assert par.y_at(3.0) == pytest.approx(2.0)
    for v in OCT.vertices[:-1]:
        assert abs(v.y - par.y_at(v.x)) < 1e-12


def test_associated_parabola_ignores_x0():
    a = associated_parabola(EquidistantConfig(s=1, x0=0, delta=1, n=8))
    b = associated_parabola(EquidistantConfig(s=1, x0=5, delta=1, n=8))
    assert (a.s, a.c) == (b.s, b.c)
    shifted = make_equidistant(EquidistantConfig(s=1, x0=5, delta=1, n=8))
    for v in shifted.vertices[:-1]:
        assert abs(v.y - a.y_at(v.x)) < 1e-9


def test_midpoint_parabola_and_tangency():
    par = midpoint_parabola(OCT_CFG)
    m1 = OCT.vertices[0].midpoint(OCT.vertices[1])
    assert xy(m1) == pytest.approx((2.0, 1.0))
    assert par.y_at(2.0) == pytest.approx(1.0)
    # side V1V2 has slope 1, the slope x/(2s) of the parabola at M1
    side = OCT.polygon().side_line(0)
    assert -side.a / side.b == pytest.approx(1.0)
    assert m1.x / (2.0 * par.s) == pytest.approx(1.0)


def test_midpoint_parabola_focus_is_simson_point():
    for s in (1.0, -2.0, 0.5):
        cfg = EquidistantConfig(s=s, x0=0.3, delta=0.7, n=6)
        par = midpoint_parabola(cfg)
        # y = (x^2 - c)/(4s) has its focus at (0, s - c/(4s)).
        focus = (0.0, par.s - par.c / (4.0 * par.s))
        assert focus == pytest.approx((0.0, s))
        assert xy(make_equidistant(cfg).simson_point) == pytest.approx((0.0, s))


def test_parabola_and_invalid_config_are_the_kernel_types():
    # Both live in kernel, so limits can use them without this module.
    from simsonpoly import kernel
    assert Parabola is kernel.Parabola
    assert InvalidConfig is kernel.InvalidConfig
    with pytest.raises(InvalidConfig,
                       match="^s must be nonzero and finite, got 0.0$"):
        Parabola(0.0)


def test_delta_to_zero_limit_is_midpoint_parabola():
    small = associated_parabola(EquidistantConfig(s=1, x0=0, delta=1e-8, n=4))
    assert small.c == pytest.approx(0.0, abs=1e-15)


# -------------------------------------------------------------- chords and W

def test_chord_slope_examples():
    assert chord_slope(OCT_CFG, 1, 2) == pytest.approx(1.0)
    assert chord_slope(OCT_CFG, 1, 6) == pytest.approx(3.0)
    assert chord_slope(OCT_CFG, 2, 5) == pytest.approx(3.0)
    assert chord_slope(OCT_CFG, 3, 4) == pytest.approx(3.0)


def test_chord_slope_matches_numeric_slope():
    for i in range(1, 7):
        for j in range(i + 1, 8):
            vi, vj = OCT.vertices[i - 1], OCT.vertices[j - 1]
            num = (vj.y - vi.y) / (vj.x - vi.x)
            assert chord_slope(OCT_CFG, i, j) == pytest.approx(num)


def test_chord_slope_depends_only_on_index_sum():
    cfg = random_equidistant_config(np.random.default_rng(8), n_range=(8, 8))
    pairs = [(1, 6), (2, 5), (3, 4)]
    slopes = {chord_slope(cfg, i, j) for i, j in pairs}
    assert max(slopes) - min(slopes) < 1e-12


def test_chord_slope_index_errors():
    with pytest.raises(IndexOutOfRange):
        chord_slope(OCT_CFG, 2, 2)
    with pytest.raises(IndexOutOfRange):
        chord_slope(OCT_CFG, 1, 8)  # V_8 not on the chain


def test_w_point_example():
    assert xy(w_point(OCT_CFG, 1, 3)) == pytest.approx((4.0, 3.0))


def test_w_point_of_consecutive_sides_is_vertex():
    for i in range(1, 6):
        assert w_point(OCT_CFG, i, i + 1).distance(OCT.vertices[i]) < 1e-12


def test_w_point_matches_side_line_intersection():
    for i, j in [(1, 3), (2, 5), (1, 6), (4, 6)]:
        li = line_through(OCT.vertices[i - 1], OCT.vertices[i])
        lj = line_through(OCT.vertices[j - 1], OCT.vertices[j])
        from simsonpoly.kernel import line_intersection
        got = line_intersection(li, lj)
        assert w_point(OCT_CFG, i, j).distance(got) < 1e-9


def test_w_point_aligns_with_chord_midpoint():
    for i, j in [(1, 3), (2, 4), (1, 5)]:
        w = w_point(OCT_CFG, i, j)
        m = OCT.vertices[i - 1].midpoint(OCT.vertices[j])   # of V_i V_{j+1}
        assert w.x == pytest.approx(m.x)


def test_w_point_index_errors():
    with pytest.raises(IndexOutOfRange):
        w_point(OCT_CFG, 1, 1)
    with pytest.raises(IndexOutOfRange):
        w_point(OCT_CFG, 1, 7)


# ------------------------------------------------------------------ verifiers

def _perturbed(poly, eps=1e-3, which=1):
    verts = list(poly.vertices)
    v = verts[which]
    verts[which] = Point(v.x + eps, v.y - eps)
    return SimsonPolygonFrame(vertices=tuple(verts),
                              projections=poly.projections,
                              simson_point=poly.simson_point)


def _family(report, name):
    """The one check family of report named name."""
    [family] = [c for c in report.checks if c.name == name]
    return family


def test_parallel_chords_pass_on_octagon():
    report = verify_parallel_chords(OCT)
    assert report.overall
    assert max_residual(report) < 1e-9
    names = {c.name for c in report.checks}
    assert names == {"parallel-chords", "chord-tangent", "midpoints-aligned"}


def test_parallel_chords_family_of_figure_checks(judged):
    # family i+j = 7 is V1V6, V2V5, V3V4; all slope 3, midpoints share x
    report = verify_parallel_chords(OCT)
    rows = judged.rows(report)
    fam = _family(report, "parallel-chords")
    fams = [r for idx, r in rows[fam.name] if idx == (7,)]
    assert len(fams) == 1 and fams[0] <= fam.limit
    mid = _family(report, "midpoints-aligned")
    mids = [r for idx, r in rows[mid.name] if idx == (7,)]
    assert len(mids) == 1 and mids[0] <= mid.limit


def test_parallel_chords_vacuous_for_triangle():
    tri = make_equidistant(EquidistantConfig(s=1, x0=0, delta=1, n=3))
    report = verify_parallel_chords(tri)
    assert report.overall


def test_parallel_chords_fail_on_perturbation():
    assert not verify_parallel_chords(_perturbed(OCT)).overall


def test_isogonal_passes_on_octagon(judged):
    report = verify_isogonal(OCT)
    assert report.overall
    assert len(judged.rows(report)["isogonal"]) == 8


def test_isogonal_passes_on_general_simson_polygon():
    feet = [Point(x, 0.0) for x in (0.0, 0.3, 1.1, 2.0)]
    poly = construct_simson_polygon(Point(0.2, 1.0), Line(0, 1, 0), feet)
    cert = find_simson_point(poly)
    frame = frame_from_certificate(poly, cert)
    assert verify_isogonal(frame).overall


def test_isogonal_skips_vertices_on_line():
    # feet at -1, 0, 1 put two vertices exactly on the simson line
    poly = construct_simson_polygon(Point(0, 1), Line(0, 1, 0),
                                    [Point(-1, 0), Point(0, 0), Point(1, 0)])
    cert = find_simson_point(poly)
    frame = frame_from_certificate(poly, cert)
    report = verify_isogonal(frame)
    assert report.overall
    assert any("skipped" in c.note for c in report.checks)


def test_isogonal_skips_a_vertex_at_s():
    # V_1 = S leaves its ray toward S with no length.
    frame = SimsonPolygonFrame(
        vertices=[Point(0, 1), Point(2, -1), Point(-2, -1)],
        projections=[Point(-1, 0), Point(1, 0), Point(0, 0)],
        simson_point=Point(0, 1))
    (check,) = verify_isogonal(frame).checks
    assert check.note == "skipped: degenerate ray at 1"


def test_isogonal_fails_on_perturbation():
    assert not verify_isogonal(_perturbed(OCT)).overall


def test_optical_passes_on_octagon(judged):
    report = verify_optical(OCT)
    assert report.overall
    assert len(judged.rows(report)["optical"]) == 6


def test_optical_fails_when_focus_moves():
    moved = SimsonPolygonFrame(vertices=OCT.vertices,
                               projections=OCT.projections,
                               simson_point=Point(0.0, 1.1))
    assert not verify_optical(moved).overall


def test_chord_tangent_fails_when_focus_moves():
    # chord-tangent reads s as the Simson point's height: moving S to
    # (0, 1.1) fails it, and the two families that do not read s pass.
    octagon = make_equidistant(EquidistantConfig(1.0, -3.5, 1.0, 8))
    moved = SimsonPolygonFrame(vertices=octagon.vertices,
                               projections=octagon.projections,
                               simson_point=Point(0.0, 1.1))
    report = verify_parallel_chords(moved)
    assert {c.name: c.passed for c in report.checks} == {
        "parallel-chords": True, "chord-tangent": False,
        "midpoints-aligned": True}
    tangent = _family(report, "chord-tangent")
    assert tangent.residual > 1e6 * tangent.limit


def test_chord_tangent_refuses_an_infinite_scale():
    # At the index sum 6 the chord V_2 V_4 is 2e308 wide, past the float
    # range, and V_3 has x = 0: unscaled, its angle to the tangent at V_3
    # was inf * 0, a NaN.  The frame's scale is infinite, so there is no
    # limit to judge it at.
    frame = _frame([(0, 0), (-1e308, 0), (0, 1), (1e308, 0), (1, 1),
                    (5, 5)])
    with pytest.raises(NonFinite, match="scale inf leaves the float range"):
        verify_parallel_chords(frame)


def test_every_verifier_refuses_an_infinite_scale():
    # Unscaled, the chord V_3 V_4 of the index sum 7 had a NaN angle, and
    # parallel-chords passed it at the limit inf.
    frame = _frame([(0, 0), (0, 0), (-1e308, 0), (1e308, 0), (1, 2),
                    (0, 1), (5, 5)])
    for verify in (verify_parallel_chords, verify_isogonal, verify_optical,
                   verify_archimedes,
                   lambda poly: verify_lambert(poly, 1, 2, 3)):
        with pytest.raises(NonFinite):
            verify(frame)


def test_parallel_chords_scale_a_wide_chain_once():
    # The sum 6 holds a tiny first chord, V_1 V_5, and a later one,
    # V_2 V_4, near 1e300: scaling that sum by its first chord overflowed.
    frame = _frame([(0, 0), (-1e300, -1e300), (1, 2), (1e300, 1e300),
                    (1e-300, 0), (5, 5)])
    report = verify_parallel_chords(frame)
    assert len(report.checks) == 3
    assert all(math.isfinite(c.residual) for c in report.checks)


def test_parallel_chords_residuals_are_finite_on_wide_coordinates():
    rng = random.Random(7)

    def wide():
        return rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-300, 300)

    for _ in range(2000):
        coords = [(wide(), wide()) for _ in range(rng.randint(5, 12))]
        report = verify_parallel_chords(_frame(coords, wide()))
        assert all(math.isfinite(c.residual) for c in report.checks)


def test_archimedes_alignment_example(judged):
    report = verify_archimedes(OCT)
    assert report.overall
    # W_{1,3}, M(V_1, V_4) and M(V_2, V_3) are judged in the family 4.
    family = [r for idx, r in judged.rows(report)["archimedes-family"]
              if idx == (4,)]
    assert len(family) == 1 and family[0] < 1e-9


def test_archimedes_family_shares_coordinate(judged):
    # W_{1,4} and W_{2,3} both sit at x = 2*x0 + 5*delta = 5
    assert w_point(OCT_CFG, 1, 4).x == pytest.approx(5.0)
    assert w_point(OCT_CFG, 2, 3).x == pytest.approx(5.0)
    report = verify_archimedes(OCT)
    family = _family(report, "archimedes-family")
    fam = [r for idx, r in judged.rows(report)[family.name] if idx == (5,)]
    assert len(fam) == 1 and fam[0] <= family.limit


def test_archimedes_needs_five_sides():
    small = make_equidistant(EquidistantConfig(s=1, x0=0, delta=1, n=4))
    with pytest.raises(InvalidConfig):
        verify_archimedes(small)


# Its y-coordinates reach 2.7e156, so an x times a y, in a side line's
# offset or a chord's cross product, overflows and a difference of two
# such products is inf - inf.
NEAR_1E153 = make_equidistant(EquidistantConfig(1e150, 1e153, 1e152, 8))


def test_parallel_chords_residuals_are_finite_near_1e153():
    report = verify_parallel_chords(NEAR_1E153)
    assert all(c.passed for c in report.checks)


@pytest.mark.xfail(strict=True, raises=NonFinite,
                   reason="kernel.join_points computes c = p.x*q.y - q.x*p.y, "
                          "which is inf - inf (ROADMAP item 12(b))")
def test_archimedes_side_lines_are_finite_near_1e153():
    assert verify_archimedes(NEAR_1E153).overall


def test_archimedes_fails_on_perturbation():
    assert not verify_archimedes(_perturbed(OCT)).overall


def _frame(vertices, s=1):
    """A frame whose vertices are their own projections, with S = (0, s)."""
    pts = tuple(Point(x, y) for x, y in vertices)
    return SimsonPolygonFrame(vertices=pts, projections=pts,
                              simson_point=Point(0, s))


def test_archimedes_rejects_sides_that_do_not_cross():
    # Sides 1 and 3 of the first pentagon are parallel; sides 1 and 4 of
    # the hexagon lie on one line, y = 0.
    with pytest.raises(DegenerateConfiguration, match="side lines 1 and 3"):
        verify_archimedes(_frame([(0, 0), (4, 0), (5, 2), (1, 2), (-1, 1)]))
    with pytest.raises(DegenerateConfiguration, match="side lines 1 and 4"):
        verify_archimedes(_frame([(0, 0), (1, 0), (2, 1), (3, 0), (4, 0),
                                  (2, -3)]))


def test_archimedes_names_the_first_pair_of_sides_that_do_not_cross():
    # Sides 2 and 4 (index sum 6) and sides 1 and 6 (index sum 7) are
    # parallel.  The meets are formed by index sum, but the error names
    # the first such pair in lexicographic order.
    with pytest.raises(DegenerateConfiguration, match="side lines 1 and 6"):
        verify_archimedes(_frame([(0, 0), (4, 0), (5, 2), (4, 4), (5, 6),
                                  (2, 7), (-1, 7), (-2, 3)]))


def test_lambert_triangle_circumcircle_hits_simson_point():
    # sides 1,2,3 of the octagon cut out triangle (3,2),(4,3),(5,6);
    # its circumcircle is centered (0,6) with radius 5 and passes S=(0,1)
    circle = circumcircle(Point(3, 2), Point(4, 3), Point(5, 6))
    assert xy(circle.center) == pytest.approx((0.0, 6.0))
    assert circle.radius == pytest.approx(5.0)
    report = verify_lambert(OCT, 1, 2, 3)
    assert report.overall


def test_lambert_arbitrary_triples():
    for triple in [(1, 4, 6), (2, 5, 8), (3, 4, 5)]:
        assert verify_lambert(OCT, *triple).overall


def test_lambert_on_general_simson_polygon():
    feet = [Point(x, 0.0) for x in (0.0, 0.3, 1.1, 2.0, 2.8)]
    poly = construct_simson_polygon(Point(0.4, 1.3), Line(0, 1, 0), feet)
    cert = find_simson_point(poly)
    frame = frame_from_certificate(poly, cert)
    assert verify_lambert(frame, 1, 3, 5).overall


def test_lambert_fails_off_simson_point():
    moved = SimsonPolygonFrame(vertices=OCT.vertices,
                               projections=OCT.projections,
                               simson_point=Point(0.01, 1.0))
    assert not verify_lambert(moved, 1, 2, 3).overall


def test_lambert_is_judged_at_its_own_limit():
    # Sides 1, 2, 3 of the octagon meet on a circle of radius 5, smaller
    # than the polygon, so lambert is judged at the polygon scale; the
    # report records only that scale.
    report = verify_lambert(OCT, 1, 2, 3)
    assert report.tolerances == {"scale": OCT.scale()}
    assert report.checks[0].limit == bound(max(5.0, OCT.scale()))
    flat = make_equidistant(EquidistantConfig(s=0.01, x0=-20, delta=1, n=5))
    report = verify_lambert(flat, 1, 2, 5)
    assert report.tolerances == {"scale": flat.scale()}
    assert report.checks[0].limit > 100.0 * bound(flat.scale())


def test_every_verifier_reports_the_same_limits():
    # Every verifier records the polygon's scale, and each of its entries
    # is judged by its family's rule at that scale.  The octagon at 1/100
    # size has a scale below 1, where the length and angle rules differ.
    small = make_equidistant(EquidistantConfig(s=0.01, x0=0, delta=0.01,
                                               n=8))
    for poly, radius in ((OCT, 5.0), (small, 0.05)):
        scale = poly.scale()
        reports = [verify_parallel_chords(poly), verify_isogonal(poly),
                   verify_optical(poly), verify_archimedes(poly),
                   verify_lambert(poly, 1, 2, 3)]
        for report in reports:
            assert report.tolerances == {"scale": scale}
            assert report.to_dict()["tolerances"] == \
                {"rel_eps": REL_EPS, "scale": scale}
            for check in report.checks:
                assert check.limit == rule_limit(check.name, scale, radius), \
                    check.name
        limits = {c.name: c.limit for r in reports for c in r.checks}
        assert (limits["optical"] == limits["isogonal"]) == (scale >= 1.0)


def test_extend_does_not_merge_tolerances():
    report = VerificationReport()
    report.extend(verify_lambert(OCT, 1, 2, 3))
    assert report.tolerances == {}
    assert [c.name for c in report.checks] == ["lambert"]


def test_judge_passes_at_the_limit():
    report = VerificationReport()
    report.judge("x", [1e-9], lambda k: (1,), 1e-9)
    report.judge("y", [2e-9], lambda k: (2,), 1e-9, note="n")
    assert [c.passed for c in report.checks] == [True, False]
    assert report.checks[1].note == "n"


def test_lambert_builds_only_its_three_side_lines(monkeypatch):
    built = []
    real = Polygon.side_line
    monkeypatch.setattr(Polygon, "side_line",
                        lambda self, i: built.append(i) or real(self, i))
    assert verify_lambert(OCT, 2, 5, 8).overall
    assert sorted(built) == [1, 4, 7]


def test_lambert_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        verify_lambert(OCT, 1, 1, 2)
    with pytest.raises(IndexOutOfRange):
        verify_lambert(OCT, 0, 1, 2)


def test_lambert_rejects_parallel_sides():
    rect = SimsonPolygonFrame(
        vertices=(Point(0, 0), Point(4, 0), Point(4, 3), Point(0, 3)),
        projections=(Point(0, 0), Point(4, 0), Point(4, 3), Point(0, 3)),
        simson_point=Point(0, 1))
    with pytest.raises(DegenerateConfiguration,
                       match="^side lines 1 and 3 are parallel$"):
        verify_lambert(rect, 1, 2, 3)


def test_verifier_suite_on_random_configs():
    rng = np.random.default_rng(31415)
    for _ in range(10):
        poly = make_equidistant(random_equidistant_config(rng))
        scale = poly.scale()
        for report in (verify_parallel_chords(poly), verify_isogonal(poly),
                       verify_optical(poly), verify_archimedes(poly),
                       verify_lambert(poly, 1, 2, 3)):
            assert report.overall
            assert max_residual(report) <= 1e-9 * scale


# ------------------------------------------------------------------- sandwich

def test_chain_is_sandwiched_between_parabolas():
    # for s > 0: C(x) <= chain(x) <= C'(x), gap at most delta^2/(4s)
    cfg = EquidistantConfig(s=1.5, x0=-2.0, delta=0.8, n=9)
    poly = make_equidistant(cfg)
    lower = associated_parabola(cfg)
    upper = midpoint_parabola(cfg)
    chain = poly.vertices[:-1]
    cap = cfg.delta ** 2 / (4.0 * cfg.s)
    for k in range(len(chain) - 1):
        v1, v2 = chain[k], chain[k + 1]
        for t in np.linspace(0.0, 1.0, 21):
            x = v1.x + t * (v2.x - v1.x)
            y = v1.y + t * (v2.y - v1.y)
            assert lower.y_at(x) - 1e-12 <= y <= upper.y_at(x) + 1e-12
            assert y - lower.y_at(x) <= cap + 1e-12


# --------------------------------------------------------------- frame adapter

def test_frame_from_certificate_is_a_rigid_motion():
    # Moved equidistant polygons: the map keeps every distance among the
    # vertices and S, puts the feet on y = 0 and S at its distance from L.
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = random_equidistant_config(rng)
        poly = moved_equidistant(
            cfg, float(rng.uniform(0.0, 2.0 * math.pi)),
            [float(t) for t in rng.uniform(-5.0, 5.0, 2)])
        cert = find_simson_point(poly)
        frame = frame_from_certificate(poly, cert)
        before = poly.vertices + (cert.simson_point,)
        after = frame.vertices + (frame.simson_point,)
        bound = 1e-12 * frame.scale()
        for p, q in zip(before, after):
            for p2, q2 in zip(before, after):
                assert abs(p.distance(p2) - q.distance(q2)) <= bound
        assert max(abs(f.y) for f in frame.projections) <= 1e-9
        assert abs(frame.simson_point.y) == pytest.approx(
            cert.simson_line.distance(cert.simson_point), rel=1e-12)


def test_frame_simson_line_is_the_x_axis():
    for frame in (OCT, _frame([(0, 0), (4, 0), (4, 3), (0, 3)]),
                  equidistant_from_frame(OCT)):
        assert frame.simson_line == Line(0, 1, 0)
    with pytest.raises(TypeError):
        SimsonPolygonFrame(vertices=OCT.vertices, projections=OCT.projections,
                           simson_point=OCT.simson_point,
                           simson_line=Line(0, 1, 0))


def test_frame_recognition_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(25):
        cfg = random_equidistant_config(rng)
        poly = make_equidistant(cfg)
        cert = find_simson_point(poly.polygon())
        assert cert is not None
        frame = frame_from_certificate(poly.polygon(), cert)
        eq = equidistant_from_frame(frame)
        xs = [f.x for f in eq.projections]
        for gap in (b - a for a, b in zip(xs, xs[1:])):
            assert gap == pytest.approx(cfg.delta, rel=1e-9)
        assert abs(eq.simson_point.y) == pytest.approx(abs(cfg.s), rel=1e-9)


def test_mean_gap_is_fmean_bitwise():
    # equidistant_from_frame takes the spacing as fsum(gaps) / len(gaps),
    # which is what statistics.fmean computes for a list, bit for bit.
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 255):
        for scale in (1e-9, 1.0, 1e9):
            gaps = (rng.uniform(0.5, 1.5, n) * scale).tolist()
            assert math.fsum(gaps) / len(gaps) == statistics.fmean(gaps)
    for _ in range(10):
        poly = make_equidistant(random_equidistant_config(rng))
        frame = frame_from_certificate(poly.polygon(),
                                       find_simson_point(poly.polygon()))
        xs = [f.x for f in frame.projections]
        if xs[-1] < xs[0]:
            xs = [-x for x in xs]
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        eq_xs = [f.x for f in equidistant_from_frame(frame).projections]
        eq_gaps = [b - a for a, b in zip(eq_xs, eq_xs[1:])]
        assert math.fsum(eq_gaps) / len(eq_gaps) == statistics.fmean(gaps)


def test_frame_recognition_rejects_s_on_the_line():
    on_line = SimsonPolygonFrame(OCT.vertices, OCT.projections, Point(0, 0))
    with pytest.raises(InvalidConfig, match="^s must be nonzero and finite"):
        equidistant_from_frame(on_line)


def test_frame_recognition_rejects_uneven_feet():
    feet = [Point(x, 0.0) for x in (0.0, 0.3, 1.1, 2.0)]
    poly = construct_simson_polygon(Point(0.2, 1.0), Line(0, 1, 0), feet)
    cert = find_simson_point(poly)
    frame = frame_from_certificate(poly, cert)
    with pytest.raises(InvalidConfig):
        equidistant_from_frame(frame)
    feet = [Point(x, 0.0) for x in (-1.7e308, 1.7e308, 1.75e308)]
    with pytest.raises(InvalidConfig, match="^feet are not equally spaced$"):
        equidistant_from_frame(SimsonPolygonFrame(feet, feet, Point(0, 1)))


def test_frame_recognition_rejects_feet_whose_spacing_overflows():
    # Two finite gaps of 1.7e308 sum past the float range.
    vertices = [Point(x, 1.0) for x in (0.0, 1.0, 2.0)]
    feet = [Point(x, 0.0) for x in (-1.7e308, 0.0, 1.7e308)]
    with pytest.raises(InvalidConfig,
                       match="^foot spacing leaves the float range$"):
        equidistant_from_frame(SimsonPolygonFrame(vertices, feet,
                                                  Point(0.0, 1.0)))
