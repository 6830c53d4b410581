import math
import statistics

import numpy as np
import pytest

from geomgen import chord_slope, foot_line, lines_equal_tight, \
    random_equidistant_config, w_point, xy
from simsonpoly.equidistant import (
    EquidistantConfig,
    EquidistantPolygon,
    IndexOutOfRange,
    InvalidConfig,
    Parabola,
    ParallelSides,
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
from judged import max_residual
from simsonpoly.kernel import DEFAULT_TOLERANCE, Line, NonFinite, \
    Point, circumcircle, line_through
from simsonpoly.report import VerificationReport
from simsonpoly.simson import Polygon, construct_simson_polygon, \
    find_simson_point, is_simson_point

OCT = make_equidistant(EquidistantConfig(s=1, x0=0, delta=1, n=8))


# -------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=0, x0=0, delta=1, n=8)
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=1, x0=0, delta=0, n=8)
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=1, x0=0, delta=-1, n=8)
    with pytest.raises(InvalidConfig):
        EquidistantConfig(s=1, x0=0, delta=1, n=2)


def test_foot_abscissae():
    cfg = EquidistantConfig(s=1, x0=2, delta=0.5, n=5)
    assert [cfg.foot_abscissa(i) for i in (1, 2, 5)] == [2.0, 2.5, 4.0]


# ------------------------------------------------------------------ generator

def test_octagon_leading_vertices():
    want = [(1, 0), (3, 2), (5, 6), (7, 12), (9, 20), (11, 30), (13, 42)]
    for v, w in zip(OCT.chain, want):
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
    cfg = OCT.config
    polygon = OCT.polygon()
    for i in range(1, cfg.n + 1):
        # Side V_{i-1} V_i, 0-based side i - 2, carries the foot X_i.
        line = polygon.side_line(i - 2)
        assert lines_equal_tight(line, foot_line(cfg, i))
        x = cfg.foot_abscissa(i)
        assert line.distance(Point(x, 0.0)) < 1e-12
        # tangency point of the side line on C'
        assert abs(line.signed_distance(Point(2 * x, x * x / cfg.s))) < 1e-12


# ------------------------------------------------------------------ parabolas

def test_associated_parabola_carries_chain():
    par = associated_parabola(OCT.config)
    assert par.c == pytest.approx(1.0)
    assert par.y_at(3.0) == pytest.approx(2.0)
    for v in OCT.chain:
        assert abs(v.y - par.y_at(v.x)) < 1e-12


def test_associated_parabola_ignores_x0():
    a = associated_parabola(EquidistantConfig(s=1, x0=0, delta=1, n=8))
    b = associated_parabola(EquidistantConfig(s=1, x0=5, delta=1, n=8))
    assert (a.s, a.c) == (b.s, b.c)
    shifted = make_equidistant(EquidistantConfig(s=1, x0=5, delta=1, n=8))
    for v in shifted.chain:
        assert abs(v.y - a.y_at(v.x)) < 1e-9


def test_midpoint_parabola_and_tangency():
    par = midpoint_parabola(OCT.config)
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
    with pytest.raises(InvalidConfig, match="parabola needs s != 0"):
        Parabola(0.0)


def test_delta_to_zero_limit_is_midpoint_parabola():
    small = associated_parabola(EquidistantConfig(s=1, x0=0, delta=1e-8, n=4))
    assert small.c == pytest.approx(0.0, abs=1e-15)


# -------------------------------------------------------------- chords and W

def test_chord_slope_examples():
    cfg = OCT.config
    assert chord_slope(cfg, 1, 2) == pytest.approx(1.0)
    assert chord_slope(cfg, 1, 6) == pytest.approx(3.0)
    assert chord_slope(cfg, 2, 5) == pytest.approx(3.0)
    assert chord_slope(cfg, 3, 4) == pytest.approx(3.0)


def test_chord_slope_matches_numeric_slope():
    cfg = OCT.config
    for i in range(1, 7):
        for j in range(i + 1, 8):
            vi, vj = OCT.chain[i - 1], OCT.chain[j - 1]
            num = (vj.y - vi.y) / (vj.x - vi.x)
            assert chord_slope(cfg, i, j) == pytest.approx(num)


def test_chord_slope_depends_only_on_index_sum():
    cfg = random_equidistant_config(np.random.default_rng(8), n_range=(8, 8))
    pairs = [(1, 6), (2, 5), (3, 4)]
    slopes = {chord_slope(cfg, i, j) for i, j in pairs}
    assert max(slopes) - min(slopes) < 1e-12


def test_chord_slope_index_errors():
    with pytest.raises(IndexOutOfRange):
        chord_slope(OCT.config, 2, 2)
    with pytest.raises(IndexOutOfRange):
        chord_slope(OCT.config, 1, 8)  # V_8 not on the chain


def test_w_point_example():
    assert xy(w_point(OCT.config, 1, 3)) == pytest.approx((4.0, 3.0))


def test_w_point_of_consecutive_sides_is_vertex():
    for i in range(1, 6):
        assert w_point(OCT.config, i, i + 1).distance(OCT.vertices[i]) < 1e-12


def test_w_point_matches_side_line_intersection():
    cfg = OCT.config
    for i, j in [(1, 3), (2, 5), (1, 6), (4, 6)]:
        li = line_through(OCT.vertices[i - 1], OCT.vertices[i])
        lj = line_through(OCT.vertices[j - 1], OCT.vertices[j])
        from simsonpoly.kernel import line_intersection
        got = line_intersection(li, lj)
        assert w_point(cfg, i, j).distance(got) < 1e-9


def test_w_point_aligns_with_chord_midpoint():
    cfg = OCT.config
    for i, j in [(1, 3), (2, 4), (1, 5)]:
        w = w_point(cfg, i, j)
        m = OCT.chain[i - 1].midpoint(OCT.chain[j])   # midpoint of V_i V_{j+1}
        assert w.x == pytest.approx(m.x)


def test_w_point_index_errors():
    with pytest.raises(IndexOutOfRange):
        w_point(OCT.config, 1, 1)
    with pytest.raises(IndexOutOfRange):
        w_point(OCT.config, 1, 7)


# ------------------------------------------------------------------ verifiers

def _perturbed(poly, eps=1e-3, which=1):
    verts = list(poly.vertices)
    v = verts[which]
    verts[which] = Point(v.x + eps, v.y - eps)
    return EquidistantPolygon(vertices=tuple(verts),
                              projections=poly.projections,
                              simson_point=poly.simson_point,
                              config=poly.config)


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
    moved = EquidistantPolygon(vertices=OCT.vertices,
                               projections=OCT.projections,
                               simson_point=Point(0.0, 1.1),
                               config=OCT.config)
    assert not verify_optical(moved).overall


def test_archimedes_alignment_example(judged):
    report = verify_archimedes(OCT)
    assert report.overall
    # W_{1,3}, M(V_1, V_4) and M(V_2, V_3) are judged in the family 4.
    family = [r for idx, r in judged.rows(report)["archimedes-family"]
              if idx == (4,)]
    assert len(family) == 1 and family[0] < 1e-9


def test_archimedes_family_shares_coordinate(judged):
    # W_{1,4} and W_{2,3} both sit at x = 2*x0 + 5*delta = 5
    cfg = OCT.config
    assert w_point(cfg, 1, 4).x == pytest.approx(5.0)
    assert w_point(cfg, 2, 3).x == pytest.approx(5.0)
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
                          "which is inf - inf (ROADMAP item 9)")
def test_archimedes_side_lines_are_finite_near_1e153():
    assert verify_archimedes(NEAR_1E153).overall


def test_archimedes_fails_on_perturbation():
    assert not verify_archimedes(_perturbed(OCT)).overall


def _frame(vertices):
    pts = tuple(Point(x, y) for x, y in vertices)
    return SimsonPolygonFrame(vertices=pts, projections=pts,
                              simson_point=Point(0, 1))


def test_archimedes_rejects_sides_that_do_not_cross():
    # Sides 1 and 3 of the first pentagon are parallel; sides 1 and 4 of
    # the hexagon lie on one line, y = 0.
    with pytest.raises(ParallelSides, match="side lines 1 and 3"):
        verify_archimedes(_frame([(0, 0), (4, 0), (5, 2), (1, 2), (-1, 1)]))
    with pytest.raises(ParallelSides, match="side lines 1 and 4"):
        verify_archimedes(_frame([(0, 0), (1, 0), (2, 1), (3, 0), (4, 0),
                                  (2, -3)]))


def test_archimedes_names_the_first_pair_of_sides_that_do_not_cross():
    # Sides 2 and 4 (index sum 6) and sides 1 and 6 (index sum 7) are
    # parallel.  The meets are formed by index sum, but the error names
    # the first such pair in lexicographic order.
    with pytest.raises(ParallelSides, match="side lines 1 and 6"):
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
    moved = EquidistantPolygon(vertices=OCT.vertices,
                               projections=OCT.projections,
                               simson_point=Point(0.01, 1.0),
                               config=OCT.config)
    assert not verify_lambert(moved, 1, 2, 3).overall


def test_lambert_limit_has_its_own_key():
    # Sides 1, 2, 3 of the octagon meet on a circle of radius 5, smaller
    # than the polygon, so lambert is judged at the polygon scale.
    report = verify_lambert(OCT, 1, 2, 3)
    tol = report.tolerances
    assert tol["length_limit"] == DEFAULT_TOLERANCE.bound(OCT.scale())
    assert tol["lambert_limit"] == DEFAULT_TOLERANCE.bound(
        max(5.0, OCT.scale()))
    flat = make_equidistant(EquidistantConfig(s=0.01, x0=-20, delta=1, n=5))
    tol = verify_lambert(flat, 1, 2, 5).tolerances
    assert tol["lambert_limit"] > 100.0 * tol["length_limit"]
    assert tol["length_limit"] == DEFAULT_TOLERANCE.bound(flat.scale())


def test_every_verifier_reports_the_same_limits():
    keys = ("rel_eps", "scale", "length_limit", "angle_limit")
    reports = [verify_parallel_chords(OCT), verify_isogonal(OCT),
               verify_optical(OCT), verify_archimedes(OCT),
               verify_lambert(OCT, 1, 2, 3)]
    for report in reports:
        assert {k: report.tolerances[k] for k in keys} == \
            {k: reports[0].tolerances[k] for k in keys}


def test_extend_does_not_merge_tolerances():
    report = VerificationReport()
    report.extend(verify_lambert(OCT, 1, 2, 3))
    assert report.tolerances == {}
    assert [c.name for c in report.checks] == ["lambert"]


def test_judge_passes_at_the_limit():
    report = VerificationReport()
    report.judge("x", [([1e-9], lambda k: (1,))], 1e-9)
    report.judge("y", [([2e-9], lambda k: (2,))], 1e-9, note="n")
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
    with pytest.raises(ParallelSides):
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
    chain = poly.chain
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
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        c, s = math.cos(theta), math.sin(theta)
        tx, ty = (float(t) for t in rng.uniform(-5.0, 5.0, 2))
        poly = Polygon(tuple(
            Point(c * v.x - s * v.y + tx, s * v.x + c * v.y + ty)
            for v in make_equidistant(cfg).vertices))
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
        assert eq.config.delta == pytest.approx(cfg.delta, rel=1e-9)
        assert abs(eq.config.s) == pytest.approx(abs(cfg.s), rel=1e-9)


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
        assert equidistant_from_frame(frame).config.delta == \
            statistics.fmean(gaps)


def test_frame_recognition_rejects_uneven_feet():
    feet = [Point(x, 0.0) for x in (0.0, 0.3, 1.1, 2.0)]
    poly = construct_simson_polygon(Point(0.2, 1.0), Line(0, 1, 0), feet)
    cert = find_simson_point(poly)
    frame = frame_from_certificate(poly, cert)
    with pytest.raises(InvalidConfig):
        equidistant_from_frame(frame)
