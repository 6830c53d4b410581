"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package and prints a
single PASS/FAIL line (visible with pytest -s or in captured output), so
the suite doubles as a human-readable scorecard.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from geomgen import random_convex_polygon, random_equidistant_config, \
    random_quadrilateral, triangle_circles
from judged import max_residual
from simsonpoly.approx import ApproxProblem, optimal_knots, quadrature_l1
from simsonpoly.equidistant import EquidistantConfig, SimsonPolygonFrame, \
    associated_parabola, make_equidistant, verify_archimedes, \
    verify_isogonal, verify_lambert, verify_optical, verify_parallel_chords
from simsonpoly.kernel import Line, Point, best_fit_line, bound, line_through
from simsonpoly.limits import convergence_table, observed_orders
from simsonpoly.simson import Polygon, characterization_candidate, \
    characterization_circles, construct_simson_polygon, find_simson_point, \
    pedal_points


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def _random_config(rng) -> EquidistantConfig:
    s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
    return EquidistantConfig(s=s, x0=rng.uniform(-10.0, 10.0),
                             delta=rng.uniform(1e-3, 5.0),
                             n=int(rng.integers(4, 33)))


def test_criterion_1_chain_on_parabola():
    with criterion(1, "vertex chain lies on its parabola"):
        rng = np.random.default_rng(1234)
        t0 = time.perf_counter()
        for _ in range(100):
            cfg = _random_config(rng)
            par = associated_parabola(cfg)
            for v in make_equidistant(cfg).vertices[:-1]:
                assert abs(v.y - par.y_at(v.x)) <= 1e-9 * (1.0 + abs(v.y))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_parabola_ignores_foot_origin():
    with criterion(2, "parabola is independent of the first foot position"):
        rng = np.random.default_rng(22)
        for _ in range(25):
            cfg = _random_config(rng)
            par = associated_parabola(cfg)
            for shift in rng.uniform(-10.0, 10.0, size=4):
                moved = EquidistantConfig(s=cfg.s, x0=float(shift),
                                          delta=cfg.delta, n=cfg.n)
                other = associated_parabola(moved)
                assert (other.s, other.c) == (par.s, par.c)
                for v in make_equidistant(moved).vertices[:-1]:
                    assert abs(v.y - par.y_at(v.x)) <= 1e-9 * (1.0 + abs(v.y))


def test_criterion_3_optimal_knots():
    with criterion(3, "equal spacing minimizes the L1 error"):
        t0 = time.perf_counter()
        p4 = ApproxProblem(s=1.0, delta=0.0, a=0.0, b=4.0, n=4)
        res = optimal_knots(p4)
        assert abs(res.l1_error - 1.0 / 6.0) <= 1e-12
        assert abs(quadrature_l1(p4, res.knots) - 1.0 / 6.0) <= 1e-12

        step = 4.0 / 1000.0
        ts = np.arange(step, 4.0, step)
        # n = 2: one interior knot
        obj2 = ts ** 3 + (4.0 - ts) ** 3
        assert abs(ts[int(np.argmin(obj2))] - 2.0) <= step + 1e-12
        # n = 3: two interior knots on the same grid
        g1, g2 = np.meshgrid(ts, ts, indexing="ij")
        obj3 = g1 ** 3 + (g2 - g1) ** 3 + (4.0 - g2) ** 3
        obj3[g2 <= g1] = np.inf
        i, j = np.unravel_index(int(np.argmin(obj3)), obj3.shape)
        assert abs(ts[i] - 4.0 / 3.0) <= step + 1e-12
        assert abs(ts[j] - 8.0 / 3.0) <= step + 1e-12
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_segment_error_is_position_free():
    with criterion(4, "segment L1 error depends only on the width"):
        rng = np.random.default_rng(44)
        for _ in range(100):
            s = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            delta = rng.uniform(0.0, 2.0)
            t = rng.uniform(-10.0, 10.0)
            h = rng.uniform(1e-3, 3.0)
            ref = optimal_knots(ApproxProblem(s, delta, 0.0, h, 1)).l1_error
            got = optimal_knots(ApproxProblem(s, delta, t, t + h, 1)).l1_error
            assert abs(got - ref) <= 1e-12 * ref


def test_criterion_5_quadrilateral_simson_is_miquel():
    with criterion(5, "quadrilateral Simson point equals the Miquel point"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            poly = random_quadrilateral(rng)
            diam = poly.diameter()
            cert = find_simson_point(poly)
            assert cert is not None
            for k in triangle_circles(poly.side_lines()):
                assert k.distance(cert.simson_point) <= \
                    bound(max(k.radius, diam))
            feet = pedal_points(cert.simson_point, poly)
            fit = best_fit_line(feet)
            assert max(fit.distance(f) for f in feet) <= 1e-8 * diam


def test_criterion_6_convex_polygons_admit_no_simson_point():
    with criterion(6, "convex polygons with 5+ sides admit no Simson point"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            poly = random_convex_polygon(rng, int(rng.integers(5, 11)))
            assert find_simson_point(poly) is None
            elements = characterization_circles(poly)
            floor = 1e3 * bound(poly.diameter())
            cand = characterization_candidate(poly, elements)
            assert cand is not None
            assert max(e.distance(cand) for e in elements) > floor


def test_criterion_7_verifier_suite_with_negative_controls():
    with criterion(7, "all verifiers pass, and fail perturbed controls"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31415)
        for _ in range(50):
            poly = make_equidistant(random_equidistant_config(rng))
            scale = poly.scale()
            reports = [verify_parallel_chords(poly), verify_isogonal(poly),
                       verify_optical(poly), verify_archimedes(poly),
                       verify_lambert(poly, 1, 2, 3)]
            for report in reports:
                assert report.overall
                assert max_residual(report) <= 1e-9 * scale
            verts = list(poly.vertices)
            v = verts[1]
            verts[1] = Point(v.x + 1e-3, v.y - 1e-3)
            bad = SimsonPolygonFrame(vertices=tuple(verts),
                                     projections=poly.projections,
                                     simson_point=poly.simson_point)
            assert not verify_parallel_chords(bad).overall
            assert not verify_isogonal(bad).overall
            assert not verify_optical(bad).overall
            assert not verify_archimedes(bad).overall
            assert not verify_lambert(bad, 1, 2, 3).overall
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_quadratic_convergence_to_parabola():
    with criterion(8, "chain converges to the parabola at order 2"):
        t0 = time.perf_counter()
        rows = convergence_table(1.0, 4.0, 6)
        for row in rows:
            assert abs(row.hausdorff - row.bound) <= 0.1 * row.bound
        assert min(observed_orders(rows)) >= 1.9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_9_construction_round_trip():
    with criterion(9, "construction recovers its Simson point and line"):
        rng = np.random.default_rng(71)
        for _ in range(200):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            d = Point(math.cos(theta), math.sin(theta))
            nrm = Point(-d.y, d.x)
            t = Point(*rng.uniform(-5.0, 5.0, 2))
            n = int(rng.integers(4, 10))
            offsets = np.cumsum(rng.uniform(0.8, 2.0, size=n))
            feet = [Point(t.x + u * d.x, t.y + u * d.y) for u in offsets]
            h = rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0])
            s = Point(t.x + h * nrm.x, t.y + h * nrm.y)
            line = line_through(feet[0], feet[-1])
            poly = construct_simson_polygon(s, line, feet)
            cert = find_simson_point(poly)
            assert cert is not None
            scale = poly.diameter()
            assert cert.simson_point.distance(s) <= 1e-7 * scale
            assert max(cert.simson_line.distance(f)
                       for f in feet) <= 1e-7 * scale
