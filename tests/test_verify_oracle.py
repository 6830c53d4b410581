"""The verifiers' check families against two references.

``scalar_verifiers`` holds the verifiers as they were before they became
float passes, one ``Point``/``Line`` computation per pair; every
family's residual list must equal theirs, in the same order.  Each
equals bitwise, except the two chord angle families: the verifier
subtracts two direction angles where the reference takes atan2 of a
cross and a dot product, so those agree to CHORD_ANGLE_TOL, 4 ulp(pi):
two atan2 roundings, their difference and the fold.

``oracle_optical`` computes the optical residual by another route, for
any Simson line L: the distance from S to the perpendicular to L at the
side midpoint, reflected in the side by mirroring two of its points.  It
must agree with ``verify_optical`` to 1e-12 max(1, scale).

``scalar_verifiers`` also lists rows the report has no entry for: the
per-pair Archimedes spreads, whose three points belong to their index
sum's ``archimedes-family``, and the per-chord tangent angles, whose
maximum over an index sum is that sum's ``chord-tangent`` residual.  The
subsumption tests below check that no such row exceeds its family's
residual.
"""

import math

import numpy as np
import pytest

from geomgen import moved_equidistant, random_equidistant_config
from judged import rule_limit
from scalar_verifiers import scalar_archimedes, scalar_isogonal, \
    scalar_lambert, scalar_optical, scalar_parallel_chords
from simsonpoly.equidistant import (
    EquidistantConfig,
    SimsonPolygonFrame,
    frame_from_certificate,
    make_equidistant,
    verify_archimedes,
    verify_isogonal,
    verify_lambert,
    verify_optical,
    verify_parallel_chords,
)
from simsonpoly.kernel import Line, NonFinite, Point, line_through, \
    reflect_point
from simsonpoly.simson import construct_simson_polygon, find_simson_point


def _two_point_reflect_line(m, mirror):
    p0 = Point(-m.c * m.a, -m.c * m.b)
    d = m.direction()
    p1 = Point(p0.x + d.x, p0.y + d.y)
    q0 = reflect_point(p0, mirror)
    q1 = reflect_point(p1, mirror)
    return Line(q0.y - q1.y, q1.x - q0.x, q0.x * q1.y - q1.x * q0.y)


def oracle_optical(poly):
    out = []
    for i in range(1, poly.n - 1):
        v1, v2 = poly.vertices[i - 1], poly.vertices[i]
        # The perpendicular to L at the side midpoint.
        L, mid = poly.simson_line, v1.midpoint(v2)
        incoming = Line(-L.b, L.a, L.b * mid.x - L.a * mid.y)
        reflected = _two_point_reflect_line(incoming, line_through(v1, v2))
        out.append(("optical", (i,), reflected.distance(poly.simson_point)))
    return out


def _families(rows):
    """{name: [(indices, residual), ...]} of per-check rows, in order."""
    out = {}
    for name, idx, res in rows:
        out.setdefault(name, []).append((idx, res))
    return out


def _families_judged(rows):
    """The rows of the families a report holds: the per-pair
    ``archimedes`` and per-chord ``tangent-chord`` rows are left to the
    subsumption tests."""
    return [row for row in rows
            if row[0] not in ("archimedes", "tangent-chord")]


def _jittered(poly, rng, eps=1e-3):
    verts = tuple(Point(v.x + dx, v.y + dy) for v, (dx, dy)
                  in zip(poly.vertices, rng.uniform(-eps, eps, (poly.n, 2))))
    return SimsonPolygonFrame(vertices=verts, projections=poly.projections,
                              simson_point=poly.simson_point)


def _general_frame(rng):
    """A constructed Simson polygon on a tilted line, brought to frame."""
    n = int(rng.integers(5, 9))
    theta = float(rng.uniform(0.0, math.pi))
    u = Point(math.cos(theta), math.sin(theta))
    origin = Point(*rng.uniform(-2.0, 2.0, 2))
    ts = np.cumsum(rng.uniform(0.3, 1.2, n)) - 2.0
    feet = [origin + Point(u.x * float(t), u.y * float(t)) for t in ts]
    height = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.7, 2.0))
    along = float(rng.uniform(-1.0, 1.0))
    s = origin + Point(u.x * along, u.y * along) + \
        Point(-u.y * height, u.x * height)
    poly = construct_simson_polygon(s, line_through(origin, origin + u), feet)
    cert = find_simson_point(poly)
    assert cert is not None
    return frame_from_certificate(poly, cert)


def _frames():
    rng = np.random.default_rng(2718)
    equidistant = [make_equidistant(random_equidistant_config(rng))
                   for _ in range(12)]
    jittered = [_jittered(p, rng) for p in equidistant]
    general = [_general_frame(rng) for _ in range(12)]
    return equidistant + jittered, general


EQUIDISTANT_FRAMES, GENERAL_FRAMES = _frames()
CHORD_ANGLE_TOL = 4 * math.ulp(math.pi)
CHORD_ANGLE_TOLS = {"parallel-chords": CHORD_ANGLE_TOL,
                    "chord-tangent": CHORD_ANGLE_TOL}


def _assert_matches(judged, report, expected, tols=None):
    """The report's families hold the expected rows, in order: to within
    tols[name] for a family tols names, bitwise for any other."""
    tols = tols or {}
    got = judged.rows(report)
    assert len(got) == len(report.checks)
    assert [c.count for c in report.checks] == \
        [len(got[c.name]) for c in report.checks]
    want = _families(expected)
    assert sorted(got) == sorted(want)
    for name, rows in want.items():
        assert [idx for idx, _ in got[name]] == [idx for idx, _ in rows]
        for (idx, res), (_, ref) in zip(got[name], rows):
            if name in tols:
                assert abs(res - ref) <= tols[name], (name, idx)
            else:
                assert res == ref, (name, idx)


def _assert_matches_optical_oracle(judged, poly):
    _assert_matches(judged, verify_optical(poly), oracle_optical(poly),
                    {"optical": 1e-12 * max(1.0, poly.scale())})


def _lambert_triples(n):
    return [(1, 2, 3), (1, n // 2, n), (2, n - 1, n)]


@pytest.mark.parametrize("k", range(len(EQUIDISTANT_FRAMES)))
def test_equidistant_verifiers_match_general_line_oracle(judged, k):
    _assert_matches_optical_oracle(judged, EQUIDISTANT_FRAMES[k])


@pytest.mark.parametrize("k", range(len(GENERAL_FRAMES)))
def test_general_frame_verifiers_match_general_line_oracle(judged, k):
    _assert_matches_optical_oracle(judged, GENERAL_FRAMES[k])


@pytest.mark.parametrize("k", range(len(EQUIDISTANT_FRAMES)))
def test_equidistant_families_match_scalar_verifiers(judged, k):
    poly = EQUIDISTANT_FRAMES[k]
    _assert_matches(judged, verify_parallel_chords(poly),
                    _families_judged(scalar_parallel_chords(poly)),
                    CHORD_ANGLE_TOLS)
    _assert_matches(judged, verify_isogonal(poly), scalar_isogonal(poly))
    _assert_matches(judged, verify_optical(poly), scalar_optical(poly))
    _assert_matches(judged, verify_archimedes(poly),
                    _families_judged(scalar_archimedes(poly)))
    for idx in _lambert_triples(poly.n):
        _assert_matches(judged, verify_lambert(poly, *idx),
                        scalar_lambert(poly, *idx))


@pytest.mark.parametrize("k", range(len(GENERAL_FRAMES)))
def test_general_frame_families_match_scalar_verifiers(judged, k):
    frame = GENERAL_FRAMES[k]
    _assert_matches(judged, verify_isogonal(frame), scalar_isogonal(frame))
    _assert_matches(judged, verify_optical(frame), scalar_optical(frame))
    _assert_matches(judged, verify_archimedes(frame),
                    _families_judged(scalar_archimedes(frame)))
    for idx in _lambert_triples(frame.n):
        _assert_matches(judged, verify_lambert(frame, *idx),
                        scalar_lambert(frame, *idx))


def test_oracle_sees_nonzero_residuals():
    # Bitwise agreement on all-zero residuals would show little: the
    # jittered and general frames must carry real deviations.
    jittered = EQUIDISTANT_FRAMES[len(EQUIDISTANT_FRAMES) // 2:]
    assert all(max(r for *_, r in scalar_archimedes(p)) > 1e-6
               for p in jittered + GENERAL_FRAMES)
    assert all(max(r for *_, r in scalar_optical(p)) > 1e-6
               for p in jittered)


def _moved_frame(cfg, theta, shift=(3.0, -2.0)):
    """An equidistant polygon under a rigid motion, brought back to frame
    by its Simson certificate."""
    poly = moved_equidistant(cfg, theta, shift)
    cert = find_simson_point(poly)
    assert cert is not None
    return frame_from_certificate(poly, cert)


def _random_frame(rng):
    """Random vertices: a frame of a polygon with no Simson point."""
    pts = tuple(Point(float(x), float(y)) for x, y
                in rng.uniform(-3.0, 3.0, (int(rng.integers(5, 13)), 2)))
    return SimsonPolygonFrame(vertices=pts, projections=pts,
                              simson_point=Point(0.0, 1.0))


def _scaled(frame, k):
    def scale(p):
        return Point(k * float(p.x), k * float(p.y))

    return SimsonPolygonFrame(vertices=tuple(map(scale, frame.vertices)),
                              projections=tuple(map(scale,
                                                    frame.projections)),
                              simson_point=scale(frame.simson_point))


def _subsumption_frames():
    rng = np.random.default_rng(1618)
    moved = [_moved_frame(EquidistantConfig(s, x0, delta, n), 0.4 * k)
             for n in (8, 32)
             for k, (s, x0, delta) in enumerate(
                 ((1.0, -3.5, 1.0), (-0.6, 2.2, 0.7), (2.5, 0.0, 1.3)))]
    random = [_random_frame(rng) for _ in range(100)]
    half = len(EQUIDISTANT_FRAMES) // 2
    return {
        "equidistant": EQUIDISTANT_FRAMES[:half],
        "jittered": EQUIDISTANT_FRAMES[half:],
        "moved": moved,
        "constructed": GENERAL_FRAMES,
        "random": random,
        # The largest decade at which these frames' side lines stay finite.
        "scaled-1e150": [_scaled(f, 1e150) for f in moved + random[:20]],
    }


SUBSUMPTION_FRAMES = _subsumption_frames()


@pytest.mark.parametrize("group", sorted(SUBSUMPTION_FRAMES))
def test_archimedes_pairs_are_subsumed_by_their_family(judged, group):
    # The pair (i, j) spreads W_{i,j}, M(V_i, V_{j+1}) and M(V_{i+1}, V_j),
    # all of which the family i + j holds: no pair spread may exceed the
    # family residual, and a pair that fails its limit, or is NaN, must
    # leave its family failing too.  So a per-pair entry could not change
    # a verdict.
    for frame in SUBSUMPTION_FRAMES[group]:
        report = verify_archimedes(frame)
        family = dict(judged.rows(report)["archimedes-family"])
        limit = rule_limit("archimedes-family", report.tolerances["scale"])
        assert [c.limit for c in report.checks] == [limit]
        pairs = [(idx, r) for name, idx, r in scalar_archimedes(frame)
                 if name == "archimedes"]
        assert len(pairs) == (frame.n - 2) * (frame.n - 3) // 2
        for (i, j), spread in pairs:
            residual = family[(i + j,)]
            assert not spread > residual, (group, i, j)
            if not spread <= limit:
                assert not residual <= limit, (group, i, j)


@pytest.mark.parametrize("group", sorted(SUBSUMPTION_FRAMES))
def test_tangent_chords_are_subsumed_by_their_index_sum(judged, group):
    # chord-tangent keeps one residual per even index sum sigma: the
    # largest angle of the chords V_i V_j, i + j = sigma, to the tangent
    # at V_{sigma/2}.  That residual is the reference's largest chord
    # angle to within CHORD_ANGLE_TOL, no chord's angle exceeds it by
    # more, and a chord past its limit by more leaves the family failing.
    # So no verdict needs a per-chord entry.
    for frame in SUBSUMPTION_FRAMES[group]:
        report = verify_parallel_chords(frame)
        family = dict(judged.rows(report)["chord-tangent"])
        limit = rule_limit("chord-tangent", report.tolerances["scale"])
        [entry] = [c for c in report.checks if c.name == "chord-tangent"]
        assert entry.limit == limit and entry.count == len(family)
        m = frame.n - 1
        sums = {}
        for name, idx, angle in scalar_parallel_chords(frame):
            if name == "tangent-chord":
                i, j, mid = idx
                assert i + j == 2 * mid
                sums.setdefault(i + j, []).append(angle)
        # The pairs i < j <= m of equal parity.
        assert sum(map(len, sums.values())) == \
            math.comb((m + 1) // 2, 2) + math.comb(m // 2, 2)
        assert sorted(family) == [(sigma,) for sigma in sorted(sums)]
        for sigma, angles in sums.items():
            residual = family[(sigma,)]
            assert abs(residual - max(angles)) <= CHORD_ANGLE_TOL, \
                (group, sigma)
            for angle in angles:
                assert not angle > residual + CHORD_ANGLE_TOL, (group, sigma)
                if not angle <= limit + CHORD_ANGLE_TOL:
                    assert not entry.passed, (group, sigma)


# V_2 and V_4 lie 1e-320 apart along x, beside vertices at ±2e8: the chord
# V_2 V_4 of index sum 6 makes pi/4 with V_1 V_5, above the frame's angle
# limit of 0.57.  A chord that much shorter than the chain's largest
# coordinate must keep its direction, not read as (0, 0).
_SHORT_CHORD = tuple(Point(x, y) for x, y in (
    (-2e8, -2e8), (1e-320, 0.0), (1e8, 1e8), (0.0, 0.0), (2e8, 2e8),
    (0.0, 1e8)))
SHORT_CHORD_FRAME = SimsonPolygonFrame(vertices=_SHORT_CHORD,
                                       projections=_SHORT_CHORD,
                                       simson_point=Point(0.0, 1.0))


def _short_chord_entry_and_reference():
    report = verify_parallel_chords(SHORT_CHORD_FRAME)
    [entry] = [c for c in report.checks if c.name == "parallel-chords"]
    reference = [r for name, _, r in scalar_parallel_chords(SHORT_CHORD_FRAME)
                 if name == "parallel-chords"]
    return entry, reference


def test_scalar_reference_fails_a_chord_below_the_chain_exponent():
    entry, reference = _short_chord_entry_and_reference()
    assert entry.limit < math.pi / 4
    assert reference == [0.0, math.pi / 4, 0.0]


def test_parallel_chords_verdict_on_a_chord_below_the_chain_exponent():
    entry, reference = _short_chord_entry_and_reference()
    assert entry.passed == all(r <= entry.limit for r in reference)


@pytest.mark.parametrize("k", [1e160, 1e305])
def test_frames_past_the_float_range_form_no_meet(k):
    # Scaled this far, with coordinates up to about 1e307, a side line's
    # offset p.x*q.y - q.x*p.y overflows and the line is refused before
    # any meet or midpoint is formed, so no infinite spread reaches a
    # pair or a family.
    for frame in (EQUIDISTANT_FRAMES[0], GENERAL_FRAMES[0],
                  SUBSUMPTION_FRAMES["random"][0]):
        scaled = _scaled(frame, k)
        with pytest.raises(NonFinite, match="non-finite line"):
            verify_archimedes(scaled)
