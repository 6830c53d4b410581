import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from geomgen import regular_polygon
from simsonpoly import EquidistantConfig, Point, Polygon, make_equidistant
from simsonpoly.cli import _perturbed, main
from simsonpoly.kernel import DEFAULT_TOLERANCE, circumcircle, \
    line_intersection, line_through
from simsonpoly.scene import SceneDocument
from simsonpoly.simson import find_simson_point

OCT_ARGS = ["construct", "--equidistant", "--s", "1", "--delta", "1", "--n", "8"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def octagon_scene(tmp_path):
    path = tmp_path / "octagon.json"
    assert main([*OCT_ARGS, "--out", str(path)]) == 0
    return path


def pentagon_scene(tmp_path):
    scene = SceneDocument()
    scene.add_polygon("polygon", regular_polygon(5, radius=2.0))
    path = tmp_path / "pentagon.json"
    path.write_text(scene.to_json())
    return path


def uneven_scene(tmp_path):
    path = tmp_path / "uneven.json"
    code = main(["construct", "--feet", "0,0;0.4,0;1.1,0;2.0,0;3.2,0",
                 "--simson-point", "0.3,1.2", "--simson-line", "y=0",
                 "--out", str(path)])
    assert code == 0
    return path


# ---------------------------------------------------------------- construct

def test_construct_equidistant_scene(capsys):
    code, out, _ = run_cli(capsys, *OCT_ARGS)
    assert code == 0
    scene = SceneDocument.from_json(out)
    ids = [e["id"] for e in scene.entities]
    assert ids[:4] == ["L", "C", "Cprime", "polygon"]
    assert "X1" in ids and "X8" in ids and "S" in ids
    verts = scene.find("polygon")["vertices"]
    assert len(verts) == 8
    assert verts[1] == pytest.approx([3.0, 2.0])
    assert [scene.find("S")["x"], scene.find("S")["y"]] == [0.0, 1.0]


def test_construct_is_deterministic(tmp_path):
    outs, svgs = [], []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        svg = tmp_path / f"{tag}.svg"
        assert main([*OCT_ARGS, "--out", str(out), "--svg", str(svg)]) == 0
        outs.append(out.read_bytes())
        svgs.append(svg.read_bytes())
    assert outs[0] == outs[1]
    assert svgs[0] == svgs[1]


def test_construct_svg_is_wellformed(tmp_path):
    svg = tmp_path / "fig.svg"
    assert main([*OCT_ARGS, "--svg", str(svg), "--quiet"]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert "polyline" in text


def test_construct_degenerate_height_exits_3(capsys):
    code, _, err = run_cli(capsys, "construct", "--equidistant", "--s", "0",
                           "--delta", "1", "--n", "8")
    assert code == 3
    assert "error:" in err


def test_construct_equidistant_missing_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--equidistant", "--s", "1",
                           "--n", "8")
    assert code == 2
    assert "--delta" in err


def test_construct_feet_triangle(capsys):
    code, out, _ = run_cli(capsys, "construct", "--feet", "-1,0;0,0;1,0",
                           "--simson-point", "0,1", "--simson-line", "y=0")
    assert code == 0
    verts = SceneDocument.from_json(out).find("polygon")["vertices"]
    for got, want in zip(verts, [[-1, 0], [1, 0], [0, -1]]):
        assert got == pytest.approx(want, abs=1e-12)
    assert len(verts) == 3


def test_construct_feet_missing_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--feet", "0,0;1,0;2,0")
    assert code == 2
    assert "--simson-point" in err


def test_construct_point_on_line_exits_3(capsys):
    code, _, _ = run_cli(capsys, "construct", "--feet", "-1,0;0,0;1,0",
                         "--simson-point", "0.5,0", "--simson-line", "y=0")
    assert code == 3


def test_construct_bad_feet_spec_exits_2(capsys):
    code, _, _ = run_cli(capsys, "construct", "--feet", "zebra",
                         "--simson-point", "0,1", "--simson-line", "y=0")
    assert code == 2


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run_cli(capsys, *OCT_ARGS, "--quiet")
    assert code == 0
    assert out == ""


# ------------------------------------------------------------------- verify

def test_verify_octagon_all_checks_pass(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"simson", "parallel-chords", "isogonal", "optical",
            "archimedes", "lambert"} <= names
    assert all(c["pass"] for c in report["checks"])
    assert max(c["residual"] for c in report["checks"]) < 1e-9


def test_verify_reads_stdin(capsys, tmp_path, monkeypatch):
    text = octagon_scene(tmp_path).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "verify", "--in", "-", "--checks", "simson")
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_verify_is_deterministic(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    _, first, _ = run_cli(capsys, "verify", "--in", str(path))
    _, second, _ = run_cli(capsys, "verify", "--in", str(path))
    assert first == second


def test_verify_pentagon_fails_with_note(capsys, tmp_path):
    path = pentagon_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 4
    report = json.loads(out)
    assert report["overall"] is False
    simson = [c for c in report["checks"] if c["name"] == "simson"][0]
    assert simson["pass"] is False
    assert simson["note"] == "no common intersection of characterization circles"
    others = [c for c in report["checks"] if c["name"] != "simson"]
    assert others and all(c["note"] == "skipped: no simson point"
                          for c in others)


def test_verify_negative_control_fails(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--negative-control")
    assert code == 4
    assert json.loads(out)["overall"] is False


def test_verify_negative_control_is_seeded(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    _, first, _ = run_cli(capsys, "verify", "--in", str(path),
                          "--negative-control", "--seed", "5")
    _, second, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--negative-control", "--seed", "5")
    assert first == second


def test_perturbed_draws_python_floats():
    import numpy as np

    poly = make_equidistant(EquidistantConfig(s=1, x0=-3.5, delta=1, n=8))
    moved = _perturbed(poly.polygon(), 1e-3, 5)
    offsets = np.random.default_rng(5).uniform(-1e-3, 1e-3, size=(8, 2))
    want = [(v.x + dx, v.y + dy)
            for v, (dx, dy) in zip(poly.vertices, offsets)]
    assert [(v.x, v.y) for v in moved.vertices] == want
    assert all(type(t) is float for v in moved.vertices for t in (v.x, v.y))


def test_verify_huge_negative_control_exits_3_with_one_line(capsys,
                                                             tmp_path):
    # The perturbed sides' coefficients overflow; no numpy warning may
    # precede the error line.
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--negative-control", "--perturb", "1e300")
    assert code == 3
    assert out == ""
    assert err.startswith("error: non-finite") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3", "1e308"])
def test_verify_negative_control_bad_perturb_exits_2(capsys, tmp_path, value):
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--negative-control", f"--perturb={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --perturb")


@pytest.mark.parametrize("control", [True, False])
def test_verify_negative_seed_exits_2(capsys, tmp_path, control):
    path = octagon_scene(tmp_path)
    argv = ["verify", "--in", str(path), "--seed", "-1"]
    code, out, err = run_cli(capsys, *argv,
                             *(["--negative-control"] if control else []))
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be non-negative\n"


def test_verify_nonfinite_vertex_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"schema_version": "1", "entities": [{"type": "polygon",'
                    ' "id": "p", "vertices": [[0, 0], [1, 0], [NaN, 1]]}]}')
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 2
    assert err.startswith("error:")


def _polygon_scene(tmp_path, verts):
    scene = SceneDocument()
    scene.add_polygon("polygon", Polygon(tuple(Point(*v) for v in verts)))
    path = tmp_path / "polygon.json"
    path.write_text(scene.to_json())
    return path


def test_verify_collinear_nonadjacent_vertices_is_searched(capsys, tmp_path):
    # V0, V2 and V4 lie on y = 0; no two adjacent sides share a line, so
    # the circle search runs and finds no common point.
    path = _polygon_scene(tmp_path, [(0, 0), (1, -2), (2, 0), (3.3, 1.1),
                                     (4, 0), (1.7, 2.9)])
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 4
    simson = [c for c in json.loads(out)["checks"] if c["name"] == "simson"]
    assert simson[0]["note"] == \
        "no common intersection of characterization circles"


def test_verify_consecutive_collinear_vertices_exit_3(capsys, tmp_path):
    path = _polygon_scene(tmp_path, [(0, 0), (1, 0), (2, 0), (0, 1)])
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: characterization_circles") \
        and err.count("\n") == 1


@pytest.mark.parametrize("scale", [1e110, 1e160, 1e200])
def test_verify_coordinates_beyond_float_range_exit_3(capsys, tmp_path, scale):
    # A quadrilateral near (scale, scale): its circle construction
    # overflows.
    path = _polygon_scene(tmp_path, [
        (scale * (1 + a), scale * (1 + b))
        for a, b in [(0, 0), (0.3, 0.02), (0.25, 0.2), (0.03, 0.11)]])
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: non-finite") and err.count("\n") == 1


def test_verify_polygon_whose_extent_overflows_exits_3(capsys, tmp_path):
    # Finite vertices whose diameter is inf: not "vertices 0 and 1 coincide".
    # Written by hand, since a Polygon of them cannot be built.
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps({"schema_version": "1", "entities": [
        {"type": "polygon", "id": "polygon",
         "vertices": [[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]]}]}))
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: polygon diameter inf leaves the float range\n"


def _scaled_octagon_scene(tmp_path, k):
    # The equidistant octagon (1, -3.5, 1, 8) scaled by k and moved by
    # (7, 5) * k, far from the origin at its own size.
    base = make_equidistant(EquidistantConfig(s=1, x0=-3.5, delta=1, n=8))
    return _polygon_scene(tmp_path, [(k * (v.x + 7), k * (v.y + 5))
                                     for v in base.vertices])


@pytest.mark.parametrize("k", [1e8, 1e16, 1e30, 1e60, 1e100])
def test_verify_recognises_scaled_moved_octagon(capsys, tmp_path, k):
    path = _scaled_octagon_scene(tmp_path, k)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] is True


def test_verify_scaled_octagon_beyond_float_range_exits_3(capsys, tmp_path):
    path = _scaled_octagon_scene(tmp_path, 1e150)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: non-finite") and err.count("\n") == 1


# (s, x0, delta, n), rotation, translation and --seed of negative controls
# whose diameter reaches 1e4..1e5.  The tolerance there grows to ~1e-4, the
# order of the 1e-3 jitter, so a search that fits the focus by least squares
# can absorb the jitter; the circle search must keep rejecting them.
LARGE_CONTROLS = [
    ((0.514357032366184, 1.3158146182234223, 1.2612101222584773, 128),
     1.3254208359861885, (1.4000208037694826, 9.641796730157996), 1853074593),
    ((-0.5965057881910614, 2.033721426431552, 1.024881244804467, 256),
     1.9684365076466745, (1.4894768672687686, 7.545466415819714), 139508890),
]


@pytest.mark.parametrize("params, theta, shift, seed", LARGE_CONTROLS)
def test_large_negative_controls_stay_rejected(params, theta, shift, seed):
    s, x0, delta, n = params
    base = make_equidistant(EquidistantConfig(s=s, x0=x0, delta=delta, n=n))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    moved = Polygon(tuple(
        Point(cos_t * v.x - sin_t * v.y + shift[0],
              sin_t * v.x + cos_t * v.y + shift[1])
        for v in base.polygon().vertices))
    assert find_simson_point(moved) is not None
    assert find_simson_point(_perturbed(moved, 1e-3, seed)) is None


def test_verify_lambert_custom_triple(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "lambert", "--triple", "2,5,8")
    assert code == 0
    report = json.loads(out)
    assert [c["indices"] for c in report["checks"]] == [[2, 5, 8]]


def test_verify_tolerances_name_the_limits_checks_faced(capsys, tmp_path):
    # A flat polygon (s = 0.01) whose lambert circle is ~900 times larger
    # than the polygon: lambert's own limit must not stand in for the
    # length limit that optical and archimedes were judged at.
    path = tmp_path / "flat.json"
    assert main(["construct", "--equidistant", "--s", "0.01", "--x0", "-20",
                 "--delta", "1", "--n", "5", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--triple", "1,2,5")
    assert code == 0
    tolerances = json.loads(out)["tolerances"]
    tol = DEFAULT_TOLERANCE
    scale = tolerances["scale"]
    assert tolerances["length_limit"] == tol.bound(scale)
    assert tolerances["angle_limit"] == tol.bound(max(1.0, scale))
    poly = make_equidistant(EquidistantConfig(s=0.01, x0=-20.0, delta=1.0,
                                              n=5))
    v = poly.vertices
    sides = [line_through(v[t - 1], v[t % 5]) for t in (1, 2, 5)]
    corners = [line_intersection(sides[a], sides[b])
               for a, b in ((0, 1), (0, 2), (1, 2))]
    radius = circumcircle(*corners).radius
    assert radius > 100.0 * scale
    assert tolerances["lambert_limit"] == pytest.approx(
        tol.bound(max(radius, scale)), rel=1e-9)


def test_verify_malformed_triple_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    for spec in ("1,2", "1,2,x"):
        code, _, _ = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", "lambert", "--triple", spec)
        assert code == 2


def test_verify_out_of_range_triple_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, _, err = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "lambert", "--triple", "1,2,9")
    assert code == 2
    assert "error:" in err


def test_verify_unknown_check_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, _, err = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "simson,voodoo")
    assert code == 2
    assert "voodoo" in err


def test_verify_missing_in_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "--in" in err


def test_verify_unreadable_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "verify", "--in", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't "
                          "decode byte 0xff")
    assert err.count("\n") == 1


def test_verify_scene_nested_beyond_the_recursion_limit_exits_2(
        capsys, tmp_path, monkeypatch):
    scene = octagon_scene(tmp_path).read_text().rstrip()
    depth = 100_000
    assert depth > sys.getrecursionlimit()
    deep = scene[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}"
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    code, out, err = run_cli(capsys, "verify", "--in", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth")
    assert err.count("\n") == 1


def test_verify_malformed_scene_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 2


def test_verify_uneven_feet_equidistant_checks_fail(capsys, tmp_path):
    path = uneven_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "parallel-chords")
    assert code == 4
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "equidistant-spacing" in names


def test_verify_uneven_feet_general_checks_pass(capsys, tmp_path):
    path = uneven_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "simson,isogonal,lambert")
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_verify_small_polygon_skips_archimedes(capsys, tmp_path):
    path = tmp_path / "square.json"
    assert main(["construct", "--equidistant", "--s", "1", "--delta", "1",
                 "--n", "4", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "archimedes")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks[-1]["note"] == "skipped: needs n >= 5"


TRIANGLE_NOTE = "skipped: a triangle's Simson point is not unique"


@pytest.mark.parametrize("n, expected", [
    (3, [("simson", None), ("isogonal", None), ("lambert", None),
         ("parallel-chords", TRIANGLE_NOTE), ("optical", TRIANGLE_NOTE),
         ("archimedes", TRIANGLE_NOTE)]),
    (4, [("simson", None),
         ("isogonal", "skipped: vertex on the simson line at 1, 4"),
         ("lambert", None), ("chord-tangent", None),
         ("midpoints-aligned", None), ("optical", None),
         ("archimedes", "skipped: needs n >= 5")]),
])
def test_verify_equidistant_round_trip(capsys, tmp_path, n, expected):
    # Every point of a triangle's circumcircle is a Simson point, so the
    # search need not return the one that built the triangle: its
    # equidistant checks pass with a note.  n = 4 runs them.
    path = tmp_path / "poly.json"
    assert main(["construct", "--equidistant", "--s", "1", "--delta", "1",
                 "--n", str(n), "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [(c["name"], c.get("note")) for c in checks] == expected
    assert all(c["pass"] for c in checks)


# ------------------------------------------------------------------- approx

def test_approx_payload(capsys):
    code, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                           "--b", "4", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["knots"] == pytest.approx([0, 1, 2, 3, 4])
    assert payload["l1_error"] == pytest.approx(1.0 / 6.0)
    assert payload["knot_points"][2] == pytest.approx([2.0, 1.0])


def test_approx_compare_quadrature(capsys):
    code, out, _ = run_cli(capsys, "approx", "--s", "1.5", "--a", "-1",
                           "--b", "3", "--n", "5", "--compare-quadrature")
    assert code == 0
    q = json.loads(out)["quadrature"]
    assert q["l1_relative_difference"] < 1e-12
    assert q["l2_relative_difference"] < 1e-12


def test_approx_perturb_knot_raises_objective(capsys):
    code, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                           "--b", "4", "--n", "4", "--perturb-knot", "2,0.001")
    assert code == 0
    delta = json.loads(out)["perturb_knot"]["objective_delta"]
    assert delta > 0.0


def test_approx_perturb_knot_negative_eps_ok(capsys):
    code, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0", "--b", "4",
                           "--n", "4", "--perturb-knot", "-0.01")
    # one field only: malformed, needs INDEX,EPS
    assert code == 2


def test_approx_perturb_knot_bad_index_exits_2(capsys):
    for idx in ("0", "4", "9"):
        code, _, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                             "--b", "4", "--n", "4",
                             "--perturb-knot", f"{idx},0.001")
        assert code == 2


# --perturb-knot is a usage error before any knot is computed, even when
# the computation itself would fail (exit 3).
@pytest.mark.parametrize("argv, message", [
    (["--s", "1", "--a", "1", "--b", "1.0000000000000002", "--n", "3",
      "--perturb-knot", "x"], "--perturb-knot expects INDEX,EPS"),
    (["--s", "1e-300", "--a", "0", "--b", "1", "--n", "3",
      "--perturb-knot", "9,1"], "--perturb-knot index must be interior (1..2)"),
    (["--s", "1", "--a", "0", "--b", "4", "--n", "1",
      "--perturb-knot", "1,1e-3"], "--n 1 has none"),
])
def test_approx_perturb_knot_is_checked_before_computing(capsys, argv,
                                                          message):
    code, out, err = run_cli(capsys, "approx", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_approx_empty_interval_exits_2(capsys):
    code, _, err = run_cli(capsys, "approx", "--s", "1", "--a", "2",
                           "--b", "2", "--n", "1")
    assert code == 2
    assert "a < b" in err


def test_approx_zero_segments_exits_2(capsys):
    code, _, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                         "--b", "1", "--n", "0")
    assert code == 2


def test_approx_zero_s_exits_3(capsys):
    code, _, _ = run_cli(capsys, "approx", "--s", "0", "--a", "0",
                         "--b", "1", "--n", "1")
    assert code == 3


def test_approx_last_knot_is_b(capsys):
    code, out, err = run_cli(capsys, "approx", "--s", "1", "--a=-3.0",
                             "--b", "0.7", "--n", "3")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["knots"][0] == -3.0 and payload["knots"][-1] == 0.7
    assert payload["knot_points"][-1][0] == 0.7


def test_approx_interval_too_narrow_for_n_exits_3(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "approx", "--s", "1", "--a", "1",
                             "--b", "1.0000000000000002", "--n", "3",
                             "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err == "error: knots not strictly increasing at 1.0, 1.0\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["--s", "1e-300", "--a", "-1", "--b", "1", "--n", "4"],
    ["--s=1", "--a=-1e100", "--b=1e100", "--n=1"],
    ["--s", "1e-160", "--a", "-1", "--b", "1", "--n", "4"],
    ["--s=1", "--a=-1e308", "--b=1e308", "--n=4"],
    ["--s=2.383236298920392e-14", "--a=-5.6165544297e-314",
     "--b=6.2922017e-317", "--n=3"],
], ids=["s2-underflows", "h5-overflows", "l2-overflows", "width-overflows",
        "figure-scale-overflows"])
def test_approx_outside_float_range_exits_3(capsys, tmp_path, argv):
    out_path, svg_path = tmp_path / "out.json", tmp_path / "out.svg"
    code, out, err = run_cli(capsys, "approx", *argv, "--out", str(out_path),
                             "--svg", str(svg_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "leaves the float range" in err
    assert not out_path.exists() and not svg_path.exists()


def test_svg_canvas_outside_float_range_raises():
    from simsonpoly.kernel import NonFinite
    from simsonpoly.svgfig import SvgCanvas

    with pytest.raises(NonFinite, match="leaves the float range"):
        SvgCanvas(-5.6e-314, 0.0, 6.3e-317, 1.0)
    with pytest.raises(NonFinite, match="leaves the float range"):
        SvgCanvas(-1e308, 0.0, 1.7e308, 1.0)
    assert SvgCanvas(0.0, 0.0, 1e-300, 1e-300).height == 720


def test_approx_svg(tmp_path):
    svg = tmp_path / "approx.svg"
    assert main(["approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4",
                 "--svg", str(svg), "--quiet"]) == 0
    assert "<svg" in svg.read_text()


# -------------------------------------------------------------------- limit

def test_limit_orders_are_quadratic(capsys):
    code, out, _ = run_cli(capsys, "limit", "--s", "1", "--m-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["order_ok"] is True
    assert len(payload["rows"]) == 4
    for order in payload["observed_orders"]:
        assert order == pytest.approx(2.0, abs=1e-6)
    for row in payload["rows"]:
        assert row["hausdorff"] == pytest.approx(row["bound"], rel=1e-9)


def test_limit_rows_name_the_vertex_maximum(capsys):
    # With delta = 1 over [-1.5, 1.5] no vertex sits at the apex, so the
    # arc ends, not the vertices, attain the distance.
    code, out, _ = run_cli(capsys, "limit", "--s", "1", "--window", "1.5",
                           "--m-max", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [list(row) for row in rows] == \
        [["delta", "hausdorff", "bound", "chain_to_parabola"]] * 2
    assert rows[0]["chain_to_parabola"] < rows[0]["hausdorff"]
    assert rows[1]["chain_to_parabola"] == pytest.approx(rows[1]["hausdorff"],
                                                         rel=1e-12)


def test_limit_single_row_has_no_order_flag(capsys):
    code, out, _ = run_cli(capsys, "limit", "--s", "1", "--m-max", "0")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert "order_ok" not in payload
    assert payload["observed_orders"] == []


def test_limit_nontiling_window_exits_3(capsys):
    code, _, _ = run_cli(capsys, "limit", "--s", "1", "--window", "0.3",
                         "--m-max", "0")
    assert code == 3


@pytest.mark.parametrize("s", ["0", "-0.0"])
def test_limit_zero_s_exits_3(capsys, s):
    code, out, err = run_cli(capsys, "limit", "--s", s)
    assert code == 3
    assert out == ""
    assert err == f"error: parabola needs s != 0, got {float(s)}\n"


def test_limit_bad_window_exits_2(capsys):
    code, _, _ = run_cli(capsys, "limit", "--s", "1", "--window", "-2")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_limit_nonfinite_window_exits_2(capsys, value):
    code, _, err = run_cli(capsys, "limit", "--s", "1", "--window", value)
    assert code == 2
    assert err.startswith("error: --window")


@pytest.mark.parametrize("argv", [
    ["--s", "1e-310", "--m-max", "1"],
    ["--s", "1e300", "--m-max", "1"],
    ["--s", "1", "--window", "1e300", "--m-max", "0"],
])
def test_limit_overflowing_study_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, "limit", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "leaves the float range" in err


def test_limit_below_float_precision_exits_3(capsys):
    code, out, err = run_cli(capsys, "limit", "--s", "1e20", "--m-max", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float precision" in err


@pytest.mark.parametrize("argv", [
    ["--window", "1e5", "--m-max", "0"],
    ["--window", "4", "--m-max", "12"],
    ["--window", "2", "--m-max", str(10 ** 30)],
])
def test_limit_too_many_segments_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "limit", "--s", "1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "chain segments" in err


# ------------------------------------------------------------ JSON emission

EMIT_CASES = [
    ["verify", "--in", "{uneven}"],
    ["approx", "--s", "1.5", "--a", "-1", "--b", "3", "--n", "5",
     "--compare-quadrature"],
    ["limit", "--s", "1", "--m-max", "2"],
]


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("argv", EMIT_CASES, ids=lambda a: a[0])
def test_json_output_is_dumps_with_newline(capsys, tmp_path, argv, to_file):
    """Reports are byte for byte json.dumps(payload, indent=2) + newline.

    Re-encoding the parsed output reproduces exactly those bytes, since
    every float (Infinity included) round-trips and key order is kept.
    """
    argv = [a.format(uneven=uneven_scene(tmp_path)) for a in argv]
    out_path = tmp_path / "out.json"
    extra = ["--out", str(out_path)] if to_file else []
    code, out, _ = run_cli(capsys, *argv, *extra)
    assert code in (0, 4)
    if to_file:
        assert out == ""
        out = out_path.read_text(encoding="utf-8")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    OCT_ARGS,
    ["verify", "--in", "{octagon}"],
    ["approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4"],
    ["limit", "--s", "1", "--m-max", "1"],
], ids=lambda a: a[0])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv, target):
    argv = [a.format(octagon=octagon_scene(tmp_path)) for a in argv]
    bad = tmp_path / "no" / "such.json" if target == "missing-dir" else tmp_path
    code, _, err = run_cli(capsys, *argv, "--out", str(bad))
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}")


def test_unwritable_svg_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, *OCT_ARGS, "--quiet", "--svg", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot write")


# ----------------------------------------------------------------- plumbing

def test_no_command_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


EQUI_5 = ["construct", "--equidistant", "--s", "1", "--delta", "1", "--n", "5"]
APPROX = ["approx", "--s", "1", "--a", "0", "--b", "1", "--n", "2"]


@pytest.mark.parametrize("argv, flag", [
    (APPROX + ["--s", "nan"], "--s"),
    (APPROX + ["--a", "nan"], "--a"),
    (APPROX + ["--perturb-knot", "1,nan"], "--perturb-knot"),
    (EQUI_5 + ["--s", "nan"], "--s"),
    (EQUI_5 + ["--delta", "inf"], "--delta"),
    (EQUI_5 + ["--x0", "inf"], "--x0"),
    (["limit", "--s", "nan"], "--s"),
])
def test_nonfinite_flag_exits_2(capsys, argv, flag):
    # A repeated flag overrides the earlier value.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be finite")


def test_unknown_flag_exits_2(capsys):
    assert run_cli(capsys, "limit", "--s", "1", "--frobnicate")[0] == 2


# Every flag each subcommand declares, --help included.
SUBCOMMAND_FLAGS = {
    "construct": "--out --svg --quiet --equidistant --s --delta "
                 "--n --x0 --feet --simson-point --simson-line --help",
    "verify": "--out --in --quiet --checks --triple "
              "--negative-control --perturb --seed --help",
    "approx": "--out --svg --quiet --s --a --b --n --delta "
              "--compare-quadrature --perturb-knot --help",
    "limit": "--out --quiet --s --window --m-max --help",
}
# A well-formed request of each subcommand.
SUBCOMMAND_ARGS = {
    "construct": OCT_ARGS[1:],
    "verify": ["--in", "{octagon}"],
    "approx": APPROX[1:],
    "limit": ["--s", "1", "--m-max", "1"],
}


@pytest.mark.parametrize("command, flag", [
    ("construct", "--in"), ("verify", "--svg"), ("approx", "--tolerance"),
    ("approx", "--in"), ("limit", "--tolerance"), ("limit", "--svg"),
    ("limit", "--in"),
])
def test_flag_of_another_subcommand_exits_2(capsys, tmp_path, command, flag):
    octagon = octagon_scene(tmp_path)
    svg = tmp_path / "fig.svg"
    value = {"--in": str(octagon), "--svg": str(svg), "--tolerance": "1e-6"}
    argv = [command, *(a.format(octagon=octagon)
                       for a in SUBCOMMAND_ARGS[command]), flag, value[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err
    out_path = tmp_path / "out.json"
    if "--svg" in SUBCOMMAND_FLAGS[command].split():
        argv += ["--svg", str(svg)]
    assert run_cli(capsys, *argv, "--out", str(out_path))[0] == 2
    assert not out_path.exists() and not svg.exists()


# No subcommand takes a threshold: every check is judged at the package's
# DEFAULT_TOLERANCE.  The verify case is a negative control that a
# tolerance of 1e-3 would have let pass.
@pytest.mark.parametrize("argv", [
    [*OCT_ARGS, "--tolerance", "-1"],
    ["verify", "--in", "{octagon}", "--negative-control",
     "--tolerance", "1e-3"],
    [*APPROX, "--tolerance", "1e-6"],
    ["limit", "--s", "1", "--m-max", "1", "--tolerance", "1e-6"],
], ids=["construct", "verify", "approx", "limit"])
def test_tolerance_flag_exits_2(capsys, tmp_path, argv):
    octagon = octagon_scene(tmp_path)
    out_path = tmp_path / "out.json"
    argv = [a.format(octagon=octagon) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tolerance" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_exactly_the_subcommand_flags(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z0-9-]+", out)) == \
        set(SUBCOMMAND_FLAGS[command].split())


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "simsonpoly", *OCT_ARGS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == "1"


@pytest.mark.parametrize("argv", [
    ["limit", "--s", "1", "--m-max", "0"],
    ["limit", "--s", "1", "--m-max", "9"],
    [*OCT_ARGS[:-1], "256"],
])
def test_closed_stdout_exits_2(argv):
    # The reader of stdout is gone before anything is written: the CLI
    # names the failure in one line and exits 2, the code of an
    # unwritable --out, without a traceback at exit either.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "simsonpoly", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
