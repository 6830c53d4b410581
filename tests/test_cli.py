import errno
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import simsonpoly
from geomgen import OCTAGON_SCALES, moved_equidistant, regular_polygon, \
    src_env, strict_json
from judged import ANGLE_FAMILIES, LENGTH_FAMILIES, rule_limit
from simsonpoly import EquidistantConfig, Point, Polygon, make_equidistant
from simsonpoly.cli import COMMANDS, _observed, main
from simsonpoly.kernel import MAX_SEGMENTS, REL_EPS, GeometryError, \
    UsageError, bound, circumcircle, line_intersection, line_through
from simsonpoly.scene import SceneDocument, _perturbed
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
    by_id = {e["id"]: e for e in scene.entities}
    assert list(by_id)[:4] == ["L", "C", "Cprime", "polygon"]
    assert "X1" in by_id and "X8" in by_id and "S" in by_id
    verts = by_id["polygon"]["vertices"]
    assert len(verts) == 8
    assert verts[1] == pytest.approx([3.0, 2.0])
    assert [by_id["S"]["x"], by_id["S"]["y"]] == [0.0, 1.0]


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


def test_construct_svg_clips_a_slanted_line_at_top_and_bottom(tmp_path):
    # y = 2x leaves the figure's window through its top and bottom edges.
    svg = tmp_path / "fig.svg"
    assert main(["construct", "--feet", "-1,-2;0,0;1,2;2,4",
                 "--simson-point=-2,1", "--simson-line", "y=2x", "--quiet",
                 "--svg", str(svg)]) == 0
    lines = [row for row in svg.read_text().splitlines()
             if row.startswith("<line")]
    assert lines == ['<line x1="102.86" y1="1028.57" x2="617.14" y2="0.00"'
                     ' stroke="#555555" stroke-width="1.5"/>']


@pytest.mark.parametrize("k", [-100, -40, 40, 100])
def test_construct_svg_does_not_depend_on_units(tmp_path, k):
    # Scaling by 2^k is exact, so the request scaled by it draws the same
    # figure, byte for byte.
    def figure(k, name):
        def xy(x, y):
            return f"{math.ldexp(x, k)!r},{math.ldexp(y, k)!r}"
        svg = tmp_path / name
        feet = ";".join(xy(x, y) for x, y in [(-1, -2), (0, 0), (1, 2), (2, 4)])
        assert main(["construct", "--feet", feet,
                     f"--simson-point={xy(-2, 1)}", "--simson-line", "y=2x",
                     "--quiet", "--svg", str(svg)]) == 0
        return svg.read_bytes()

    assert figure(k, "scaled.svg") == figure(0, "unit.svg")


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
    verts = SceneDocument.from_json(out).of_type("polygon")[0]["vertices"]
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


def test_construct_overflowing_feet_exit_3_naming_the_float_range(capsys):
    # The extent overflows; s is not on L, whatever an infinite tolerance
    # would say.
    code, out, err = run_cli(capsys, "construct",
                             "--feet=0,0;1e308,0;-1e308,0",
                             "--simson-point=0,1", "--simson-line=y=0")
    assert code == 3
    assert out == ""
    assert "leaves the float range" in err
    assert "simson line" not in err


@pytest.mark.parametrize("argv", [
    ["--s", "1", "--delta", "1", "--n", "8", "--x0", "1e160"],
    ["--s=-1e10", "--delta=1e100", "--x0=1e200", "--n", "3"],
    # s scaled by the feet's power of two would underflow to 0 here.
    ["--s=-1e-160", "--delta=1e-200", "--x0=1e200", "--n", "3"],
])
def test_construct_equidistant_vertex_beyond_float_range_exits_3(capsys,
                                                                 argv):
    code, out, err = run_cli(capsys, "construct", "--equidistant", *argv)
    assert code == 3
    assert out == ""
    assert err == "error: equidistant vertex beyond the float range\n"


def test_construct_line_whose_offset_leaves_the_float_range_exits_2(capsys):
    # Normalised, 1e-320x + 1 = 0 is x = -1e320: the spec is refused, not
    # read as a line that the feet miss.
    code, out, err = run_cli(capsys, "construct", "--feet", "0,0;1,0;2,0",
                             "--simson-point", "0.5,2",
                             "--simson-line", "1e-320x+1=0")
    assert (code, out) == (2, "")
    assert err == ("error: line spec '1e-320x+1=0': "
                   "non-finite line (1e-320, 0.0, 1.0)\n")


def test_construct_bad_feet_spec_exits_2(capsys):
    code, _, _ = run_cli(capsys, "construct", "--feet", "zebra",
                         "--simson-point", "0,1", "--simson-line", "y=0")
    assert code == 2


@pytest.mark.parametrize("feet, point, message", [
    ("nan,0;1,0;2,0", "0,1", "point spec 'nan,0' must be finite"),
    ("-1,0;0,0;1,0", "nan,1", "point spec 'nan,1' must be finite"),
    ("1e400,0;1,0;2,0", "0,1", "point spec '1e400,0' must be finite"),
    ("0,0;1,0;2,0", "-inf,1", "point spec '-inf,1' must be finite"),
    ("0,0;1,0;x,0", "0,1", "point spec 'x,0' must be numeric"),
])
def test_construct_point_spec_names_what_is_wrong(capsys, feet, point,
                                                  message):
    # float() reads nan, inf and 1e400; only what it cannot read is not
    # numeric.
    code, out, err = run_cli(capsys, "construct", f"--feet={feet}",
                             f"--simson-point={point}", "--simson-line=y=0")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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
            "archimedes-family", "lambert"} <= names
    assert len(report["checks"]) == 8
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
    report = json.loads(out)
    assert report["overall"] is False
    # No Simson point, so no frame and no scale.
    assert report["tolerances"] == {"rel_eps": REL_EPS}


def test_verify_negative_control_is_seeded(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    _, first, _ = run_cli(capsys, "verify", "--in", str(path),
                          "--negative-control", "--seed", "5")
    _, second, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--negative-control", "--seed", "5")
    assert first == second


def test_verify_negative_control_is_the_same_in_every_process(tmp_path):
    # The noise must not depend on anything a fresh interpreter varies,
    # such as its string hash seed.
    path = octagon_scene(tmp_path)

    def control(seed, hash_seed):
        proc = subprocess.run(
            [sys.executable, "-m", "simsonpoly", "verify", "--in", str(path),
             "--negative-control", "--seed", seed], capture_output=True,
            text=True, env=dict(src_env(), PYTHONHASHSEED=hash_seed),
            timeout=120)
        assert (proc.returncode, proc.stderr) == (4, "")
        return proc.stdout

    first = control("5", "0")
    assert control("5", "1") == first
    assert control("6", "0") != first


@pytest.mark.parametrize("checks, hit, miss", [
    ("isogonal,isogonal", ["isogonal"], ["isogonal"]),
    ("lambert,archimedes,isogonal",
     ["isogonal", "lambert", "archimedes-family"],
     ["isogonal", "lambert", "archimedes"]),
    ("all", ["simson", "isogonal", "lambert", "parallel-chords",
             "chord-tangent", "midpoints-aligned", "optical",
             "archimedes-family"],
     ["simson", "isogonal", "lambert", "parallel-chords", "optical",
      "archimedes"]),
])
def test_verify_lists_each_check_once_in_report_order(capsys, tmp_path,
                                                      checks, hit, miss):
    # However --checks repeats or orders its names, a hit and a miss list
    # the checks once each: simson, isogonal, lambert, then the
    # equidistant ones.
    path = octagon_scene(tmp_path)
    for control, code, names in (([], 0, hit),
                                 (["--negative-control"], 4, miss)):
        got, out, _ = run_cli(capsys, "verify", "--in", str(path),
                              "--checks", checks, *control)
        assert got == code
        assert [c["name"] for c in json.loads(out)["checks"]] == names


def _circle_builds(capsys, monkeypatch, path, *flags):
    """verify's exit code on the scene at path, and how many times it
    built the characterization circles."""
    from simsonpoly.simson import characterization_circles

    calls = []

    def counted(poly):
        calls.append(poly)
        return characterization_circles(poly)

    monkeypatch.setattr("simsonpoly.simson.characterization_circles", counted)
    code, _, _ = run_cli(capsys, "verify", "--in", str(path), *flags)
    return code, len(calls)


def test_a_verify_miss_builds_the_circles_once(capsys, tmp_path,
                                               monkeypatch):
    # The miss's residual comes from the search that missed.
    path = tmp_path / "octagon.json"
    assert main(["construct", "--equidistant", "--s", "1", "--x0=-3.5",
                 "--delta", "1", "--n", "8", "--out", str(path)]) == 0
    assert _circle_builds(capsys, monkeypatch, path, "--negative-control",
                          "--seed", "1") == (4, 1)


def test_a_verify_hit_builds_the_circles_once(capsys, tmp_path,
                                              monkeypatch):
    # The frame is built from the search's own certificate.
    assert _circle_builds(capsys, monkeypatch,
                          octagon_scene(tmp_path)) == (0, 1)


def test_perturbed_draws_python_floats():
    from random import Random

    poly = make_equidistant(EquidistantConfig(s=1, x0=-3.5, delta=1, n=8))
    moved = _perturbed(poly.polygon(), 1e-3, 5)
    rng = Random(5)
    want = [(v.x + (-1e-3 + 2e-3 * rng.random()),
             v.y + (-1e-3 + 2e-3 * rng.random())) for v in poly.vertices]
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


# --perturb is checked with or without --negative-control, as --seed is;
# the ids of the runs with the flag are the value alone.
@pytest.mark.parametrize("value, control", [
    pytest.param(value, control, id=value if control else f"{value}-False")
    for control in (True, False)
    for value in ("nan", "inf", "0", "-1e-3", "1e308")])
def test_verify_negative_control_bad_perturb_exits_2(capsys, tmp_path, value,
                                                     control):
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             f"--perturb={value}",
                             *(["--negative-control"] if control else []))
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


@pytest.mark.parametrize("entity,message", [
    ('{"type": "parabola", "id": "C", "s": 0, "c": 1}',
     "s must be nonzero and finite, got 0"),
    ('{"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": -1}',
     "circle radius must be positive, got -1"),
    ('{"type": "line", "id": "L", "a": 1e-320, "b": 0, "c": 1}',
     "non-finite line (1e-320, 0, 1)"),
])
def test_verify_scene_entity_off_its_kernel_rule_exits_2(capsys, tmp_path,
                                                        entity, message):
    path = tmp_path / "scene.json"
    path.write_text('{"schema_version": "1", "entities": [{"type": "polygon",'
                    ' "id": "p", "vertices": [[0, 0], [1, 0], [0, 1]]}, '
                    f'{entity}]}}')
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (2, f"error: {message}\n")


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


def _far_quadrilateral_scene(tmp_path, scale):
    # A quadrilateral near (scale, scale), of size about scale / 3.
    return _polygon_scene(tmp_path, [
        (scale * (1 + a), scale * (1 + b))
        for a, b in [(0, 0), (0.3, 0.02), (0.25, 0.2), (0.03, 0.11)]])


@pytest.mark.parametrize("scale", [1e110, 1e154])
def test_verify_far_quadrilateral_finds_its_simson_point(capsys, tmp_path,
                                                         scale):
    # The circumcircles solve on differences scaled near 1, so they stay
    # finite while a side line's offset (an x times a y) does.
    path = _far_quadrilateral_scene(tmp_path, scale)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", "simson,isogonal,lambert")
    assert (code, err) == (0, "")
    assert [c["name"] for c in json.loads(out)["checks"]] == \
        ["simson", "isogonal", "lambert"]


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_verify_coordinates_beyond_float_range_exit_3(capsys, tmp_path, scale):
    # A side line's offset overflows.
    path = _far_quadrilateral_scene(tmp_path, scale)
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


# k = -1 turns the octagon by pi: its feet march against the direction of
# its Simson line, so equidistant_from_frame mirrors the frame.
@pytest.mark.parametrize("k", [-1.0, 1e8, 1e16, 1e30, 1e60, 1e100, 1e150,
                               1e-110])
def test_verify_recognises_scaled_moved_octagon(capsys, tmp_path, k):
    path = _scaled_octagon_scene(tmp_path, k)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] is True and len(report["checks"]) == 8


def test_verify_scaled_octagon_beyond_float_range_exits_3(capsys, tmp_path):
    # A side line's offset, an x times a y, overflows.
    path = _scaled_octagon_scene(tmp_path, 1e155)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: non-finite line") and err.count("\n") == 1


@pytest.mark.parametrize("k", OCTAGON_SCALES)
def test_scaled_octagon_is_built_and_recognised(capsys, tmp_path, k):
    path = tmp_path / "octagon.json"
    code, _, err = run_cli(capsys, "construct", "--equidistant", f"--s={k}",
                           f"--x0={-3.5 * k}", f"--delta={k}", "--n", "8",
                           "--out", str(path))
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] is True and len(report["checks"]) == 8


def _octagon_argv(k):
    """``construct`` argv of the octagon (2^k, -3.5·2^k, 2^k, 8)."""
    x = math.ldexp(1.0, k)
    return ["construct", "--equidistant", f"--s={x!r}", f"--x0={-3.5 * x!r}",
            f"--delta={x!r}", "--n", "8"]


def test_construct_octagon_up_to_2_pow_511(capsys, tmp_path):
    # Above 2^511 the associated parabola's offset delta^2 overflows.
    path = tmp_path / "octagon.json"
    code, _, err = run_cli(capsys, *_octagon_argv(511), "--out", str(path))
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, *_octagon_argv(512))
    assert (code, out) == (3, "")
    assert err == "error: parabola offset must be finite, got inf\n"


def _underflow(what):
    return pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"the side lines' offsets underflow and verify {what} "
               "(ROADMAP item 12(b))")


@pytest.mark.parametrize("k", [
    -535,
    pytest.param(-536, marks=_underflow("exits 4")),
    pytest.param(-541, marks=_underflow("exits 3, circumcircle: collinear "
                                        "input"))])
def test_verify_recognises_the_octagon_at_small_scale(capsys, tmp_path, k):
    path = tmp_path / "octagon.json"
    assert run_cli(capsys, *_octagon_argv(k), "--out", str(path))[0] == 0
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")


# Every triangle has Simson points (its circumcircle), so verify should
# recognise a right triangle at any scale that floats represent.
@pytest.mark.parametrize("verts", [
    pytest.param([(0, 0), (1e-300, 0), (0, 1e-300)], marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="kernel.join_points' offset c = p.x*q.y - q.x*p.y "
               "underflows to 0, so verify exits 3: element 1 degenerates "
               "(ROADMAP item 12(b))")),
    pytest.param([(0, 0), (1e300, 0), (0, 1e300)], marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="kernel.join_points' offset c = p.x*q.y - q.x*p.y "
               "overflows to inf, so verify exits 3: non-finite line "
               "(ROADMAP item 12(b))"))])
def test_verify_recognises_a_right_triangle_at_extreme_scale(capsys, tmp_path,
                                                             verts):
    path = _polygon_scene(tmp_path, verts)
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")


def test_verify_all_collinear_pentagon_through_the_origin_exits_3(capsys,
                                                                  tmp_path):
    # Every side lies on one line through the origin, whose offset is 0:
    # the side lines coincide at every turn of the line.
    for r in range(0, 300, 7):
        c, s = math.cos(r * math.pi / 150), math.sin(r * math.pi / 150)
        path = _polygon_scene(tmp_path, [(t * c, t * s)
                                         for t in (-2.0, 1.0, 3.0, -1.0, 2.0)])
        code, out, err = run_cli(capsys, "verify", "--in", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: characterization_circles: side lines") \
            and err.endswith("coincide\n")


# (s, x0, delta, n), rotation, translation and numpy seed of negative
# controls whose diameter reaches 1e4..1e5.  The tolerance there grows to
# ~1e-4, the order of the 1e-3 jitter, so a search that fits the focus by
# least squares can absorb the jitter; the circle search must keep
# rejecting them.
LARGE_CONTROLS = [
    ((0.514357032366184, 1.3158146182234223, 1.2612101222584773, 128),
     1.3254208359861885, (1.4000208037694826, 9.641796730157996), 1853074593),
    ((-0.5965057881910614, 2.033721426431552, 1.024881244804467, 256),
     1.9684365076466745, (1.4894768672687686, 7.545466415819714), 139508890),
]


@pytest.mark.parametrize("params, theta, shift, seed", LARGE_CONTROLS)
def test_large_negative_controls_stay_rejected(params, theta, shift, seed):
    import numpy as np

    s, x0, delta, n = params
    moved = moved_equidistant(
        EquidistantConfig(s=s, x0=x0, delta=delta, n=n), theta, shift)
    assert find_simson_point(moved) is not None
    # The jitter is numpy's, as when these controls were found, so they
    # stay the same polygons whatever --negative-control draws from.
    offsets = np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=(n, 2))
    jittered = Polygon(tuple(Point(v.x + float(dx), v.y + float(dy))
                             for v, (dx, dy) in zip(moved.vertices, offsets)))
    assert find_simson_point(jittered) is None


def test_verify_lambert_custom_triple(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "lambert", "--triple", "2,5,8")
    assert code == 0
    report = json.loads(out)
    assert [c["indices"] for c in report["checks"]] == [[2, 5, 8]]


def test_verify_tolerances_name_the_limits_checks_faced(capsys, tmp_path):
    # A flat polygon (s = 0.01) whose lambert circle is ~900 times larger
    # than the polygon.  The tolerances name the scale, and each entry its
    # limit by its family's rule at that scale: lambert's own limit must
    # not stand in for the length limit optical and archimedes faced.
    path = tmp_path / "flat.json"
    assert main(["construct", "--equidistant", "--s", "0.01", "--x0", "-20",
                 "--delta", "1", "--n", "5", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--triple", "1,2,5")
    assert code == 0
    report = json.loads(out)
    scale = report["tolerances"]["scale"]
    assert report["tolerances"] == {"rel_eps": REL_EPS, "scale": scale}
    limits = {c["name"]: c["limit"] for c in report["checks"] if "limit" in c}
    assert sorted(limits) == sorted(LENGTH_FAMILIES + ANGLE_FAMILIES
                                    + ("lambert",))
    for name in LENGTH_FAMILIES + ANGLE_FAMILIES:
        assert limits[name] == rule_limit(name, scale), name
    poly = make_equidistant(EquidistantConfig(s=0.01, x0=-20.0, delta=1.0,
                                              n=5))
    v = poly.vertices
    sides = [line_through(v[t - 1], v[t % 5]) for t in (1, 2, 5)]
    corners = [line_intersection(sides[a], sides[b])
               for a, b in ((0, 1), (0, 2), (1, 2))]
    radius = circumcircle(*corners).radius
    assert radius > 100.0 * scale
    assert limits["lambert"] == pytest.approx(
        rule_limit("lambert", scale, radius), rel=1e-9)
    assert limits["lambert"] > 100.0 * limits["optical"]


def test_verify_malformed_triple_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    for spec in ("1,2", "1,2,x"):
        code, _, _ = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", "lambert", "--triple", spec)
        assert code == 2


@pytest.mark.parametrize("control", [False, True])
@pytest.mark.parametrize("spec", ["1,2,9", "1,1,2"])
def test_verify_out_of_range_triple_exits_2(capsys, tmp_path, spec, control):
    # Judged before the search: the perturbed octagon has no Simson point,
    # and a search miss must not turn a bad triple into a failed report.
    path = octagon_scene(tmp_path)
    out = tmp_path / "report.json"
    argv = ["verify", "--in", str(path), "--checks", "lambert", "--triple",
            spec, "--out", str(out)]
    code, _, err = run_cli(capsys, *argv,
                           *(["--negative-control"] if control else []))
    assert code == 2
    assert err.startswith("error: need three distinct sides in 1..8")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_unknown_check_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, _, err = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", "simson,voodoo")
    assert code == 2
    assert "voodoo" in err


def test_verify_lists_its_checks_in_report_order(capsys, tmp_path):
    # --help, the unknown-check error and a report name the checks in one
    # order: the search, the checks of any Simson polygon, then the
    # equidistant ones.
    order = ["simson", "isogonal", "lambert", "parallel-chords", "optical",
             "archimedes"]
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0
    assert re.search(r"comma list from \{(.*)\} or all", out)[1] == \
        ", ".join(order)
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", "bogus")
    assert (code, out) == (2, "")
    assert err == (f"error: unknown check 'bogus'; choose from "
                   f"{', '.join(order)} or all\n")
    code, out, _ = run_cli(capsys, "verify", "--in", str(path),
                           "--checks", ",".join(reversed(order)))
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["simson", "isogonal", "lambert", "parallel-chords",
                     "chord-tangent", "midpoints-aligned", "optical",
                     "archimedes-family"]


@pytest.mark.parametrize("checks", ["all,bogus", "bogus,all"])
def test_verify_unknown_check_next_to_all_exits_2(capsys, tmp_path, checks):
    # "all" does not excuse an unknown name beside it.
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", checks)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown check 'bogus'")
    assert err.count("\n") == 1


def test_verify_checks_naming_no_check_exits_2(capsys, tmp_path):
    path = octagon_scene(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--in", str(path),
                             "--checks", ",")
    assert (code, out) == (2, "")
    assert err == "error: --checks must name at least one check\n"


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


def test_verify_feet_out_of_order_fail_equidistant_spacing(capsys, tmp_path):
    path = tmp_path / "scene.json"
    assert main(["construct", "--feet", "0,0;2,0;1,0;3,0", "--simson-point",
                 "0,1", "--simson-line", "y=0", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 4
    spacing = json.loads(out)["checks"][-1]
    assert (spacing["name"], spacing["pass"]) == ("equidistant-spacing", False)
    assert spacing["note"] == "feet do not march monotonically along the line"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="kernel.join_points computes c = p.x*q.y - q.x*p.y, "
                          "which overflows near 1e153 (ROADMAP item 12(b))")
def test_verify_recognises_a_polygon_built_near_1e153(capsys, tmp_path):
    path = tmp_path / "scene.json"
    assert main(["construct", "--equidistant", "--s=1e152", "--x0=1e153",
                 "--delta=1e153", "--n", "8", "--out", str(path)]) == 0
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="lambert (1, 2, 3) reads 6.71e-8 against a limit "
                          "of 1.10e-8, below the forward error of its "
                          "circle (ROADMAP item 18)")
def test_verify_recognises_a_canonical_polygon_of_close_sides(capsys,
                                                              tmp_path):
    path = tmp_path / "scene.json"
    assert main(["construct", "--equidistant", "--s", "10", "--x0", "3",
                 "--delta", "0.01", "--n", "8", "--out", str(path)]) == 0
    code, _, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, err) == (0, "")


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
    (["--s", "1e-300", "--a", "0", "--b", "1", "--n", "3",
      "--perturb-knot", "1,x"], "error: bad --perturb-knot value '1,x'"),
    (["--s", "1", "--a", "0", "--b", "1", "--n", "0",
      "--perturb-knot", "1,1"], "--n 0 has none"),
    (["--s", "1", "--a", "0", "--b", "1", "--n", "-1",
      "--perturb-knot", "1,1"], "--n -1 has none"),
])
def test_approx_perturb_knot_is_checked_before_computing(capsys, argv,
                                                          message):
    code, out, err = run_cli(capsys, "approx", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


# A zero nudge moves no knot, so it cannot test the optimum: a usage
# error, also where computing the knots would exit 3.
@pytest.mark.parametrize("argv", [
    ["--s", "1", "--a", "0", "--b", "4", "--n", "4", "--perturb-knot", "2,0"],
    ["--s", "1", "--a", "0", "--b", "4", "--n", "4", "--perturb-knot",
     "2,-0.0"],
    ["--s", "1e-300", "--a", "0", "--b", "1", "--n", "3", "--perturb-knot",
     "1,0e9"],
])
def test_approx_zero_perturb_knot_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "approx", *argv)
    assert (code, out) == (2, "")
    assert err == "error: --perturb-knot EPS must be nonzero\n"


# A nudge that rounding absorbs, or that reaches or passes a neighbouring
# knot, cannot test the optimum either: the knots of --n 3 on [0, 1] are
# 0, 1/3, 2/3 and 1.
@pytest.mark.parametrize("spec, message", [
    ("1,1e-300", "knot 1 off 0.3333333333333333 to strictly between 0.0 "
     "and 0.6666666666666666, not to 0.3333333333333333"),
    ("1,1e-17", "knot 1 off 0.3333333333333333 to strictly between 0.0 "
     "and 0.6666666666666666, not to 0.3333333333333333"),
    ("1,-0.34", "knot 1 off 0.3333333333333333 to strictly between 0.0 "
     "and 0.6666666666666666, not to -0.00666666666666671"),
    ("1,0.3333333333333333", "knot 1 off 0.3333333333333333 to strictly "
     "between 0.0 and 0.6666666666666666, not to 0.6666666666666666"),
    ("2,0.5", "knot 2 off 0.6666666666666666 to strictly between "
     "0.3333333333333333 and 1.0, not to 1.1666666666666665"),
])
def test_approx_perturb_knot_that_tests_nothing_exits_2(capsys, tmp_path,
                                                         spec, message):
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                             "--b", "1", "--n", "3", "--perturb-knot", spec,
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: --perturb-knot must move {message}\n"
    assert not out_path.exists()


def test_approx_perturb_knot_checks_follow_the_knots(capsys):
    # Knots that cannot be built exit 3 before the nudge is judged.
    code, _, err = run_cli(capsys, "approx", "--s", "1", "--a", "1",
                           "--b", "1.0000000000000002", "--n", "3",
                           "--perturb-knot", "1,1e-300")
    assert (code, err) == (3, "error: knots not strictly increasing at "
                              "1.0, 1.0\n")
    code, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                           "--b", "1", "--n", "3", "--perturb-knot", "2,1e-3")
    assert code == 0
    assert json.loads(out)["perturb_knot"]["objective_delta"] > 0.0


# On [1000, 1001] a nudge of 1e-9 changes the sum of cubed widths by about
# 2e-18, below one ulp of the sum; the change of the two widths it moves
# still shows it.  2e-13 is two ulps of the knot, near the grid's own
# rounding of its widths.
@pytest.mark.parametrize("spec", ["1,1e-9", "1,-1e-9", "2,1e-10", "1,2e-13"])
def test_approx_perturb_knot_below_the_sums_rounding_exits_0(capsys, spec):
    code, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "1000",
                           "--b", "1001", "--n", "3", "--perturb-knot", spec)
    assert code == 0
    nudge = json.loads(out)["perturb_knot"]
    assert list(nudge) == ["index", "eps", "objective_delta"]
    assert 0.0 < nudge["objective_delta"] < 1e-17


def _off_optimum(monkeypatch):
    """Make approx build the knots 0, 1.1, 2, 3, 4 for [0, 4] with n = 4:
    knot 1 sits 0.1 right of the optimum, far beyond width_spread."""
    from simsonpoly import approx

    optimal = approx.optimal_knots

    def knots(p):
        res = optimal(p)
        xs = (0.0, 1.1, *res.knots[2:])
        return approx.ApproxResult(xs, tuple((x, p.f(x)) for x in xs),
                                   res.l1_error, res.l2_error)

    monkeypatch.setattr(approx, "optimal_knots", knots)
    assert approx.width_spread(approx.ApproxProblem(1.0, 0.0, 0.0, 4.0, 4)) \
        < 1e-12


@pytest.mark.parametrize("eps, code, sign", [
    ("-0.01", 4, -1.0),   # toward the optimum: the sum falls
    ("0.01", 0, 1.0),     # away from it: the sum rises
    ("-0.3", 0, 1.0),     # past the optimum, to 0.2 below it: it rises
])
def test_approx_perturb_knot_off_the_optimum(capsys, monkeypatch, eps, code,
                                             sign):
    _off_optimum(monkeypatch)
    got, out, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0", "--b",
                          "4", "--n", "4", "--perturb-knot", f"1,{eps}")
    assert got == code
    doc = json.loads(out)
    assert doc["knots"][1] == 1.1
    # 3e(h1 + h2)(h1 - h2 + e) with h1 = 1.1, h2 = 0.9.
    delta = doc["perturb_knot"]["objective_delta"]
    assert delta == pytest.approx(3 * float(eps) * 2.0 * (0.2 + float(eps)))
    assert math.copysign(1.0, delta) == sign


def test_approx_empty_interval_exits_2(capsys):
    code, _, err = run_cli(capsys, "approx", "--s", "1", "--a", "2",
                           "--b", "2", "--n", "1")
    assert code == 2
    assert "a < b" in err


def test_approx_zero_segments_exits_2(capsys):
    code, _, _ = run_cli(capsys, "approx", "--s", "1", "--a", "0",
                         "--b", "1", "--n", "0")
    assert code == 2


@pytest.mark.parametrize("n, code", [(MAX_SEGMENTS, 0),
                                     (MAX_SEGMENTS + 1, 2)])
def test_approx_segments_are_capped(capsys, n, code):
    # Refused before any knot is built: a huge --n would exhaust memory.
    got = run_cli(capsys, "approx", "--s", "1", "--a", "0", "--b", "1",
                  "--n", str(n), "--quiet")
    assert got == (code, "", f"error: n must be at most {MAX_SEGMENTS}, "
                   f"got {n}\n" if code else "")


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
    ["--s=1", "--a=-1", "--b=1", "--n=2", "--delta=1e200"],
    # The closed forms are finite, but the squared error at the nodes is not.
    ["--s=1e-160", "--a=0", "--b=0.01", "--n=1", "--delta=0",
     "--compare-quadrature"],
], ids=["s2-underflows", "h5-overflows", "l2-overflows", "width-overflows",
        "figure-scale-overflows", "delta2-overflows", "quadrature-overflows"])
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


def test_limit_order_below_1_9_exits_4(capsys, monkeypatch):
    # The last row's distance is raised so that its observed order is 1.
    from simsonpoly import limits

    table = limits.convergence_table

    def slow(s, window, m_max):
        rows = table(s, window, m_max)
        last = rows[-1]
        return rows[:-1] + [limits.ConvergenceRow(
            last.delta, 2.0 * last.hausdorff, last.bound,
            last.chain_to_parabola)]

    monkeypatch.setattr(limits, "convergence_table", slow)
    code, out, _ = run_cli(capsys, "limit", "--s", "1", "--m-max", "2")
    assert code == 4
    payload = json.loads(out)
    assert payload["order_ok"] is False
    assert payload["observed_orders"][-1] == pytest.approx(1.0)


def test_limit_negative_m_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "limit", "--s", "1", "--m-max", "-1")
    assert (code, out) == (2, "")
    assert err == "error: m_max must be >= 0, got -1\n"


def test_limit_nontiling_window_exits_3(capsys):
    code, _, _ = run_cli(capsys, "limit", "--s", "1", "--window", "0.3",
                         "--m-max", "0")
    assert code == 3


@pytest.mark.parametrize("s", ["0", "-0.0"])
def test_limit_zero_s_exits_3(capsys, s):
    code, out, err = run_cli(capsys, "limit", "--s", s)
    assert code == 3
    assert out == ""
    assert err == f"error: s must be nonzero and finite, got {float(s)}\n"


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
    every float round-trips and key order is kept.
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


def test_verify_writes_a_non_finite_residual_as_null(capsys, tmp_path):
    # Strict JSON has no Infinity: node's parser rejects it.
    path = tmp_path / "uneven.json"
    assert main(["construct", "--feet", "0,0;1,0;3,0;4.5,0;7,0",
                 "--simson-point", "0.5,2", "--simson-line", "y=0",
                 "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 4
    checks = strict_json(out)["checks"]
    assert checks[-1] == {"name": "equidistant-spacing", "indices": [],
                          "residual": None, "pass": False, "count": 1,
                          "note": "feet are not equally spaced"}


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


# Each subcommand with each file flag it takes.
EMPTY_PATHS = [
    [*OCT_ARGS, "--out="],
    [*OCT_ARGS, "--quiet", "--svg", ""],
    ["verify", "--in", "{octagon}", "--out="],
    ["approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4", "--out", ""],
    ["approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4", "--quiet",
     "--svg="],
    ["limit", "--s", "1", "--out="],
]


@pytest.mark.parametrize("argv", EMPTY_PATHS, ids=lambda a: " ".join(
    [a[0], *(f for f in a if f.startswith(("--out", "--svg")))]))
def test_empty_path_cannot_be_written(capsys, tmp_path, argv):
    # An empty --out or --svg names no file: it cannot be written, as
    # verify --in "" cannot be read.
    argv = [a.format(octagon=octagon_scene(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: cannot write : No such file or directory\n"


# ----------------------------------------------------------------- plumbing

def test_every_error_class_has_one_exit_code():
    # main gives a UsageError exit 2 and a GeometryError exit 3.  A class
    # of both would take the code of whichever clause comes first, and a
    # class of neither would escape main as a traceback.
    errors = []
    for info in pkgutil.iter_modules(simsonpoly.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"simsonpoly.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
    assert UsageError in errors and GeometryError in errors
    both_or_neither = [cls.__qualname__ for cls in errors
                       if issubclass(cls, UsageError)
                       == issubclass(cls, GeometryError)]
    assert both_or_neither == []


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


COMMAND_CHOICES = "(choose from 'construct', 'verify', 'approx', 'limit')"


# Each usage error is one line on stderr, with no traceback and no output.
@pytest.mark.parametrize("argv, message", [
    (["limit", "--s", "1", "--frobnicate"],
     "unrecognized arguments: --frobnicate"),
    (["limit", "--s", "1", "extra"], "unrecognized arguments: extra"),
    # Flags are spelled in full: --neg is not --negative-control.
    (["verify", "--neg"], "unrecognized arguments: --neg"),
    ([], "the following arguments are required: command " + COMMAND_CHOICES),
    (["bogus"],
     "argument command: invalid choice: 'bogus' " + COMMAND_CHOICES),
    (["approx", "--s", "1", "--a", "0", "--n", "2"],
     "the following arguments are required: --b"),
    (["limit", "--s", "x"], "argument --s: invalid float value: 'x'"),
    (["limit", "--s", "1", "--m-max", "1.5"],
     "argument --m-max: invalid int value: '1.5'"),
    (["limit", "--s", "1", "--out"], "argument --out: expected one argument"),
    (["limit", "--s", "1", "--out", "--quiet"],
     "argument --out: expected one argument"),
    ([*EQUI_5, "--equidistant=1"],
     "argument --equidistant: ignored explicit argument '1'"),
], ids=["unknown-flag", "stray-value", "abbreviation", "no-command",
        "unknown-command", "missing-required", "bad-float", "bad-int",
        "value-missing-at-end", "value-missing-before-flag",
        "switch-with-value"])
def test_unknown_flag_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


FEET_ARGS = ["construct", "--feet", "0,0;1,0;2.5,0;4,0",
             "--simson-point", "0.5,1", "--simson-line", "y=0"]
VERIFY_ARGS = ["verify", "--in", "{octagon}"]
LIMIT_ARGS = ["limit", "--s", "1", "--m-max", "1"]
# For each valued flag, a well-formed request and another value of the
# flag that the request still accepts; {octagon} is a scene file and
# {written} a directory for --out and --svg.
VALUED_FLAGS = {
    ("construct", "--out"): (OCT_ARGS, "{written}/out.json"),
    ("construct", "--svg"): (OCT_ARGS, "{written}/fig.svg"),
    ("construct", "--s"): (OCT_ARGS, "2"),
    ("construct", "--delta"): (OCT_ARGS, "0.5"),
    ("construct", "--n"): (OCT_ARGS, "6"),
    ("construct", "--x0"): (OCT_ARGS, "-3"),
    ("construct", "--feet"): (FEET_ARGS, "-1,0;0,0;1,0"),
    ("construct", "--simson-point"): (FEET_ARGS, "-0.5,2"),
    ("construct", "--simson-line"): (FEET_ARGS, "-2y=0"),
    ("verify", "--out"): (VERIFY_ARGS, "{written}/out.json"),
    ("verify", "--in"): (VERIFY_ARGS, "-"),
    ("verify", "--checks"): (VERIFY_ARGS, "simson,lambert"),
    ("verify", "--triple"): (VERIFY_ARGS, "2,4,6"),
    ("verify", "--perturb"): ([*VERIFY_ARGS, "--negative-control"], "1e-2"),
    ("verify", "--seed"): ([*VERIFY_ARGS, "--negative-control"], "7"),
    ("approx", "--out"): (APPROX, "{written}/out.json"),
    ("approx", "--svg"): (APPROX, "{written}/fig.svg"),
    ("approx", "--s"): (APPROX, "-2"),
    ("approx", "--a"): (APPROX, "-1"),
    ("approx", "--b"): (APPROX, "3"),
    ("approx", "--n"): (APPROX, "5"),
    ("approx", "--delta"): (APPROX, "0.5"),
    ("approx", "--perturb-knot"): (APPROX, "1,-1e-3"),
    ("limit", "--out"): (LIMIT_ARGS, "{written}/out.json"),
    ("limit", "--s"): (LIMIT_ARGS, "-2"),
    ("limit", "--window"): (LIMIT_ARGS, "2"),
    ("limit", "--m-max"): (LIMIT_ARGS, "2"),
}


@pytest.mark.parametrize("command, flag, kind", [
    pytest.param(command, f.name, f.type, id=command + f.name)
    for command, (_, _, flags) in COMMANDS.items()
    for f in flags if f.type is not None])
def test_valued_flag_spellings_agree(capsys, tmp_path, monkeypatch,
                                     command, flag, kind):
    # --flag VALUE, --flag=VALUE and a repeated flag whose last value is
    # VALUE make one request.  The first of the repeated values is of the
    # flag's type but refused by the command, so it cannot win unseen.
    octagon = octagon_scene(tmp_path)
    written = tmp_path / "written"
    written.mkdir()
    request, value = VALUED_FLAGS[command, flag]
    request = [a.format(octagon=octagon) for a in request]
    value = value.format(written=written)
    refused = {float: "nan", int: "-1", str: str(tmp_path / "none" / "x")}
    results = []
    for spelling in ([flag, value], [f"{flag}={value}"],
                     [flag, refused[kind], flag, value]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(octagon.read_text()))
        results.append((*run_cli(capsys, *request, *spelling),
                         {p.name: p.read_bytes() for p in written.iterdir()}))
        for path in written.iterdir():
            path.unlink()
    assert results[0][0] in (0, 4), results[0][2]
    assert results[1] == results[0] and results[2] == results[0]


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
    ("limit", "--in"), ("verify", "--s"), ("approx", "--x0"),
    ("construct", "--window"), ("limit", "--n"),
])
def test_flag_of_another_subcommand_exits_2(capsys, tmp_path, command, flag):
    octagon = octagon_scene(tmp_path)
    svg = tmp_path / "fig.svg"
    value = {"--in": str(octagon), "--svg": str(svg), "--tolerance": "1e-6",
             "--s": "1", "--x0": "-3", "--window": "4", "--n": "2"}
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
# REL_EPS.  The verify case is a negative control that a
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


def test_top_level_help_lists_the_commands(capsys):
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "")
    assert re.findall(r"^  (\w+) ", out, re.M) == list(COMMANDS)


def test_readme_flag_table_is_the_cli_table():
    # README, --help and the parser cannot drift apart: the README's table
    # lists each subcommand's flags in the order of the CLI's table.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Each subcommand takes only the flags it reads:")[1]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| `([^`]*)` \|$",
                      table.split("\n\n")[1], re.M)
    assert {command: f"{io_flags} {own}".split()
            for command, io_flags, own in rows} == \
        {command: [f.name for f in flags]
         for command, (_, _, flags) in COMMANDS.items()}


def test_readme_tolerance_table_names_the_judged_families(capsys,
                                                          tmp_path):
    # README's limit table cannot drift from the report: each row's rule,
    # evaluated at the report's tolerances, is the limit of every family
    # it lists, and the rows list exactly the families judged.  The
    # octagon at 1/100 size has a scale below 1, so its length and angle
    # rules give different limits.
    path = tmp_path / "small-octagon.json"
    assert main(["construct", "--equidistant", "--s", "0.01", "--delta",
                 "0.01", "--n", "8", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    tolerances = report["tolerances"]
    assert set(tolerances) == {"rel_eps", "scale"}
    assert tolerances["scale"] < 1.0
    v = make_equidistant(EquidistantConfig(s=0.01, x0=0.0, delta=0.01,
                                           n=8)).vertices
    sides = [line_through(v[t - 1], v[t]) for t in (1, 2, 3)]
    radius = circumcircle(*(line_intersection(sides[a], sides[b])
                            for a, b in ((0, 1), (0, 2), (1, 2)))).radius
    eps, scale = tolerances["rel_eps"], tolerances["scale"]
    rules = {"rel_eps * scale": eps * scale,
             "rel_eps * max(1, scale)": eps * max(1.0, scale),
             "rel_eps * max(radius, scale)": eps * max(radius, scale)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(rel_eps \* [^`]*)` \| ([^|]*) \|$", readme,
                      re.M)
    assert [rule for rule, _ in rows] == list(rules)
    documented = {name: rules[rule] for rule, text in rows
                  for name in re.findall(r"`([\w-]+)`", text)}
    judged = {c["name"]: c["limit"] for c in report["checks"]
              if "limit" in c}
    assert judged == documented


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "simsonpoly", *OCT_ARGS],
                          capture_output=True, text=True, env=src_env())
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
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "simsonpoly", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=src_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv, target", [
    (["limit", "--s", "1", "--m-max", "2"], "stdout"),
    (["limit", "--s", "1", "--m-max", "2", "--out", "/dev/full"],
     "/dev/full"),
    ([*OCT_ARGS, "--quiet", "--svg", "/dev/full"], "/dev/full"),
])
def test_failed_write_exits_2_with_one_line(argv, target):
    # Writing to /dev/full fails with ENOSPC after a successful open; on
    # stdout, on --out and on --svg the failure is one usage error line.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "simsonpoly", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=src_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: cannot write {target}: "
                           f"{os.strerror(errno.ENOSPC)}\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["-h"], ["limit", "--help"],
                                  ["verify", "-h"]])
def test_help_into_closed_stdout_exits_0(argv):
    # Help that cannot be written is dropped, as argparse dropped it: exit
    # 0 and nothing on stderr, also with a block-buffered stdout.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "simsonpoly", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=src_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# ------------------------------------------------------------- process exit
# A CLI process ends with os._exit once its output is flushed and the
# atexit callbacks have run; in process, main() returns its code.

LIMIT = ["limit", "--s", "1", "--m-max", "2"]

# A script that runs the package as ``python -m simsonpoly`` would, with
# an object whose finalizer prints at interpreter teardown.
EXIT_PROBE = """
import atexit, runpy, sys
class Noisy:
    def __del__(self):
        print("teardown", flush=True)
noisy = Noisy()
atexit.register(print, "atexit hook")
{setup}
sys.argv = ["simsonpoly", *{argv!r}]
runpy.run_module("simsonpoly", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("setup, teardown", [
    ("", False),
    # A tracer (coverage, ``python -m trace``) or a profiler takes the
    # ordinary exit.  Neither is defined in the script: a function of its
    # own would keep its globals, and so ``noisy``, alive at teardown.
    ("import functools, io; "
     "sys.settrace(functools.partial(print, file=io.StringIO()))", True),
    ("sys.setprofile(slice)", True),
], ids=["plain", "traced", "profiled"])
@pytest.mark.parametrize("argv, code", [
    ([*LIMIT, "--quiet"], 0),
    (["limit", "--s", "0", "--m-max", "2"], 3),
    (["limit", "--s", "1", "--window", "x"], 2),
], ids=["ok", "degenerate", "usage"])
def test_process_skips_teardown_unless_traced(argv, code, setup, teardown):
    script = EXIT_PROBE.format(setup=setup, argv=argv)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    expected = "atexit hook\n" + ("teardown\n" if teardown else "")
    assert proc.stdout == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{scene}"],
    [*OCT_ARGS[:-1], "256"],
    ["approx", "--s", "1", "--a", "0", "--b", "4", "--n", "16",
     "--compare-quadrature", "--perturb-knot", "2,1e-3"],
    LIMIT,
], ids=["verify", "construct", "approx", "limit"])
def test_piped_stdout_equals_out_file(tmp_path, argv):
    # Everything written reaches the pipe before the process ends.
    scene = tmp_path / "scene.json"
    assert main([*OCT_ARGS[:-1], "256", "--out", str(scene)]) == 0
    argv = [a.format(scene=scene) for a in argv]
    out = tmp_path / "out.json"
    cmd = [sys.executable, "-m", "simsonpoly", *argv]
    piped = subprocess.run(cmd, capture_output=True, env=src_env(),
                           timeout=120)
    filed = subprocess.run([*cmd, "--out", str(out)], capture_output=True,
                           env=src_env(), timeout=120)
    assert piped.returncode == filed.returncode == 0, piped.stderr
    assert filed.stdout == b""
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize("used, observed", [
    ((), False),
    ((0,), True),
    ((5,), True),
], ids=["none", "debugger-id", "last-id"])
def test_observed_reads_sys_monitoring(monkeypatch, used, observed):
    # From Python 3.12 on a tracer may register there, with neither
    # settrace nor setprofile.
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monitoring = SimpleNamespace(
        get_tool=lambda tool: "tool" if tool in used else None)
    monkeypatch.setattr(sys, "monitoring", monitoring, raising=False)
    assert _observed() is observed


def test_profiler_still_prints_its_table():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "simsonpoly", *LIMIT,
         "--quiet"],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "function calls" in proc.stdout
    assert "Ordered by" in proc.stdout


def test_main_returns_in_process(capsys, monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) in process")

    monkeypatch.setattr(os, "_exit", refuse)
    assert main([*LIMIT, "--quiet"]) == 0
    assert main(["limit", "--s", "0", "--m-max", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    (LIMIT, 0),
    (["limit", "--s", "0", "--m-max", "2"], 3),
    (["bogus"], 2),
    (["verify", "--help"], 0),
    (["-h"], 0),
    (["--help"], 0),
    (["construct", "-h"], 0),
    (["approx", "--help"], 0),
    (["limit", "-h"], 0),
    (["construct", "--feet", "-1,0;0,0;1,0", "--simson-point", "0,1",
      "--simson-line", "y=0"], 0),
    ([*LIMIT, "--out"], 2),
], ids=["ok", "degenerate", "usage", "help", "top-help", "top-help-long",
        "construct-help", "approx-help", "limit-help", "dash-value",
        "missing-value"])
def test_console_script_entry_point(capsys, argv, code):
    # Run the [project.scripts] function as an installed console script
    # runs it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["simsonpoly"]
    module, func = entry.split(":")
    wrapper = EXIT_PROBE.split("{setup}")[0] + (
        f"from {module} import {func}\nsys.exit({func}())\n")
    proc = subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True, env=src_env(),
                          timeout=120)
    assert (main(argv), proc.returncode) == (code, code)
    out, err = capsys.readouterr()
    assert proc.stdout == out + "atexit hook\n"
    assert proc.stderr == err
