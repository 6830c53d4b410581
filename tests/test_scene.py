import json
import math

import pytest

from geomgen import xy
from simsonpoly.equidistant import Parabola
from simsonpoly.kernel import Circle, Line, Point, Tolerance, lines_equal
from simsonpoly.scene import (
    SceneDocument,
    SceneFormatError,
    line_from_entity,
    parse_feet_spec,
    parse_line_spec,
    parse_point_spec,
    point_from_entity,
    polygon_from_entity,
)
from simsonpoly.simson import Polygon


# -------------------------------------------------------------------- parsing

@pytest.mark.parametrize("spec,want", [
    ("y=0", Line(0, 1, 0)),
    ("x=1", Line(1, 0, -1)),
    ("y=3x-9", Line(-3, 1, 9)),
    ("y = 3*x - 9", Line(-3, 1, 9)),
    ("2x-y+0.5=0", Line(2, -1, 0.5)),
    ("-x+y=0", Line(-1, 1, 0)),
    ("x+y=2", Line(1, 1, -2)),
    ("1.5e-1x = y", Line(0.15, -1, 0)),
    ("Y=2X", Line(-2, 1, 0)),
])
def test_parse_line_forms(spec, want):
    assert lines_equal(parse_line_spec(spec), want, tol=Tolerance(1e-12, 1e-12))


@pytest.mark.parametrize("spec", [
    "y", "y=0=0", "0=0", "3=5", "y=zebra", "", "y==1", "x+=1",
    "y=1e400x", "x=1e400",
])
def test_parse_line_rejects_garbage(spec):
    with pytest.raises(SceneFormatError):
        parse_line_spec(spec)


def test_parse_point():
    assert xy(parse_point_spec("1.5,-2")) == pytest.approx((1.5, -2.0))
    assert xy(parse_point_spec("1e-3, 2e3")) == pytest.approx((0.001, 2000.0))


@pytest.mark.parametrize("spec", ["1", "1,2,3", "a,b", "1;2", ""])
def test_parse_point_rejects_garbage(spec):
    with pytest.raises(SceneFormatError):
        parse_point_spec(spec)


def test_parse_feet():
    feet = parse_feet_spec("0,0; 1,0 ;2.5,0")
    assert [xy(p) for p in feet] == pytest.approx([(0, 0), (1, 0), (2.5, 0)])
    # trailing separator tolerated
    assert len(parse_feet_spec("0,0;1,0;")) == 2


def test_parse_feet_rejects_garbage():
    with pytest.raises(SceneFormatError):
        parse_feet_spec("")
    with pytest.raises(SceneFormatError):
        parse_feet_spec("0,0;bad")


# ------------------------------------------------------------------- document

def _sample_scene() -> SceneDocument:
    scene = SceneDocument()
    scene.add_line("L", Line(0, 1, 0), stroke="#333333")
    scene.add_parabola("C", Parabola(1.0, 1.0), dash="4 3")
    scene.add_polygon("poly", Polygon((Point(1, 0), Point(3, 2), Point(3, 0))))
    scene.add_circle("k", Circle(Point(0, 6), 5.0))
    scene.add_point("S", Point(0, 1), fill="#b03030")
    scene.add_annotation("note", Point(0.1, 1.1), "S")
    return scene


def test_document_round_trip_is_bit_identical():
    scene = _sample_scene()
    text = scene.to_json()
    again = SceneDocument.from_json(text)
    assert again.to_json() == text


def test_round_trip_preserves_awkward_floats():
    scene = SceneDocument()
    scene.add_point("p", Point(0.1 + 0.2, 1.0 / 3.0))
    back = SceneDocument.from_json(scene.to_json()).find("p")
    assert back["x"] == 0.1 + 0.2
    assert back["y"] == 1.0 / 3.0


def test_duplicate_ids_rejected():
    scene = SceneDocument()
    scene.add_point("p", Point(0, 0))
    with pytest.raises(SceneFormatError):
        scene.add_point("p", Point(1, 1))


def test_unknown_type_rejected():
    with pytest.raises(SceneFormatError):
        SceneDocument([{"type": "spline", "id": "z"}])


def test_missing_id_rejected():
    with pytest.raises(SceneFormatError):
        SceneDocument([{"type": "point", "x": 0, "y": 0}])


def test_find_and_of_type():
    scene = _sample_scene()
    assert scene.find("S")["type"] == "point"
    with pytest.raises(KeyError):
        scene.find("missing")
    assert [e["id"] for e in scene.of_type("point")] == ["S"]


def test_line_eq_string_normalized_on_load():
    text = json.dumps({"schema_version": "1", "entities": [
        {"type": "line", "id": "L", "eq": "y=2x-1"}]})
    e = SceneDocument.from_json(text).find("L")
    assert "eq" not in e
    assert lines_equal(line_from_entity(e), Line(-2, 1, 1), tol=Tolerance(1e-12, 1e-12))


def test_first_polygon():
    scene = _sample_scene()
    poly = scene.first_polygon()
    assert xy(poly.vertices[1]) == pytest.approx((3.0, 2.0))
    with pytest.raises(SceneFormatError):
        SceneDocument().first_polygon()


def test_entity_accessors():
    scene = _sample_scene()
    assert xy(point_from_entity(scene.find("S"))) == pytest.approx((0.0, 1.0))
    poly = polygon_from_entity(scene.find("poly"))
    assert len(poly.vertices) == 3


# ------------------------------------------------------------------ bad input

@pytest.mark.parametrize("doc", [
    "not json",
    "[1, 2]",
    '{"entities": []}',
    '{"schema_version": "99", "entities": []}',
    '{"schema_version": "1", "entities": {}}',
    '{"schema_version": "1", "entities": [42]}',
])
def test_malformed_documents(doc):
    with pytest.raises(SceneFormatError):
        SceneDocument.from_json(doc)


def _load_one(entity: dict) -> SceneDocument:
    return SceneDocument.from_json(json.dumps(
        {"schema_version": "1", "entities": [entity]}))


@pytest.mark.parametrize("entity", [
    {"type": "point", "id": "p", "x": "0", "y": 0},
    {"type": "point", "id": "p", "x": True, "y": 0},
    {"type": "line", "id": "l", "a": 0, "b": 0, "c": 1},
    {"type": "line", "id": "l", "a": 1, "b": 0},
    {"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": 0},
    {"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": -2},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [1, 0]]},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [1, 0], [1]]},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [1, 0], [1, "b"]]},
    {"type": "parabola", "id": "c", "s": 0, "c": 0},
    {"type": "annotation", "id": "t", "x": 0, "y": 0},
    {"type": "point", "id": "p", "x": math.nan, "y": 0},
    {"type": "point", "id": "p", "x": 0, "y": -math.inf},
    {"type": "line", "id": "l", "a": 1, "b": 0, "c": math.inf},
    {"type": "line", "id": "l", "eq": "y=1e400x"},
    {"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": math.nan},
    {"type": "circle", "id": "k", "cx": math.inf, "cy": 0, "r": 1},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [1, 0], [math.nan, 1]]},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [math.inf, 0], [1, 1]]},
    {"type": "polygon", "id": "g", "vertices": [[0, 0], [1, 0], [10**400, 1]]},
    {"type": "parabola", "id": "c", "s": 1, "c": math.nan},
    {"type": "annotation", "id": "t", "x": math.inf, "y": 0, "text": "x"},
])
def test_malformed_entities(entity):
    with pytest.raises(SceneFormatError):
        _load_one(entity)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_nonfinite_json_numbers_rejected(number):
    text = ('{"schema_version": "1", "entities": [{"type": "polygon", '
            f'"id": "g", "vertices": [[0, 0], [1, 0], [{number}, 1]]}}]}}')
    with pytest.raises(SceneFormatError):
        SceneDocument.from_json(text)


def test_integer_coordinates_accepted():
    e = _load_one({"type": "point", "id": "p", "x": 3, "y": -2}).find("p")
    assert xy(point_from_entity(e)) == pytest.approx((3.0, -2.0))
