import json
import math

import pytest

from geomgen import lines_equal_tight, xy
from simsonpoly.equidistant import Parabola
from simsonpoly.kernel import Circle, Line, Point
from simsonpoly.scene import (
    SceneDocument,
    SceneFormatError,
    parse_feet_spec,
    parse_line_spec,
    parse_point_spec,
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
    assert lines_equal_tight(parse_line_spec(spec), want)


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

# The schema's circle and annotation entities, which no command writes:
# a scene holds them only as read from a document.
CIRCLE = {"type": "circle", "id": "k", "cx": 0.0, "cy": 6.0, "r": 5.0}
NOTE = {"type": "annotation", "id": "note", "x": 0.1, "y": 1.1, "text": "S"}


def _read(scene: SceneDocument, *entities: dict) -> SceneDocument:
    """scene, with entities appended, written out and read back."""
    doc = json.loads(scene.to_json())
    doc["entities"] += entities
    return SceneDocument.from_json(json.dumps(doc))


def _entity(scene: SceneDocument, eid: str) -> dict:
    return next(e for e in scene.entities if e["id"] == eid)


def _sample_scene() -> SceneDocument:
    scene = SceneDocument()
    scene.add_line("L", Line(0, 1, 0), stroke="#333333")
    scene.add_parabola("C", Parabola(1.0, 1.0), dash="4 3")
    scene.add_polygon("poly", Polygon((Point(1, 0), Point(3, 2), Point(3, 0))))
    scene.add_point("S", Point(0, 1), fill="#b03030")
    return _read(scene, CIRCLE, NOTE)


def test_document_round_trip_is_bit_identical():
    scene = _sample_scene()
    text = scene.to_json()
    again = SceneDocument.from_json(text)
    assert again.to_json() == text


def test_figure_draws_no_circle_or_annotation():
    from simsonpoly.svgfig import scene_to_svg

    bare = SceneDocument()
    bare.add_point("S", Point(0, 1))
    full = _read(bare, CIRCLE, NOTE)
    assert [e["type"] for e in full.entities] == ["point", "circle",
                                                  "annotation"]
    assert scene_to_svg(full) == scene_to_svg(bare)


EMPTY_FIGURE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="720" '
    'height="720" viewBox="0 0 720 720">\n'
    '<rect width="720" height="720" fill="#ffffff"/>\n\n</svg>\n')


def test_figure_of_a_scene_without_points_or_polygons():
    # With nothing to bound it the window is [-1, 1] x [-1, 1], and the
    # line y = 5 misses it, so nothing is drawn.
    from simsonpoly.svgfig import scene_to_svg

    assert scene_to_svg(SceneDocument()) == EMPTY_FIGURE
    scene = SceneDocument()
    scene.add_line("L", Line(0, 1, -5))
    assert scene_to_svg(scene) == EMPTY_FIGURE


def test_round_trip_preserves_awkward_floats():
    scene = SceneDocument()
    scene.add_point("p", Point(0.1 + 0.2, 1.0 / 3.0))
    back = _entity(SceneDocument.from_json(scene.to_json()), "p")
    assert back["x"] == 0.1 + 0.2
    assert back["y"] == 1.0 / 3.0


def test_document_writes_only_strict_json():
    # Infinity is not JSON, and the reader refuses it (ROADMAP item 20).
    scene = SceneDocument([{"type": "polygon", "id": "polygon",
                            "vertices": [[0.0, 0.0], [math.inf, 1.0]]}])
    with pytest.raises(ValueError, match="not JSON compliant"):
        scene.to_json()


def test_duplicate_ids_rejected():
    scene = SceneDocument()
    scene.add_point("p", Point(0, 0))
    with pytest.raises(SceneFormatError, match="^duplicate entity id 'p'$"):
        scene.add_point("p", Point(1, 1))
    text = json.dumps({"schema_version": "1", "entities": [
        {"type": "point", "id": "q", "x": 0, "y": 0},
        {"type": "point", "id": "q", "x": 1, "y": 1}]})
    with pytest.raises(SceneFormatError, match="^duplicate entity id 'q'$"):
        SceneDocument.from_json(text)


class _CountedId(str):
    """An entity id that counts the equality tests made on it."""

    comparisons = 0

    def __eq__(self, other):
        _CountedId.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


@pytest.mark.parametrize("n", [500, 2000])
def test_scene_build_compares_ids_linearly(monkeypatch, n):
    # Checking each new id against every earlier one made building a
    # scene of n entities quadratic in n (construct --equidistant --n).
    monkeypatch.setattr(_CountedId, "comparisons", 0)
    scene = SceneDocument()
    for i in range(n):
        scene.add_point(_CountedId(f"X{i}"), Point(i, 0))
    copy = SceneDocument(scene.entities)
    assert len(copy.entities) == n
    assert _CountedId.comparisons <= n
    assert copy.entities[7] is scene.entities[7]


def test_unknown_type_rejected():
    with pytest.raises(SceneFormatError):
        SceneDocument([{"type": "spline", "id": "z"}])


def test_missing_id_rejected():
    with pytest.raises(SceneFormatError):
        SceneDocument([{"type": "point", "x": 0, "y": 0}])


def test_find_and_of_type():
    scene = _sample_scene()
    assert _entity(scene, "S")["type"] == "point"
    assert _entity(scene, "k") == CIRCLE
    assert _entity(scene, "note") == NOTE
    assert [e["id"] for e in scene.of_type("point")] == ["S"]


def test_line_eq_string_normalized_on_load():
    text = json.dumps({"schema_version": "1", "entities": [
        {"type": "line", "id": "L", "eq": "y=2x-1"}]})
    e = _entity(SceneDocument.from_json(text), "L")
    assert "eq" not in e
    assert lines_equal_tight(Line(e["a"], e["b"], e["c"]), Line(-2, 1, 1))


def test_first_polygon():
    scene = _sample_scene()
    poly = scene.first_polygon()
    assert xy(poly.vertices[1]) == pytest.approx((3.0, 2.0))
    with pytest.raises(SceneFormatError):
        SceneDocument().first_polygon()


def test_entity_accessors():
    scene = _sample_scene()
    s = _entity(scene, "S")
    assert (s["x"], s["y"]) == pytest.approx((0.0, 1.0))
    poly = polygon_from_entity(_entity(scene, "poly"))
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
    # Normalised by the tiny norm of (a, b), c would be infinite.
    {"type": "line", "id": "l", "a": 1e-320, "b": 0, "c": 1},
])
def test_malformed_entities(entity):
    with pytest.raises(SceneFormatError):
        _load_one(entity)


@pytest.mark.parametrize("entity,build,message", [
    ({"type": "parabola", "id": "c", "s": 0, "c": 0},
     lambda: Parabola(0, 0), "s must be nonzero and finite, got 0"),
    ({"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": 0},
     lambda: Circle(Point(0, 0), 0), "circle radius must be positive, got 0"),
    ({"type": "circle", "id": "k", "cx": 0, "cy": 0, "r": -2},
     lambda: Circle(Point(0, 0), -2),
     "circle radius must be positive, got -2"),
])
def test_parabola_and_circle_entities_give_the_kernel_message(entity, build,
                                                              message):
    # The scene states no rule of its own: the kernel's message, exit 2.
    with pytest.raises(ValueError) as kernel:
        build()
    with pytest.raises(SceneFormatError) as scene:
        _load_one(entity)
    assert str(scene.value) == str(kernel.value) == message


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_nonfinite_json_numbers_rejected(number):
    text = ('{"schema_version": "1", "entities": [{"type": "polygon", '
            f'"id": "g", "vertices": [[0, 0], [1, 0], [{number}, 1]]}}]}}')
    with pytest.raises(SceneFormatError):
        SceneDocument.from_json(text)


def test_integer_coordinates_accepted():
    e = _entity(_load_one({"type": "point", "id": "p", "x": 3, "y": -2}), "p")
    assert (e["x"], e["y"]) == pytest.approx((3.0, -2.0))
