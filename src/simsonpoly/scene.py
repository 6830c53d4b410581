"""Scene documents: the JSON interchange format of the command line tools.

A scene is a flat list of tagged entities (points, lines, circles,
polygons, parabolas, annotations) with unique ids and optional style
hints.  Numbers are plain JSON doubles; Python's shortest-repr float
serialization round-trips every IEEE double bit-exactly, so a scene
written and re-read reproduces identical coordinates.

Line entities may be given either as coefficients {a, b, c} of
a*x + b*y + c = 0 or as an equation string such as "y=2x-1", "x=3" or
"2x-y+0.5=0"; they are normalized to coefficient form on load.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, Optional

from .kernel import Circle, Line, Parabola, Point
from .simson import Polygon

SCHEMA_VERSION = "1"

ENTITY_TYPES = ("point", "line", "circle", "polygon", "parabola", "annotation")


class SceneFormatError(ValueError):
    """Malformed scene document or entity specification."""


_TERM = re.compile(
    r"[+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?[xy]?|[+-]?[xy]", re.IGNORECASE)


def _parse_linear(expr: str, what: str) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of a linear expression in x and y."""
    tokens = _TERM.findall(expr)
    if "".join(tokens) != expr or not tokens:
        raise SceneFormatError(f"cannot parse linear expression in {what!r}")
    a = b = c = 0.0
    for tok in tokens:
        var = tok[-1] if tok[-1] in "xy" else None
        num = tok[:-1] if var else tok
        if num in ("", "+"):
            coeff = 1.0
        elif num == "-":
            coeff = -1.0
        else:
            coeff = float(num)
        if var == "x":
            a += coeff
        elif var == "y":
            b += coeff
        else:
            c += coeff
    return a, b, c


def parse_line_spec(text: str) -> Line:
    """Line from an equation string.

    Accepts "a x + b y + c = 0" style equations with any linear sides,
    which covers the slope form "y = m x + k" and verticals "x = k".
    """
    compact = text.replace(" ", "").replace("*", "").lower()
    if compact.count("=") != 1:
        raise SceneFormatError(f"line spec {text!r} needs exactly one '='")
    lhs, rhs = compact.split("=")
    la, lb, lc = _parse_linear(lhs, text)
    ra, rb, rc = _parse_linear(rhs, text)
    a, b, c = la - ra, lb - rb, lc - rc
    if a == 0.0 and b == 0.0:
        raise SceneFormatError(f"line spec {text!r} has no x or y term")
    try:
        return Line(a, b, c)
    except ValueError as exc:
        raise SceneFormatError(f"line spec {text!r}: {exc}") from None


def parse_point_spec(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise SceneFormatError(f"point spec {text!r} must be 'x,y'")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except ValueError:
        raise SceneFormatError(f"point spec {text!r} must be numeric") from None


def parse_feet_spec(text: str) -> list[Point]:
    items = [s for s in text.split(";") if s.strip()]
    if not items:
        raise SceneFormatError("empty feet list")
    return [parse_point_spec(s) for s in items]


class SceneDocument:
    """Ordered collection of uniquely identified scene entities."""

    def __init__(self, entities: Optional[list[dict]] = None):
        self.entities: list[dict] = []
        for e in entities or []:
            self._insert(e)

    def _insert(self, entity: dict) -> None:
        etype = entity.get("type")
        if etype not in ENTITY_TYPES:
            raise SceneFormatError(f"unknown entity type {etype!r}")
        eid = entity.get("id")
        if not isinstance(eid, str) or not eid:
            raise SceneFormatError(f"entity of type {etype!r} needs a string id")
        if any(e["id"] == eid for e in self.entities):
            raise SceneFormatError(f"duplicate entity id {eid!r}")
        self.entities.append(entity)

    def add_point(self, eid: str, p: Point, **style) -> None:
        e = {"type": "point", "id": eid, "x": p.x, "y": p.y}
        if style:
            e["style"] = style
        self._insert(e)

    def add_line(self, eid: str, l: Line, **style) -> None:
        e = {"type": "line", "id": eid, "a": l.a, "b": l.b, "c": l.c}
        if style:
            e["style"] = style
        self._insert(e)

    def add_circle(self, eid: str, c: Circle, **style) -> None:
        e = {"type": "circle", "id": eid, "cx": c.center.x, "cy": c.center.y,
             "r": c.radius}
        if style:
            e["style"] = style
        self._insert(e)

    def add_polygon(self, eid: str, poly: Polygon, **style) -> None:
        e = {"type": "polygon", "id": eid,
             "vertices": [[v.x, v.y] for v in poly.vertices]}
        if style:
            e["style"] = style
        self._insert(e)

    def add_parabola(self, eid: str, par: Parabola, **style) -> None:
        e = {"type": "parabola", "id": eid, "s": par.s, "c": par.c}
        if style:
            e["style"] = style
        self._insert(e)

    def add_annotation(self, eid: str, p: Point, text: str, **style) -> None:
        e = {"type": "annotation", "id": eid, "x": p.x, "y": p.y, "text": text}
        if style:
            e["style"] = style
        self._insert(e)

    def find(self, eid: str) -> dict:
        for e in self.entities:
            if e["id"] == eid:
                return e
        raise KeyError(eid)

    def of_type(self, etype: str) -> list[dict]:
        return [e for e in self.entities if e["type"] == etype]

    def first_polygon(self) -> Polygon:
        polys = self.of_type("polygon")
        if not polys:
            raise SceneFormatError("scene contains no polygon entity")
        return polygon_from_entity(polys[0])

    def to_json(self) -> str:
        doc = {"schema_version": SCHEMA_VERSION, "entities": self.entities}
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SceneDocument":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # A RecursionError: nesting deeper than the interpreter's
            # recursion limit.
            raise SceneFormatError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise SceneFormatError("scene document must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise SceneFormatError(
                f"unsupported schema_version {doc.get('schema_version')!r}")
        entities = doc.get("entities")
        if not isinstance(entities, list):
            raise SceneFormatError("'entities' must be a list")
        scene = cls()
        for e in entities:
            if not isinstance(e, dict):
                raise SceneFormatError("entities must be JSON objects")
            scene._insert(_normalize_entity(dict(e)))
        return scene


def _is_finite_number(v) -> bool:
    """A JSON number that is a finite double (NaN, Infinity, 1e400 are not)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the double range
        return False


def _require_numbers(entity: dict, keys: Iterable[str]) -> None:
    for k in keys:
        if not _is_finite_number(entity.get(k)):
            raise SceneFormatError(
                f"entity {entity.get('id')!r} needs finite numeric field {k!r}")


def _normalize_entity(entity: dict) -> dict:
    etype = entity.get("type")
    if etype == "point":
        _require_numbers(entity, ("x", "y"))
    elif etype == "line":
        if "eq" in entity:
            line = parse_line_spec(entity.pop("eq"))
            entity["a"], entity["b"], entity["c"] = line.a, line.b, line.c
        _require_numbers(entity, ("a", "b", "c"))
        try:
            line = Line(entity["a"], entity["b"], entity["c"])
        except ValueError as exc:
            raise SceneFormatError(str(exc)) from None
        entity["a"], entity["b"], entity["c"] = line.a, line.b, line.c
    elif etype == "circle":
        _require_numbers(entity, ("cx", "cy", "r"))
        if entity["r"] <= 0:
            raise SceneFormatError(
                f"circle {entity.get('id')!r} needs positive radius")
    elif etype == "polygon":
        verts = entity.get("vertices")
        if not isinstance(verts, list) or len(verts) < 3:
            raise SceneFormatError(
                f"polygon {entity.get('id')!r} needs >= 3 vertices")
        for v in verts:
            if not (isinstance(v, list) and len(v) == 2
                    and all(_is_finite_number(t) for t in v)):
                raise SceneFormatError(
                    f"polygon {entity.get('id')!r} has a malformed or "
                    f"non-finite vertex")
    elif etype == "parabola":
        _require_numbers(entity, ("s", "c"))
        if entity["s"] == 0:
            raise SceneFormatError(
                f"parabola {entity.get('id')!r} needs s != 0")
    elif etype == "annotation":
        _require_numbers(entity, ("x", "y"))
        if not isinstance(entity.get("text"), str):
            raise SceneFormatError(
                f"annotation {entity.get('id')!r} needs a text field")
    return entity


def polygon_from_entity(entity: dict) -> Polygon:
    return Polygon(tuple(Point(float(x), float(y))
                         for x, y in entity["vertices"]))


def line_from_entity(entity: dict) -> Line:
    return Line(entity["a"], entity["b"], entity["c"])


def point_from_entity(entity: dict) -> Point:
    return Point(entity["x"], entity["y"])
