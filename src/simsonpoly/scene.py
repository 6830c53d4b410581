"""Scene documents: the JSON interchange format of the command line tools.

A scene is a flat list of tagged entities (points, lines, circles,
polygons, parabolas, annotations) with unique ids and optional style
hints.  Numbers are plain JSON doubles; Python's shortest-repr float
serialization round-trips every IEEE double bit-exactly, so a scene
written and re-read reproduces identical coordinates.

Line entities may be given either as coefficients {a, b, c} of
a*x + b*y + c = 0 or as an equation string such as "y=2x-1", "x=3" or
"2x-y+0.5=0"; they are normalized to coefficient form on load.

The work of the ``construct`` and ``verify`` commands, which read and
write scenes, lives here too; ``cli`` imports it when such a command runs.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .cli import ALL_CHECKS, EQUIDISTANT_CHECKS  # verify's help lists them
from .kernel import Circle, GeometryError, InvalidConfig, Line, NonFinite, \
    Parabola, Point, UsageError
from .simson import Polygon, _search, check_triple, construct_simson_polygon

SCHEMA_VERSION = "1"

ENTITY_TYPES = ("point", "line", "circle", "polygon", "parabola", "annotation")


class SceneFormatError(UsageError):
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
    except NonFinite:  # float() reads 'nan', 'inf' and '1e400'
        raise SceneFormatError(f"point spec {text!r} must be finite") from None
    except ValueError:
        raise SceneFormatError(f"point spec {text!r} must be numeric") from None


def parse_feet_spec(text: str) -> list[Point]:
    items = [s for s in text.split(";") if s.strip()]
    if not items:
        raise SceneFormatError("empty feet list")
    return [parse_point_spec(s) for s in items]


class SceneDocument:
    """Ordered collection of uniquely identified scene entities."""

    def __init__(self, entities: list[dict] | None = None):
        self.entities: list[dict] = []
        # The ids of self.entities, so an insert checks uniqueness in O(1).
        self._ids: set[str] = set()
        for e in entities or []:
            self._insert(e)

    def _insert(self, entity: dict, style: dict | None = None) -> None:
        """Append entity, with style as its last key when one is given."""
        etype = entity.get("type")
        if etype not in ENTITY_TYPES:
            raise SceneFormatError(f"unknown entity type {etype!r}")
        eid = entity.get("id")
        if not isinstance(eid, str) or not eid:
            raise SceneFormatError(f"entity of type {etype!r} needs a string id")
        if eid in self._ids:
            raise SceneFormatError(f"duplicate entity id {eid!r}")
        if style:
            entity["style"] = style
        self._ids.add(eid)
        self.entities.append(entity)

    def add_point(self, eid: str, p: Point, **style) -> None:
        self._insert({"type": "point", "id": eid, "x": p.x, "y": p.y}, style)

    def add_line(self, eid: str, l: Line, **style) -> None:
        self._insert({"type": "line", "id": eid, "a": l.a, "b": l.b,
                      "c": l.c}, style)

    def add_polygon(self, eid: str, poly: Polygon, **style) -> None:
        self._insert({"type": "polygon", "id": eid,
                      "vertices": [[v.x, v.y] for v in poly.vertices]}, style)

    def add_parabola(self, eid: str, par: Parabola, **style) -> None:
        self._insert({"type": "parabola", "id": eid, "s": par.s, "c": par.c},
                     style)

    def of_type(self, etype: str) -> list[dict]:
        return [e for e in self.entities if e["type"] == etype]

    def first_polygon(self) -> Polygon:
        polys = self.of_type("polygon")
        if not polys:
            raise SceneFormatError("scene contains no polygon entity")
        return polygon_from_entity(polys[0])

    def to_json(self) -> str:
        doc = {"schema_version": SCHEMA_VERSION, "entities": self.entities}
        return json.dumps(doc, indent=2, allow_nan=False)

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
            try:
                entity = _normalize_entity(dict(e))
            except GeometryError as exc:
                # The kernel value an entity describes states its rule.
                raise SceneFormatError(str(exc)) from None
            scene._insert(entity)
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
        line = Line(entity["a"], entity["b"], entity["c"])
        entity["a"], entity["b"], entity["c"] = line.a, line.b, line.c
    elif etype == "circle":
        _require_numbers(entity, ("cx", "cy", "r"))
        Circle(Point(entity["cx"], entity["cy"]), entity["r"])
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
        Parabola(entity["s"], entity["c"])
    elif etype == "annotation":
        _require_numbers(entity, ("x", "y"))
        if not isinstance(entity.get("text"), str):
            raise SceneFormatError(
                f"annotation {entity.get('id')!r} needs a text field")
    return entity


def polygon_from_entity(entity: dict) -> Polygon:
    return Polygon(tuple(Point(float(x), float(y))
                         for x, y in entity["vertices"]))


# ----------------------------------------------------------------- commands

def construct_request(args) -> tuple[str, str | None, bool]:
    """The scene JSON and SVG figure (None without --svg) of ``construct``."""
    scene = SceneDocument()
    if args.equidistant:
        from .equidistant import EquidistantConfig, associated_parabola, \
            make_equidistant, midpoint_parabola

        for flag, value in (("--s", args.s), ("--delta", args.delta),
                            ("--n", args.n)):
            if value is None:
                raise UsageError(f"--equidistant requires {flag}")
        cfg = EquidistantConfig(s=args.s, x0=args.x0, delta=args.delta,
                                n=args.n)
        poly = make_equidistant(cfg)
        scene.add_line("L", poly.simson_line)
        scene.add_parabola("C", associated_parabola(cfg), dash="4 3")
        scene.add_parabola("Cprime", midpoint_parabola(cfg), dash="2 3",
                           stroke="#777777")
        polygon, feet, s = poly.polygon(), poly.projections, poly.simson_point
    else:
        for flag, value in (("--feet", args.feet),
                            ("--simson-point", args.simson_point),
                            ("--simson-line", args.simson_line)):
            if value is None:
                raise UsageError(
                    f"construct without --equidistant requires {flag}")
        feet = parse_feet_spec(args.feet)
        s = parse_point_spec(args.simson_point)
        line = parse_line_spec(args.simson_line)
        polygon = construct_simson_polygon(s, line, feet)
        scene.add_line("L", line)
    scene.add_polygon("polygon", polygon)
    for i, foot in enumerate(feet):
        scene.add_point(f"X{i + 1}", foot, fill="#808080")
    scene.add_point("S", s, fill="#b03030")
    # The figure is built first: a scene it cannot draw writes nothing.
    svg = None
    if args.svg is not None:
        from .svgfig import scene_to_svg
        svg = scene_to_svg(scene)
    return scene.to_json(), svg, True


def _parse_checks(spec: str) -> list[str]:
    """The checks spec names, each once, in the order a report lists them."""
    names = [c.strip() for c in spec.split(",") if c.strip()]
    if not names:
        raise UsageError("--checks must name at least one check")
    for name in names:
        if name != "all" and name not in ALL_CHECKS:
            raise UsageError(
                f"unknown check {name!r}; choose from "
                f"{', '.join(ALL_CHECKS)} or all")
    return [c for c in ALL_CHECKS if "all" in names or c in names]


def _parse_triple(spec: str) -> tuple[int, int, int]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise UsageError("--triple expects three comma-separated side indices")
    try:
        i, j, k = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--triple indices must be integers, got {spec!r}")
    return i, j, k


def _load_polygon(args) -> Polygon:
    if args.infile is None:
        raise UsageError("verify requires --in SCENE.json")
    try:
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.infile}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {args.infile}: {exc}")
    return SceneDocument.from_json(text).first_polygon()


def _perturbed(poly: Polygon, eps: float, seed: int) -> Polygon:
    """Move each vertex by -eps + 2 * eps * random() in x, then in y."""
    import random

    # An int seed fixes the random() stream in every Python version.
    draw = random.Random(seed).random
    return Polygon(tuple(Point(v.x + (-eps + 2 * eps * draw()),
                               v.y + (-eps + 2 * eps * draw()))
                         for v in poly.vertices))


def _run_checks(poly: Polygon, checks: list[str],
                triple: tuple[int, int, int]) -> VerificationReport:
    """The report of checks, as ``_parse_checks`` lists them, on poly."""
    from .report import CheckResult, VerificationReport

    report = VerificationReport()
    _, centred, cert, defect = _search(poly)
    if cert is None:
        for name in checks:
            report.add(CheckResult(
                name, (), defect, False,
                note="no common intersection of characterization circles"
                if name == "simson" else "skipped: no simson point"))
        return report
    # The frame layer runs only once a Simson point is found.
    from .equidistant import equidistant_from_frame, frame_from_certificate, \
        verify_archimedes, verify_isogonal, verify_lambert, verify_optical, \
        verify_parallel_chords

    if "simson" in checks:
        report.add(CheckResult("simson", (), cert.residual, True))
    frame = frame_from_certificate(centred, cert)
    report.set_limits(frame.scale())
    if "isogonal" in checks:
        report.extend(verify_isogonal(frame))
    if "lambert" in checks:
        report.extend(verify_lambert(frame, *triple))
    wanted = [c for c in checks if c in EQUIDISTANT_CHECKS]
    if wanted and poly.n == 3:
        # Every point of a triangle's circumcircle is a Simson point; the
        # search returns the topmost one, not the point that built it.
        for name in wanted:
            report.add(CheckResult(
                name, (), 0.0, True,
                note="skipped: a triangle's Simson point is not unique"))
        return report
    if wanted:
        try:
            eq = equidistant_from_frame(frame)
        except InvalidConfig as exc:
            report.add(CheckResult("equidistant-spacing", (), float("inf"),
                                   False, note=str(exc)))
            return report
        if "parallel-chords" in wanted:
            report.extend(verify_parallel_chords(eq))
        if "optical" in wanted:
            report.extend(verify_optical(eq))
        if "archimedes" in wanted:
            if eq.n < 5:
                report.add(CheckResult("archimedes", (), 0.0, True,
                                       note="skipped: needs n >= 5"))
            else:
                report.extend(verify_archimedes(eq))
    return report


def verify_request(args) -> tuple[str, None, bool]:
    """The report JSON of a ``verify`` request, and whether it passed."""
    checks = _parse_checks(args.checks)
    triple = _parse_triple(args.triple)
    if args.perturb <= 0.0:
        raise UsageError(f"--perturb must be positive, got {args.perturb}")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    # The noise is drawn from [-perturb, perturb], whose width must be finite.
    if not math.isfinite(2.0 * args.perturb):
        raise UsageError(
            f"--perturb width must be finite, got {2.0 * args.perturb}")
    poly = _load_polygon(args)
    if "lambert" in checks:  # judged before a search that may miss
        check_triple(poly.n, triple)
    if args.negative_control:
        poly = _perturbed(poly, args.perturb, args.seed)
    report = _run_checks(poly, checks, triple)
    return (json.dumps(report.to_dict(), indent=2, allow_nan=False), None,
            report.overall)
