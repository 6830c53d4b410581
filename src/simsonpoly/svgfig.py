"""Deterministic SVG 1.1 rendering of scene documents.

World coordinates are y-up; the canvas flips the axis at write time so
labels stay upright.  All numbers are emitted with a fixed format, so a
given scene always produces byte-identical SVG.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .kernel import NonFinite, Point

if TYPE_CHECKING:
    # Annotations only: a figure request loads the layer it draws, not
    # the other one.
    from .approx import ApproxProblem, ApproxResult
    from .scene import SceneDocument

_DEFAULT_STROKE = {
    "line": "#555555",
    "circle": "#888888",
    "polygon": "#1f3d7a",
    "parabola": "#b03030",
    "chain": "#1f3d7a",
}

_PARABOLA_SAMPLES = 256

# Canvas width in pixels; the height follows the window's aspect ratio.
_WIDTH = 720


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


class SvgCanvas:
    """Fixed-size canvas mapping a world window to pixel coordinates.

    Raises NonFinite when the window is too narrow or too wide for its
    scale or pixel height to be a positive finite float.
    """

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        pad_x = 0.08 * (xmax - xmin)
        pad_y = 0.08 * (ymax - ymin)
        self.xmin, self.xmax = xmin - pad_x, xmax + pad_x
        self.ymin, self.ymax = ymin - pad_y, ymax + pad_y
        self.scale = _WIDTH / (self.xmax - self.xmin)
        height = (self.ymax - self.ymin) * self.scale
        if not (0.0 < self.scale < math.inf and math.isfinite(height)):
            raise NonFinite(f"figure window [{xmin}, {xmax}] x [{ymin}, "
                            f"{ymax}] leaves the float range")
        self.height = max(int(round(height)), 40)
        self._body: list[str] = []

    def map(self, p: Point) -> tuple[float, float]:
        return ((p.x - self.xmin) * self.scale,
                (self.ymax - p.y) * self.scale)

    def polyline(self, pts: list[Point], stroke: str, *, dash: str = "",
                 stroke_width: float = 1.5, closed: bool = False) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}"
                          for x, y in (self.map(p) for p in pts))
        tag = "polygon" if closed else "polyline"
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._body.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{stroke_width}"{dash_attr}/>')

    def segment(self, a: Point, b: Point, stroke: str, *, dash: str = "",
                stroke_width: float = 1.5) -> None:
        (x1, y1), (x2, y2) = self.map(a), self.map(b)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}"'
            f' y2="{_fmt(y2)}" stroke="{stroke}"'
            f' stroke-width="{stroke_width}"{dash_attr}/>')

    def circle(self, center: Point, radius: float, stroke: str) -> None:
        cx, cy = self.map(center)
        self._body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}"'
            f' r="{_fmt(radius * self.scale)}" fill="none"'
            f' stroke="{stroke}" stroke-width="1.5"/>')

    def dot(self, p: Point, fill: str = "#202020", radius: float = 3.0) -> None:
        cx, cy = self.map(p)
        self._body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}"'
            f' fill="{fill}"/>')

    def text(self, p: Point, label: str, *, dx: float = 6.0,
             dy: float = -6.0) -> None:
        cx, cy = self.map(p)
        safe = (label.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;"))
        self._body.append(
            f'<text x="{_fmt(cx + dx)}" y="{_fmt(cy + dy)}"'
            f' font-family="sans-serif" font-size="12">{safe}</text>')

    def infinite_line(self, a: float, b: float, c: float, stroke: str, *,
                      dash: str = "") -> None:
        """Clip a*x + b*y + c = 0 to the canvas window and draw it."""
        pts = []
        for x in (self.xmin, self.xmax):
            if b != 0.0:
                y = -(a * x + c) / b
                if self.ymin - 1e-9 <= y <= self.ymax + 1e-9:
                    pts.append(Point(x, y))
        for y in (self.ymin, self.ymax):
            if a != 0.0:
                x = -(b * y + c) / a
                if self.xmin - 1e-9 <= x <= self.xmax + 1e-9:
                    pts.append(Point(x, y))
        if len(pts) < 2:
            return
        best = max(((p, q) for p in pts for q in pts),
                   key=lambda pq: pq[0].distance(pq[1]))
        self.segment(best[0], best[1], stroke, dash=dash)

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{self.height}" '
            f'viewBox="0 0 {_WIDTH} {self.height}">\n'
            f'<rect width="{_WIDTH}" height="{self.height}" '
            'fill="#ffffff"/>\n')
        return head + "\n".join(self._body) + "\n</svg>\n"


def _scene_bounds(scene: SceneDocument) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for e in scene.entities:
        t = e["type"]
        if t in ("point", "annotation"):
            xs.append(e["x"])
            ys.append(e["y"])
        elif t == "circle":
            xs.extend([e["cx"] - e["r"], e["cx"] + e["r"]])
            ys.extend([e["cy"] - e["r"], e["cy"] + e["r"]])
        elif t == "polygon":
            xs.extend(v[0] for v in e["vertices"])
            ys.extend(v[1] for v in e["vertices"])
    if not xs:
        return -1.0, -1.0, 1.0, 1.0
    return min(xs), min(ys), max(xs), max(ys)


def _style(e: dict, key: str, default):
    return e.get("style", {}).get(key, default)


def scene_to_svg(scene: SceneDocument) -> str:
    """Render a scene document; entity order fixes the stacking order."""
    xmin, ymin, xmax, ymax = _scene_bounds(scene)
    canvas = SvgCanvas(xmin, ymin, xmax, ymax)
    for e in scene.entities:
        t = e["type"]
        if t == "line":
            canvas.infinite_line(e["a"], e["b"], e["c"],
                                 _style(e, "stroke", _DEFAULT_STROKE["line"]),
                                 dash=_style(e, "dash", ""))
        elif t == "circle":
            canvas.circle(Point(e["cx"], e["cy"]), e["r"],
                          _style(e, "stroke", _DEFAULT_STROKE["circle"]))
        elif t == "polygon":
            pts = [Point(x, y) for x, y in e["vertices"]]
            canvas.polyline(pts, _style(e, "stroke", _DEFAULT_STROKE["polygon"]),
                            closed=True)
            for i, p in enumerate(pts):
                canvas.dot(p, fill="#1f3d7a", radius=2.5)
                canvas.text(p, f"V{i + 1}")
        elif t == "parabola":
            s, c = e["s"], e["c"]
            lo, hi = canvas.xmin, canvas.xmax
            pts = []
            for k in range(_PARABOLA_SAMPLES + 1):
                x = lo + (hi - lo) * k / _PARABOLA_SAMPLES
                y = (x * x - c) / (4.0 * s)
                if canvas.ymin <= y <= canvas.ymax:
                    pts.append(Point(x, y))
            if len(pts) >= 2:
                canvas.polyline(pts,
                                _style(e, "stroke", _DEFAULT_STROKE["parabola"]),
                                dash=_style(e, "dash", "4 3"), stroke_width=1.2)
        elif t == "annotation":
            canvas.text(Point(e["x"], e["y"]), e["text"], dx=0.0, dy=0.0)
    # Points drawn last so markers sit on top of everything else.
    for e in scene.of_type("point"):
        p = Point(e["x"], e["y"])
        canvas.dot(p, fill=_style(e, "fill", "#202020"))
        canvas.text(p, e["id"])
    return canvas.render()


def approx_figure(p: ApproxProblem, res: ApproxResult) -> str:
    """Parabola arc over [a, b] with its piecewise-linear interpolant."""
    curve = [Point(x, p.f(x))
             for x in (p.a + (p.b - p.a) * k / _PARABOLA_SAMPLES
                       for k in range(_PARABOLA_SAMPLES + 1))]
    ys = [q.y for q in curve]
    canvas = SvgCanvas(p.a, min(ys), p.b, max(ys))
    canvas.polyline(curve, _DEFAULT_STROKE["parabola"], stroke_width=1.2)
    chain = [Point(x, y) for x, y in res.knot_points]
    canvas.polyline(chain, _DEFAULT_STROKE["chain"])
    for i, kp in enumerate(chain):
        canvas.dot(kp, fill="#1f3d7a", radius=2.5)
        canvas.text(kp, f"x{i}")
    return canvas.render()
