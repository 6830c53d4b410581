"""Seeded inputs for the CLI benchmark, built with the package's constructors.

Run as a script by ``run.py``:

    python3 perfbench/workloads.py --workload NAME --seed N
        --cycles C --dir DIR

It writes the scene files a workload needs into DIR, plus
``DIR/manifest.json``: C cycles of requests, each request with its
argv and the outcome the mathematics predicts, not what the code does
today.  Cycles are drawn one after another from one generator, so the
first k cycles of a seed do not depend on C.  A rigidly moved
equidistant polygon and a polygon built by ``construct_simson_polygon``
are Simson polygons whatever the draw, so their ``verify`` must exit 0;
a perturbed polygon (negative control) must exit 4.  No draw is
repeated, dropped or narrowed after the fact.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from simsonpoly import (EquidistantConfig, Line, Point, Polygon, SceneDocument,
                        construct_simson_polygon, make_equidistant)

SWEEP_NS = (8, 32, 128, 256)
SMALL_N = 8
LIMIT_GRID = tuple(itertools.product((2.0, 3.0, 4.0), (6, 7)))


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def _draw_config(rng, n: int) -> EquidistantConfig:
    return EquidistantConfig(s=_signed(rng, 0.5, 3.0),
                             x0=float(rng.uniform(-3.0, 3.0)),
                             delta=float(rng.uniform(0.25, 1.5)), n=n)


class RigidMotion:
    """Rotation by a random angle followed by a random translation."""

    def __init__(self, rng):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        self.cos_t, self.sin_t = math.cos(theta), math.sin(theta)
        self.tx, self.ty = (float(t) for t in rng.uniform(-10.0, 10.0, 2))

    def __call__(self, x: float, y: float) -> Point:
        return Point(self.cos_t * x - self.sin_t * y + self.tx,
                     self.sin_t * x + self.cos_t * y + self.ty)

    def x_axis(self) -> Line:
        """Image of the line y = 0."""
        return Line(-self.sin_t, self.cos_t,
                    self.sin_t * self.tx - self.cos_t * self.ty)


def _jittered_feet(rng, cfg: EquidistantConfig, motion: RigidMotion
                   ) -> list[Point]:
    """Feet near the equidistant grid, each moved by up to delta/4."""
    jitter = rng.uniform(-0.25, 0.25, cfg.n) * cfg.delta
    return [motion(cfg.x0 + i * cfg.delta + float(j), 0.0)
            for i, j in enumerate(jitter)]


def _write_scene(path: Path, poly: Polygon) -> str:
    scene = SceneDocument()
    scene.add_polygon("polygon", poly)
    path.write_text(scene.to_json(), encoding="utf-8")
    return str(path)


def _request(kind: str, n: int, argv: list[str], out: str, check: str,
             svg: str | None = None, cost: list | None = None) -> dict:
    """One CLI request; `check` names the output check in run.py.

    `cost` orders requests of one kind by work (default [n]); the
    warm-up takes the cheapest, so its cost does not depend on the seed.
    """
    return {"kind": kind, "n": n, "argv": argv + ["--out", out], "out": out,
            "svg": svg, "check": check, "cost": cost or [n]}


def verify_sweep(rng, work: Path, n_cycles: int) -> list[list[dict]]:
    """verify on (a) moved equidistant, (b) negative control, (c) general."""
    out = str(work / "report.json")
    cycles = []
    for c in range(n_cycles):
        cycle = []
        for n in SWEEP_NS:
            cfg = _draw_config(rng, n)
            motion = RigidMotion(rng)
            base = make_equidistant(cfg).polygon()
            moved = Polygon(tuple(motion(v.x, v.y) for v in base.vertices))
            a_path = _write_scene(work / f"a{c}_{n}.json", moved)
            general = construct_simson_polygon(
                motion(0.0, cfg.s), motion.x_axis(),
                _jittered_feet(rng, cfg, motion))
            c_path = _write_scene(work / f"c{c}_{n}.json", general)
            control_seed = int(rng.integers(0, 2**31 - 1))
            cycle += [
                _request("a", n, ["verify", "--in", a_path], out, "verify"),
                _request("b", n, ["verify", "--in", a_path,
                                  "--negative-control",
                                  "--seed", str(control_seed)],
                         out, "negative"),
                _request("c", n, ["verify", "--in", c_path, "--checks",
                                  "simson,isogonal,lambert"], out, "verify"),
            ]
        cycles.append(cycle)
    return cycles


def _line_spec(line: Line) -> str:
    return f"{line.a:+.17g}x{line.b:+.17g}y{line.c:+.17g}=0"


def _point_spec(p: Point) -> str:
    return f"{p.x!r},{p.y!r}"


def cli_small(rng, work: Path, n_cycles: int) -> list[list[dict]]:
    """One of each short command; verify reads the scene construct wrote."""
    scene, scene_svg = str(work / "scene.json"), str(work / "scene.svg")
    feet_scene, feet_svg = str(work / "feet.json"), str(work / "feet.svg")
    report, approx_out = str(work / "report.json"), str(work / "approx.json")
    limit_out = str(work / "limit.json")
    cycles = []
    for _ in range(n_cycles):
        cfg = _draw_config(rng, SMALL_N)
        motion = RigidMotion(rng)
        feet_cfg = _draw_config(rng, SMALL_N)
        feet = _jittered_feet(rng, feet_cfg, motion)
        s_point = motion(float(rng.uniform(-2.0, 2.0)), feet_cfg.s)
        line = motion.x_axis()
        # Raises if the draw could not make a valid construct request.
        construct_simson_polygon(s_point, line, feet)
        s_approx = _signed(rng, 0.5, 3.0)
        a, b = float(rng.uniform(-4.0, -0.5)), float(rng.uniform(0.5, 4.0))
        s_limit = _signed(rng, 0.5, 3.0)
        cycles.append([
            _request("construct-equidistant", SMALL_N,
                     ["construct", "--equidistant", "--n", str(SMALL_N),
                      f"--s={cfg.s!r}", f"--delta={cfg.delta!r}",
                      f"--x0={cfg.x0!r}", "--svg", scene_svg],
                     scene, "construct", svg=scene_svg),
            _request("construct-feet", SMALL_N,
                     ["construct",
                      "--feet=" + ";".join(_point_spec(f) for f in feet),
                      "--simson-point=" + _point_spec(s_point),
                      "--simson-line=" + _line_spec(line), "--svg", feet_svg],
                     feet_scene, "construct", svg=feet_svg),
            _request("verify", SMALL_N, ["verify", "--in", scene], report,
                     "verify"),
            _request("approx", 16,
                     ["approx", f"--s={s_approx!r}", f"--a={a!r}",
                      f"--b={b!r}", "--n", "16", "--compare-quadrature",
                      "--perturb-knot", "2,1e-3"], approx_out, "approx"),
            _request("limit", 2, ["limit", f"--s={s_limit!r}",
                                  "--m-max", "2"], limit_out, "limit"),
        ])
    return cycles


def limit_refine(rng, work: Path, n_cycles: int) -> list[list[dict]]:
    """limit over every (window, m_max) pair per cycle, in seeded order."""
    out = str(work / "limit.json")
    cycles = []
    for _ in range(n_cycles):
        cycle = []
        for idx in rng.permutation(len(LIMIT_GRID)):
            window, m_max = LIMIT_GRID[idx]
            s = _signed(rng, 0.5, 3.0)
            cycle.append(_request(
                "limit", m_max,
                ["limit", f"--s={s!r}", f"--window={window!r}",
                 "--m-max", str(m_max)], out, "limit",
                cost=[m_max, window]))
        cycles.append(cycle)
    return cycles


WORKLOADS = {"verify-sweep": verify_sweep, "cli-small": cli_small,
             "limit-refine": limit_refine}


def _warmups(cycles: list[list[dict]]) -> list[dict]:
    """The cheapest request of each kind from the first cycle."""
    first: dict[str, dict] = {}
    for req in cycles[0]:
        if req["kind"] not in first \
                or req["cost"] < first[req["kind"]]["cost"]:
            first[req["kind"]] = req
    return list(first.values())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", required=True, type=int)
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    cycles = WORKLOADS[args.workload](rng, args.dir, args.cycles)
    manifest = {"numpy": np.__version__,
                "warmup": _warmups(cycles), "cycles": cycles}
    (args.dir / "manifest.json").write_text(json.dumps(manifest),
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
