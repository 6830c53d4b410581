"""verify judges the polygon, not where it is placed.

A translation by (T, -T) moves the same polygon, so every moved
equidistant polygon that verify accepts must still be accepted there
(ROADMAP item 9).  Far from the origin the side lines' offset
c = p.x q.y - q.x p.y cancels, so ``find_simson_point`` searches about
the polygon's bounding-box centre first.  Searched about the origin
only, the seeded draws below passed 60 of 60 at T = 0, 59 at 1e3, 32 at
1e4 and 3 at 1e5; searched about the centre they pass 60 of 60 up to
1e5, 59 at 1e6 and 37 at 1e7.
"""

import math

import numpy as np
import pytest

from simsonpoly import EquidistantConfig, Point, make_equidistant
from simsonpoly.cli import main
from simsonpoly.scene import SceneDocument
from simsonpoly.simson import Polygon


def _polygons():
    """20 moved equidistant polygons for each n in (8, 32, 64), drawn as
    the benchmark's verify-sweep draws them."""
    for n in (8, 32, 64):
        rng = np.random.default_rng(n)
        for _ in range(20):
            cfg = EquidistantConfig(
                s=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
                x0=float(rng.uniform(-3.0, 3.0)),
                delta=float(rng.uniform(0.25, 1.5)), n=n)
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            shift = rng.uniform(-10.0, 10.0, 2).tolist()
            c, s = math.cos(theta), math.sin(theta)
            yield [(c * v.x - s * v.y + shift[0], s * v.x + c * v.y + shift[1])
                   for v in make_equidistant(cfg).vertices]


@pytest.mark.parametrize("t", [0.0, 1e4, 1e5])
def test_translation_keeps_the_verdict(capsys, tmp_path, t):
    path = tmp_path / "scene.json"
    codes = []
    for vertices in _polygons():
        scene = SceneDocument()
        scene.add_polygon("polygon", Polygon(tuple(
            Point(x + t, y - t) for x, y in vertices)))
        path.write_text(scene.to_json())
        codes.append(main(["verify", "--in", str(path)]))
        capsys.readouterr()
    assert codes == [0] * 60
