"""verify judges the polygon, not the vertex it is listed from.

A cyclic shift of the vertices and their reversal list the same polygon,
so every listing must get the same verdict and the same report entries
(ROADMAP item 9).
"""

import json
import math

import numpy as np
import pytest

from simsonpoly import EquidistantConfig, Point, Polygon, make_equidistant
from simsonpoly.cli import main
from simsonpoly.scene import SceneDocument
from simsonpoly.simson import find_simson_point


def _moved(cfg, theta, shift):
    c, s = math.cos(theta), math.sin(theta)
    return [Point(c * v.x - s * v.y + shift[0], s * v.x + c * v.y + shift[1])
            for v in make_equidistant(cfg).vertices]


def _listings(vertices):
    """Every cyclic shift of the vertices, then of their reversal."""
    for vs in (vertices, vertices[::-1]):
        for k in range(len(vs)):
            yield vs[k:] + vs[:k]


def _verify(capsys, tmp_path, vertices):
    """Exit code and (name, count) of each entry of ``verify``."""
    scene = SceneDocument()
    scene.add_polygon("polygon", Polygon(tuple(vertices)))
    path = tmp_path / "scene.json"
    path.write_text(scene.to_json())
    code = main(["verify", "--in", str(path)])
    report = json.loads(capsys.readouterr().out)
    return code, [(c["name"], c["count"]) for c in report["checks"]]


@pytest.mark.parametrize("n", [5, 8, 32])
def test_every_listing_of_a_moved_equidistant_polygon_verifies(capsys,
                                                               tmp_path, n):
    # (s, x0, delta) and the motion are drawn as the benchmark's
    # verify-sweep draws them.
    rng = np.random.default_rng(n)
    for _ in range(4):
        cfg = EquidistantConfig(
            s=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
            x0=float(rng.uniform(-3.0, 3.0)),
            delta=float(rng.uniform(0.25, 1.5)), n=n)
        vertices = _moved(cfg, float(rng.uniform(0.0, 2.0 * math.pi)),
                          rng.uniform(-10.0, 10.0, 2))
        code, entries = _verify(capsys, tmp_path, vertices)
        assert code == 0 and len(entries) == 8
        for listing in _listings(vertices):
            assert _verify(capsys, tmp_path, listing) == (0, entries)


def test_search_finds_s_from_every_listing():
    cfg = EquidistantConfig(7.634746602506871, 1.7304169298849992, 0.05, 10)
    found = [find_simson_point(Polygon(tuple(vs))) is not None
             for vs in _listings(_moved(cfg, 0.7, (3.0, -2.0)))]
    assert found == [True] * 20


def test_search_finds_s_of_seeded_polygons_from_every_listing():
    # Searched about the origin only, 3 of these 100 draws are found from
    # some listings and missed from others.
    rng = np.random.default_rng(2026)
    missed = []
    for draw in range(100):
        n = int(rng.integers(4, 33))
        cfg = EquidistantConfig(
            s=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
            x0=float(rng.uniform(-3.0, 3.0)),
            delta=float(rng.choice([0.05, 0.25, 1.0])), n=n)
        vertices = _moved(cfg, float(rng.uniform(0.0, 2.0 * math.pi)),
                          rng.uniform(-10.0, 10.0, 2))
        missed += [(draw, k) for k, vs in enumerate(_listings(vertices))
                   if find_simson_point(Polygon(tuple(vs))) is None]
    assert missed == []
