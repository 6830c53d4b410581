"""verify recognises every polygon that make_equidistant builds.

The equidistant polygons in CASES are the ones on which the circle
search of ``find_simson_point`` misses S or meets a degenerate element,
each built canonically and moved by 0.7 rad and (3, -2).  ``verify``
exits 4 on each today, except (1, 1e5, 1, 8), on which it exits 3
because two side lines "coincide".  Each is a strict xfail until ROADMAP
item 1's search (fit the tangent parabola, refine, certify by backward
error) recognises it.  On three of the four FOUND_CENTRED cases the
search finds S only because it runs about the polygon's bounding-box
centre, not about the origin; it runs there only.
"""

import pytest

from geomgen import moved_equidistant, verify_in_process
from simsonpoly import EquidistantConfig, make_equidistant

ITEM_1 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the circle search misses S on this polygon, "
           "or finds it too roughly for archimedes-family")

CASES = [(1.0, -64.0, 0.5, 256), (1.0, -128.0, 0.5, 512),
         (1.0, -3.5, 1e-3, 8), (1.0, -3.5, 1e-4, 8), (1.0, 1e5, 1.0, 8)]
FOUND_CENTRED = [(1.0, 1000.0, 1.0, 8), (10.0, -32.0, 0.5, 128)]


def _case(config, moved, marks=()):
    name = ",".join(f"{v:g}" for v in config)
    return pytest.param(config, moved, marks=marks,
                        id=f"{name}-{'moved' if moved else 'canonical'}")


@pytest.mark.parametrize("config,moved", [
    *(_case(config, moved, ITEM_1)
      for config in CASES for moved in (False, True)),
    *(_case(config, moved)
      for config in FOUND_CENTRED for moved in (False, True)),
])
def test_verify_recognises_the_equidistant_polygon(config, moved):
    cfg = EquidistantConfig(*config)
    poly = moved_equidistant(cfg) if moved else make_equidistant(cfg)
    assert verify_in_process(poly.vertices)[0] == 0
