"""No request loads numpy, and the package's lazily bound names.

Every request is pure Python (the negative control's seeded noise and
the Gauss-Legendre rule included), so none pays for importing numpy;
the limit-study names reach the package namespace on first access.  All
seven requests run in one interpreter, and numpy would stay loaded once
imported.  No wall clock is read: the tests look at ``sys.modules``
only.  numpy is a test dependency: no module of the package imports it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simsonpoly

ROOT = Path(__file__).resolve().parents[1]

REQUESTS = """
import sys
from simsonpoly.cli import main

def run(*argv):
    code = main(list(argv))
    print(code, "numpy" in sys.modules)

octagon, svg = sys.argv[1], sys.argv[2]
run("construct", "--equidistant", "--s", "1", "--delta", "1", "--n", "8",
    "--out", octagon, "--svg", svg)
run("construct", "--feet", "0,0;1,0;2.5,0;4,0", "--simson-point", "0.5,1",
    "--simson-line", "y=0", "--quiet", "--svg", svg)
run("verify", "--in", octagon, "--quiet")
run("approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4",
    "--perturb-knot", "2,1e-3", "--quiet", "--svg", svg)
run("limit", "--s", "1", "--m-max", "2", "--quiet")
run("verify", "--in", octagon, "--quiet", "--negative-control")
run("approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4",
    "--compare-quadrature", "--quiet")
"""


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_only_numeric_requests_load_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", REQUESTS, str(tmp_path / "octagon.json"),
         str(tmp_path / "figure.svg")],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "0 False",  # construct --equidistant --svg
        "0 False",  # construct --feet --svg
        "0 False",  # verify
        "0 False",  # approx --perturb-knot --svg
        "0 False",  # limit
        "4 False",  # verify --negative-control
        "0 False",  # approx --compare-quadrature
        "",
    ]


def test_no_package_module_imports_numpy():
    modules = sorted((ROOT / "src" / "simsonpoly").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "numpy", (path.name, node.lineno)


def test_nondegeneracy_test_does_not_load_numpy():
    code = """
import sys
from simsonpoly import Point, Polygon
flat = Polygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1)))
square = Polygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
print(flat.is_nondegenerate(), square.is_nondegenerate(), "numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True False\n"


def test_every_public_name_resolves():
    for name in simsonpoly.__all__:
        assert getattr(simsonpoly, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from simsonpoly import *", namespace)
    assert set(simsonpoly.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(simsonpoly.__all__) <= set(dir(simsonpoly))


def test_limits_names_are_the_limits_functions():
    from simsonpoly import limits
    for name in ("chain_for_window", "convergence_table",
                 "hausdorff_chain_parabola", "observed_orders",
                 "point_to_parabola_distance"):
        assert getattr(simsonpoly, name) is getattr(limits, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        simsonpoly.nope
