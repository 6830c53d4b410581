"""Each request imports only the modules its subcommand runs.

Every request is pure Python (the negative control's seeded noise and
the Gauss-Legendre rule included), so none pays for importing numpy.
The package namespace binds its public names on first access, and the
CLI imports each layer inside the command that calls it: ``limit``
loads ``kernel`` and ``limits`` only, ``approx`` never loads the Simson,
equidistant or scene modules, and only ``verify --negative-control``
loads the noise generator ``_pcg64``.  No request loads ``dataclasses``
or the ``inspect`` module it pulls in.  Each request runs as
``python -X importtime -m simsonpoly`` in a fresh interpreter, whose
import-time log names every module it adds to ``sys.modules``.  No wall
clock is read.  numpy is a test dependency: no module of the package
imports it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simsonpoly
from simsonpoly.cli import main

ROOT = Path(__file__).resolve().parents[1]

OCTAGON = ("construct", "--equidistant", "--s", "1", "--delta", "1",
           "--n", "8")
VERIFY = "cli kernel scene simson equidistant report"

# Each request with its exit code and the package modules it loads (the
# package itself always); {octagon} and {svg} name files.
REQUESTS = [
    ((*OCTAGON, "--out", "{octagon}", "--svg", "{svg}"), 0,
     VERIFY + " svgfig"),
    (("construct", "--feet", "0,0;1,0;2.5,0;4,0", "--simson-point", "0.5,1",
      "--simson-line", "y=0", "--quiet", "--svg", "{svg}"), 0,
     "cli kernel scene simson svgfig"),
    (("verify", "--in", "{octagon}", "--quiet"), 0, VERIFY),
    (("approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4",
      "--perturb-knot", "2,1e-3", "--quiet", "--svg", "{svg}"), 0,
     "cli kernel approx svgfig"),
    (("limit", "--s", "1", "--m-max", "2", "--quiet"), 0,
     "cli kernel limits"),
    (("verify", "--in", "{octagon}", "--quiet", "--negative-control"), 4,
     VERIFY + " _pcg64"),
    (("approx", "--s", "1", "--a", "0", "--b", "4", "--n", "4",
      "--compare-quadrature", "--quiet"), 0, "cli kernel approx"),
]


def _argv(argv, octagon, svg):
    return [a.format(octagon=octagon, svg=svg) for a in argv]


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def octagon(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "octagon.json"
    assert main([*OCTAGON, "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv, code, modules", REQUESTS, ids=[
    "construct-equidistant-svg", "construct-feet-svg", "verify",
    "approx-perturb-knot-svg", "limit", "verify-negative-control",
    "approx-compare-quadrature"])
def test_request_imports_only_its_layers(tmp_path, octagon, argv, code,
                                         modules):
    argv = _argv(argv, octagon, str(tmp_path / "figure.svg"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "simsonpoly", *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    # "import time: <self us> | <cumulative us> | <indented name>"
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert proc.returncode == code, proc.stderr
    assert {m for m in imported if m.split(".")[0] == "simsonpoly"} == \
        {"simsonpoly", *("simsonpoly." + m for m in modules.split())}
    assert ("simsonpoly._pcg64" in imported) == \
        ("--negative-control" in argv)
    assert "numpy" not in imported
    # The value types are slotted classes: no dataclasses, so no inspect.
    assert not {"dataclasses", "inspect"} & imported


def test_only_numeric_requests_load_numpy(tmp_path):
    # All requests in one interpreter: numpy would stay loaded once
    # imported.
    octagon, svg = str(tmp_path / "octagon.json"), str(tmp_path / "fig.svg")
    script = "\n".join(
        ["import sys", "from simsonpoly.cli import main"]
        + [f"print(main({_argv(argv, octagon, svg)!r}), "
           "'numpy' in sys.modules)" for argv, _, _ in REQUESTS])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        f"{code} False" for _, code, _ in REQUESTS] + [""]


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


def test_every_public_name_is_its_module_attribute():
    from importlib import import_module
    from simsonpoly import _MODULE_OF
    for name, module in _MODULE_OF.items():
        value = getattr(import_module("simsonpoly." + module), name)
        assert getattr(simsonpoly, name) is value, name


def test_package_import_loads_no_layer():
    # A submodule name is not a public name: the import system falls back
    # to importing the submodule, as perfbench's traced launcher relies on.
    code = """
import sys
import simsonpoly
print(sorted(m for m in sys.modules if m.startswith("simsonpoly")))
from simsonpoly import approx, limits
print(approx.__name__, limits.__name__)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("['simsonpoly']\n"
                           "simsonpoly.approx simsonpoly.limits\n")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        simsonpoly.nope
