"""One failure vocabulary: every error ``src`` raises is a ``UsageError``
or a ``GeometryError``, and README's "Errors" table lists each class.

Each ``raise`` in ``src/simsonpoly`` is read with ``ast`` and its class
resolved in its own module; it must subclass one of the two bases, which
``cli.main`` maps to exit 2 and exit 3.  Exempt are the AttributeErrors
that Python's attribute protocol needs: ``Frozen.__setattr__``,
``Frozen.__delattr__`` and the package ``__getattr__``.  The table
gives each exception class of ``src`` with its base, its code and the
modules whose ``raise`` names it.
"""

import ast
import builtins
import importlib
import math
from collections import defaultdict
from pathlib import Path

import pytest

from simsonpoly.approx import ApproxProblem
from simsonpoly.equidistant import EquidistantConfig
from simsonpoly.kernel import GeometryError, InvalidConfig, Parabola, \
    UsageError
from simsonpoly.limits import chain_for_window, convergence_table

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "simsonpoly"
README = ROOT / "README.md"

EXEMPT = {("kernel", "Frozen.__setattr__", AttributeError),
          ("kernel", "Frozen.__delattr__", AttributeError),
          ("__init__", "__getattr__", AttributeError)}

# Second names for a kind that kernel has, merged into it.
MERGED = {"InvalidProblem", "LeavesFloatRange", "DegenerateSide",
          "DuplicateFeet", "ParallelSides"}


def _module(path: Path):
    return importlib.import_module(
        "simsonpoly" if path.stem == "__init__" else f"simsonpoly.{path.stem}")


def _sources() -> list[Path]:
    # Importing __main__ would run the command line.
    return [p for p in sorted(SRC.glob("*.py")) if p.stem != "__main__"]


def _raises(node: ast.AST, scope: str = ""):
    """(enclosing qualified name, Raise node) for each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _raises(child, f"{scope}{child.name}.")
            continue
        if isinstance(child, ast.Raise):
            yield scope.rstrip("."), child
        yield from _raises(child, scope)


def _raised_classes():
    """(module, enclosing qualified name, class) for each raise in src."""
    for path in _sources():
        module = _module(path)
        for scope, node in _raises(ast.parse(path.read_text("utf-8"))):
            assert node.exc is not None, f"{path.stem}.{scope}: bare raise"
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            assert isinstance(exc, ast.Name), ast.unparse(node)
            cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
            yield path.stem, scope, cls


def _exception_classes() -> dict[str, type]:
    """"module.Name" -> class, for each exception class src defines."""
    found = {}
    for path in _sources():
        module = _module(path)
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    found[f"{path.stem}.{node.name}"] = cls
    return found


def _table() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    body = text[text.index("### Errors"):]
    body = body[:body.index("\n#", 1)]
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in body.splitlines() if line.startswith("| `")]


def test_every_raise_is_a_usage_or_a_geometry_error():
    exempt, wrong = set(), []
    for module, scope, cls in _raised_classes():
        if (module, scope, cls) in EXEMPT:
            exempt.add((module, scope, cls))
        elif not issubclass(cls, (UsageError, GeometryError)):
            wrong.append(f"{module}.{scope}: {cls.__name__}")
    assert wrong == []
    assert exempt == EXEMPT
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(
        ast.parse((SRC / "__main__.py").read_text("utf-8"))))


def test_src_defines_twelve_exception_classes_none_merged():
    assert len(_exception_classes()) == 12
    for tree in ("src", "tests", "tools", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                names = {getattr(node, "id", None), getattr(node, "name", None),
                         getattr(node, "attr", None)}
                assert names & MERGED == set(), (path, ast.unparse(node))


def test_readme_errors_table_matches_src():
    raised_by = defaultdict(set)
    for module, _, cls in _raised_classes():
        raised_by[cls].add(module)
    classes = _exception_classes()
    rows = _table()
    assert sorted(row[0] for row in rows) == sorted(classes)
    for name, base, code, _, modules in rows:
        cls = classes[name]
        assert cls.__bases__[0].__name__ == base, name
        assert int(code) == (2 if issubclass(cls, UsageError) else 3), name
        assert set(modules.replace("`", "").split(", ")) == \
            raised_by[cls], name


@pytest.mark.parametrize("s", [0.0, math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda s: Parabola(s, 0.0),
    lambda s: ApproxProblem(s=s, delta=0.0, a=0.0, b=1.0, n=1),
    lambda s: EquidistantConfig(s=s, x0=0.0, delta=1.0, n=8),
    lambda s: chain_for_window(s, 4.0, 1.0),
    lambda s: convergence_table(s, 4.0, 1),
], ids=["Parabola", "ApproxProblem", "EquidistantConfig", "chain_for_window",
        "convergence_table"])
def test_every_entry_point_judges_s_by_one_rule(build, s):
    # The height s of a Simson point, or of a parabola's focus data, has
    # one rule and one message wherever it enters the package.
    with pytest.raises(InvalidConfig) as raised:
        build(s)
    assert str(raised.value) == f"s must be nonzero and finite, got {s}"
