"""``src`` defines only what ``src`` itself uses, or the public API.

Every function, class and method defined in ``src/simsonpoly`` must be
referenced somewhere in ``src``: as a name, as an attribute or in an
import.  Docstrings and comments do not count, and a test or the
benchmark calling a definition does not either.  Exempt are the names in
``simsonpoly.__all__``, dunder methods, and the entries of KEEP, each
with the reason it stays.  Test-only helpers and oracles belong in
``tests/``.
"""

import ast
from pathlib import Path

import simsonpoly

SRC = Path(__file__).resolve().parents[1] / "src" / "simsonpoly"

# "module.Qualified.name" -> why it stays without a caller in src.
KEEP = {
    "kernel.Parabola.point_at":
        "public method of the public Parabola; y_at's point form",
    "limits.ConvergenceRow.ratio":
        "public property of a convergence_table row: Hausdorff over bound",
    "scene.SceneDocument.add_circle":
        "scene API: builds the circle entity the schema defines",
    "scene.SceneDocument.add_annotation":
        "scene API: builds the annotation entity the schema defines",
    "scene.SceneDocument.find":
        "scene API: entity lookup by id",
    "simson.CompleteQuadrilateral.from_polygon":
        "public constructor of the public CompleteQuadrilateral",
    "simson.Polygon.is_nondegenerate":
        "perfbench/traced.py wraps it as simson.is_nondegenerate",
}


def _surface():
    """(definitions, references): each definition as (module, qualified
    name, name); the references as the set of names used anywhere."""
    definitions, references = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def collect(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    definitions.append((path.stem, prefix + child.name,
                                        child.name))
                    collect(child, f"{prefix}{child.name}.")
                else:
                    collect(child, prefix)

        collect(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
            elif isinstance(node, ast.alias):
                references.add(node.name.rpartition(".")[2])
    return definitions, references


def _exempt(qualname, name):
    return qualname in simsonpoly.__all__ or \
        (name.startswith("__") and name.endswith("__"))


def test_every_src_definition_has_a_src_caller():
    definitions, references = _surface()
    unused = [f"{module}.{qualname}"
              for module, qualname, name in definitions
              if name not in references and not _exempt(qualname, name)
              and f"{module}.{qualname}" not in KEEP]
    assert unused == [], ("defined in src but referenced by no src code; "
                          "move it to tests/ or give KEEP a reason: "
                          + ", ".join(unused))


def test_keep_entries_are_still_uncalled_definitions():
    # An entry that gained a caller, or lost its definition, is stale.
    definitions, references = _surface()
    uncalled = {f"{module}.{qualname}"
                for module, qualname, name in definitions
                if name not in references}
    assert sorted(set(KEEP) - uncalled) == []
