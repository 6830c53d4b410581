"""``src`` defines only what ``src`` itself uses, or the public API.

Every function, class and method defined in ``src/simsonpoly`` must be
referenced somewhere in ``src``: as a name, as an attribute or in an
import.  Docstrings and comments do not count, and a test or the
benchmark calling a definition does not either.  Exempt are the names in
``simsonpoly.__all__``, dunder methods, and the entries of KEEP, each
with the reason it stays.  Test-only helpers and oracles belong in
``tests/``.

A name that more than one definition shares is not resolved by the name
alone, since a call of one would count for all.  Each such definition
must be reached as its own: a method as ``self.NAME`` in its class or as
``ClassName.NAME``, a module function by name in its own module or by an
import from that module, or else through an entry of CALLERS, which
names the ``src`` module whose attribute call reaches it.
"""

import ast
from collections import Counter
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


# "module.Qualified.name" of a shared name -> (the src module that calls
# it as an attribute of a value, and that call).
CALLERS = {
    "kernel.Point.dot": ("kernel", "angle_between_rays: u.dot(v)"),
    "kernel.Point.distance": ("kernel", "Circle.distance: "
                              "p.distance(self.center)"),
    "kernel.Line.distance": ("simson", "is_simson_point: "
                             "fit.distance(q) over the pedal feet"),
    "kernel.Circle.distance": ("equidistant", "verify_lambert: "
                               "circle.distance(poly.simson_point)"),
    "equidistant.SimsonPolygonFrame.n": ("equidistant", "verify_isogonal: "
                                         "n = poly.n"),
    "svgfig.SvgCanvas.dot": ("svgfig", "scene_to_svg and approx_figure: "
                             "canvas.dot(p, ...)"),
    "report.CheckResult.to_dict": ("report", "VerificationReport.to_dict: "
                                   "c.to_dict() for each check"),
    "report.VerificationReport.to_dict": ("cli", "cmd_verify: "
                                          "report.to_dict()"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(trees):
    """Each definition as (module, qualified name, name, the class node
    it is a method of or None)."""
    found = []

    def collect(module, node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((module, prefix + child.name, child.name, cls))
                collect(module, child, f"{prefix}{child.name}.",
                        child if isinstance(child, ast.ClassDef) else None)
            else:
                collect(module, child, prefix, cls)

    for module, tree in trees.items():
        collect(module, tree, "", None)
    return found


def _surface():
    """(definitions, references): each definition as (module, qualified
    name, name); the references as the set of names used anywhere."""
    trees = _trees()
    references = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
            elif isinstance(node, ast.alias):
                references.add(node.name.rpartition(".")[2])
    definitions = [(module, qualname, name)
                   for module, qualname, name, _ in _definitions(trees)]
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


def _shared_definitions(trees):
    """The definitions of _definitions whose name another one shares,
    outside the exemptions."""
    found = _definitions(trees)
    counts = Counter(name for _, _, name, _ in found)
    return [d for d in found if counts[d[2]] > 1
            and not _exempt(d[1], d[2]) and f"{d[0]}.{d[1]}" not in KEEP]


def _attribute_uses(node, name):
    """The receivers, as names, of every ``X.name`` under node."""
    return {sub.value.id for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == name
            and isinstance(sub.value, ast.Name)}


def _reached_as_own(trees, module, qualname, name, cls):
    if cls is not None:
        if "self" in _attribute_uses(cls, name):
            return True
        return any(cls.name in _attribute_uses(tree, name)
                   for tree in trees.values())
    own = any(isinstance(node, ast.Name) and node.id == name
              for node in ast.walk(trees[module]))
    imported = any(
        isinstance(node, ast.ImportFrom) and node.module
        and node.module.rpartition(".")[2] == module
        and any(alias.name == name for alias in node.names)
        for tree in trees.values() for node in ast.walk(tree))
    return own or imported


def test_every_shared_name_definition_is_reached_as_its_own():
    trees = _trees()
    unreached = [f"{module}.{qualname}"
                 for module, qualname, name, cls in _shared_definitions(trees)
                 if not _reached_as_own(trees, module, qualname, name, cls)
                 and f"{module}.{qualname}" not in CALLERS]
    assert unreached == [], (
        "a name other definitions share, with no call of this definition "
        "in src; call it, move it to tests/, or give CALLERS its caller: "
        + ", ".join(unreached))


def test_callers_entries_name_a_src_call():
    # An entry must be needed, and its module must still make the call.
    trees = _trees()
    needed = {f"{module}.{qualname}"
              for module, qualname, name, cls in _shared_definitions(trees)
              if not _reached_as_own(trees, module, qualname, name, cls)}
    assert sorted(set(CALLERS) - needed) == []
    for qualname, (module, _) in CALLERS.items():
        name = qualname.rpartition(".")[2]
        receivers = _attribute_uses(trees[module], name)
        assert receivers - {"self"}, f"{module} makes no .{name} call"
