"""README's domain table is the command line's contract for number flags.

Each row of "The domain of each number flag" names one value out of a
flag's domain, its exit code, its message and the layer that raises it.
Every row is run through ``cli.main``, which must give the row's code,
its one ``error:`` line and no ``--out`` file; and the named layer,
called with that value, must raise a ``UsageError`` for code 2 and a
``GeometryError`` for code 3, with the same message.  Every number flag
of the four subcommands must have a row.
"""

from pathlib import Path

import pytest

from simsonpoly import cli
from simsonpoly.approx import ApproxProblem, approx_request, optimal_knots
from simsonpoly.equidistant import EquidistantConfig, make_equidistant
from simsonpoly.kernel import GeometryError, UsageError
from simsonpoly.limits import convergence_table
from simsonpoly.scene import _load_polygon, _parse_triple, \
    parse_feet_spec, parse_line_spec, parse_point_spec, verify_request
from simsonpoly.simson import check_triple, construct_simson_polygon

README = Path(__file__).resolve().parent.parent / "README.md"
SECTION = "### The domain of each number flag"
SCENE = "octagon.json"


def _section() -> list[str]:
    text = README.read_text(encoding="utf-8")
    body = text[text.index(SECTION) + len(SECTION):]
    return body[:body.index("\n#")].splitlines()


def _bases() -> dict[str, list[str]]:
    """Each subcommand's valid request, from the bullets above the table."""
    requests = [line[3:line.index("`", 3)] for line in _section()
                if line.startswith("- `")]
    keys = {"construct --equidistant", "construct --feet", "verify",
            "approx", "limit"}
    return {key: next(r for r in requests if r.startswith(key)).split()
            for key in keys}


def _rows() -> list[dict]:
    rows = []
    for line in _section():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        command, flags, _, value, code, message, owner = cells
        rows.append({"command": command.strip("`"), "flags": flags,
                     "value": value.strip("`").split(), "code": int(code),
                     "message": message.strip("`"),
                     "owner": owner.strip("`")})
    return rows


BASES = _bases()
ROWS = _rows()


def _config(a):
    return EquidistantConfig(a.s, a.x0, a.delta, a.n)


def _problem(a):
    return ApproxProblem(a.s, a.delta, a.a, a.b, a.n)


# The call of each layer the table names, on the parsed request.
LAYERS = {
    "scene.verify_request": verify_request,
    "approx.approx_request": approx_request,
    "EquidistantConfig": _config,
    "make_equidistant": lambda a: make_equidistant(_config(a)),
    "parse_feet_spec": lambda a: parse_feet_spec(a.feet),
    "parse_point_spec": lambda a: parse_point_spec(a.simson_point),
    "construct_simson_polygon": lambda a: construct_simson_polygon(
        parse_point_spec(a.simson_point), parse_line_spec(a.simson_line),
        parse_feet_spec(a.feet)),
    "simson.check_triple": lambda a: check_triple(
        _load_polygon(a).n, _parse_triple(a.triple)),
    "ApproxProblem": _problem,
    "optimal_knots": lambda a: optimal_knots(_problem(a)),
    "convergence_table": lambda a: convergence_table(a.s, a.window, a.m_max),
}


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / SCENE
    assert cli.main(BASES["construct --equidistant"]
                    + ["--out", str(path)]) == 0
    return str(path)


def _argv(row, scene):
    argv = BASES[row["command"]] + row["value"]
    return [scene if token == SCENE else token for token in argv]


def test_the_table_is_read():
    assert len(ROWS) >= 30
    assert all(row["code"] in (2, 3) for row in ROWS)
    assert {row["owner"] for row in ROWS} == set(LAYERS) | {"cli._parse"}


def test_every_number_flag_has_a_row():
    covered = {(row["command"].split()[0], token.strip("`,"))
               for row in ROWS for token in row["flags"].split()
               if token.strip("`").startswith("--")}
    wanted = {(name, flag.name) for name, (_, _, flags) in cli.COMMANDS.items()
              for flag in flags if flag.type in (float, int)}
    wanted |= {("construct", "--feet"), ("verify", "--triple"),
               ("approx", "--perturb-knot")}
    assert wanted - covered == set()


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(
    [row["command"].split()[0], *row["value"]]))
def test_row_exits_with_its_code_and_message(capsys, tmp_path, scene, row):
    out = tmp_path / "out.json"
    code = cli.main(_argv(row, scene) + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (row["code"], "")
    assert captured.err == f"error: {row['message']}\n"
    assert not out.exists()


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(
    [row["command"].split()[0], *row["value"]]))
def test_row_is_raised_by_its_layer(scene, row):
    error = UsageError if row["code"] == 2 else GeometryError
    argv = _argv(row, scene)
    with pytest.raises(error) as raised:
        if row["owner"] == "cli._parse":
            cli._parse(argv)
        else:
            LAYERS[row["owner"]](cli._parse(argv)[1])
    assert str(raised.value) == row["message"]
