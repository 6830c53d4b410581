"""``tools/replay.py`` pairs the entries of two verify reports by name.

A report lists each check once under its name, so two reports that hold
the same entries in another order differ in no verdict; a flipped
``pass`` and an entry that one side lacks do.  Every document it reads
is parsed as strict JSON, so ``NaN`` and ``Infinity`` are refused; only
the new tree's loose files count against the change.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

from geomgen import verify_in_process
from simsonpoly import EquidistantConfig, make_equidistant

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay.py"


def _load_replay():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = _load_replay()


@pytest.fixture(scope="module")
def report():
    code, data = verify_in_process(
        make_equidistant(EquidistantConfig(1.0, 0.0, 1.0, 8)).vertices)
    assert code == 0 and len(data["checks"]) >= 3
    return data


def test_reordered_entries_differ_in_nothing(report):
    permuted = copy.deepcopy(report)
    permuted["checks"].reverse()
    assert permuted["checks"] != report["checks"]
    assert replay._report_changes(report, permuted) == ([], False)


def test_a_flipped_pass_is_a_verdict(report):
    flipped = copy.deepcopy(report)
    flipped["checks"].reverse()
    entry = flipped["checks"][0]
    entry["pass"] = not entry["pass"]
    lines, verdict = replay._report_changes(report, flipped)
    assert verdict
    assert lines == [f"entry {entry['name']!r}: pass {not entry['pass']!r} "
                     f"-> {entry['pass']!r}"]


def test_an_entry_on_one_side_only_is_a_verdict(report):
    shorter = copy.deepcopy(report)
    dropped = shorter["checks"].pop(1)
    assert replay._report_changes(report, shorter) == (
        [f"entry {dropped['name']!r}: present -> missing"], True)
    assert replay._report_changes(shorter, report) == (
        [f"entry {dropped['name']!r}: missing -> present"], True)


@pytest.mark.parametrize("text", [b'{"residual": Infinity}',
                                  b'{"rows": [-Infinity]}', b'[NaN]'],
                         ids=["Infinity", "-Infinity", "NaN"])
def test_a_document_holding_a_non_finite_number_is_not_strict_json(text):
    with pytest.raises(ValueError, match="is not JSON"):
        replay._strict_json(text)


def test_only_the_new_trees_loose_file_counts(capsys):
    where = "limit-refine seed 1 request 3"
    assert replay._documents(where, b'[NaN]', b'[1.0]') == ([None, [1.0]],
                                                           False)
    assert capsys.readouterr().out == (
        f"{where}: the old tree's --out is not strict JSON: NaN is not JSON\n")
    assert replay._documents(where, b'[1.0]', b'[Infinity]') == (
        [[1.0], None], True)
    assert "the new tree's --out" in capsys.readouterr().out
    assert replay._documents(where, None, None) == ([None, None], False)
    assert capsys.readouterr().out == ""
