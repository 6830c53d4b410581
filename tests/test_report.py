"""Check-family reports: the verdict rule, the JSON entry, and what the
benchmark's output checks read from a `verify` report."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from simsonpoly import EquidistantConfig, Point, Polygon, make_equidistant
from simsonpoly import equidistant
from simsonpoly.cli import ALL_CHECKS, main
from simsonpoly.report import CheckResult, VerificationReport
from simsonpoly.scene import SceneDocument

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, whose output checks judge `verify` reports."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


# ------------------------------------------------------------------- judge

def test_family_entry_reports_its_worst_instance():
    report = VerificationReport()
    report.judge("x", [(1, 2), (1, 3), (2, 3)], [1e-12, 3e-12, 3e-12], 1e-9)
    [entry] = report.checks
    assert (entry.indices, entry.residual, entry.passed) == ((1, 3), 3e-12,
                                                             True)
    assert entry.count == 3 and entry.limit == 1e-9
    assert entry.rows() == [((1, 2), 1e-12), ((1, 3), 3e-12), ((2, 3), 3e-12)]
    assert entry.to_dict() == {"name": "x", "indices": [1, 3],
                               "residual": 3e-12, "pass": True, "count": 3,
                               "limit": 1e-9, "margin": 1e-9 - 3e-12}


def test_family_fails_when_one_instance_exceeds_the_limit():
    report = VerificationReport()
    report.judge("x", [(1,), (2,), (3,)], [0.0, 2e-9, 0.0], 1e-9, note="n")
    [entry] = report.checks
    assert not entry.passed and not report.overall
    assert entry.indices == (2,)
    assert entry.to_dict()["margin"] == 1e-9 - 2e-9
    assert entry.to_dict()["note"] == "n"


def test_nan_counts_as_worst_and_fails():
    report = VerificationReport()
    report.judge("x", [(1,), (2,), (3,)], [1.0, math.nan, 0.5], 10.0)
    [entry] = report.checks
    assert not entry.passed
    assert entry.indices == (2,) and math.isnan(entry.residual)
    assert math.isnan(entry.to_dict()["margin"])


def test_empty_family_adds_no_entry():
    report = VerificationReport()
    report.judge("x", [], [], 1.0)
    assert report.checks == [] and report.overall


def test_fixed_verdict_is_a_one_row_entry():
    check = CheckResult("simson", (), 0.25, False, note="why")
    assert check.count == 1 and check.rows() == [((), 0.25)]
    assert check.to_dict() == {"name": "simson", "indices": [],
                               "residual": 0.25, "pass": False, "count": 1,
                               "note": "why"}


# -------------------------------------------------- reports of the CLI

def _moved(cfg, theta=0.7, shift=(3.0, -2.0)):
    c, s = math.cos(theta), math.sin(theta)
    return Polygon(tuple(Point(c * v.x - s * v.y + shift[0],
                               s * v.x + c * v.y + shift[1])
                         for v in make_equidistant(cfg).vertices))


def _verify(tmp_path, poly, *flags):
    scene = SceneDocument()
    scene.add_polygon("polygon", poly)
    path = tmp_path / "scene.json"
    path.write_text(scene.to_json())
    out = tmp_path / "report.json"
    code = main(["verify", "--in", str(path), "--out", str(out), *flags])
    return code, out


def _request(out, n, kind="a"):
    return {"kind": kind, "n": n, "argv": [], "out": str(out), "svg": None,
            "check": "verify"}


@pytest.mark.parametrize("cfg", [
    EquidistantConfig(s=1.0, x0=-3.5, delta=1.0, n=8),
    EquidistantConfig(s=-2.1, x0=1.7, delta=0.3, n=32),
    EquidistantConfig(s=10.0, x0=-3.0, delta=0.5, n=128),
])
def test_benchmark_accepts_recognised_polygon(run, tmp_path, cfg):
    code, out = _verify(tmp_path, _moved(cfg))
    assert code == 0
    assert run.check_output(_request(out, cfg.n), code) is None


def test_benchmark_classes_search_defect_as_known(run, tmp_path):
    cfg = EquidistantConfig(s=1.0, x0=-64.0, delta=0.5, n=256)
    code, out = _verify(tmp_path, _moved(cfg))
    assert code == 4
    req = _request(out, cfg.n)
    assert run.check_output(req, code) is not None
    assert run.is_known_defect(req, code, "")


def test_entry_count_depends_on_checks_and_n_only(tmp_path):
    subsets = [list(ALL_CHECKS), ["simson"], ["isogonal", "archimedes"],
               ["parallel-chords", "optical", "lambert"]]
    for n in (8, 32):
        cfgs = [EquidistantConfig(s=1.0, x0=-3.5, delta=1.0, n=n),
                EquidistantConfig(s=-0.6, x0=2.2, delta=0.7, n=n),
                EquidistantConfig(s=2.5, x0=0.0, delta=1.3, n=n)]
        for checks in subsets:
            counts = set()
            for k, cfg in enumerate(cfgs):
                code, out = _verify(tmp_path, _moved(cfg, theta=0.4 * k),
                                    "--checks", ",".join(checks))
                assert code == 0
                counts.add(len(json.loads(out.read_text())["checks"]))
            assert len(counts) == 1, (n, checks, counts)


def test_all_checks_at_n256_are_small_and_pair_free(tmp_path, monkeypatch):
    # One report entry per family, and no per-pair line meets outside the
    # lambert triangle.
    calls = []
    real = equidistant.line_intersection

    def counted(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(equidistant, "line_intersection", counted)
    cfg = EquidistantConfig(s=10.0, x0=-3.0, delta=0.5, n=256)
    code, out = _verify(tmp_path, _moved(cfg))
    assert code == 0
    assert out.stat().st_size < 100_000
    assert len(calls) <= 3 and set(calls) == {"verify_lambert"}
