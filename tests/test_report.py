"""Check-family reports: the verdict rule, the JSON entry, and what the
benchmark's output checks read from a `verify` report."""

import importlib.util
import math
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from geomgen import moved_equidistant, rigid_motion, src_env, \
    sweep_config, verify_in_process
from simsonpoly import EquidistantConfig, make_equidistant
from simsonpoly import equidistant
from simsonpoly.cli import ALL_CHECKS, main
from simsonpoly.report import CheckResult, VerificationReport
from simsonpoly.scene import SceneDocument, _run_checks

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    """perfbench/<name>.py, loaded as the module perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, whose output checks judge `verify` reports."""
    yield from _perfbench("run")


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which draws the benchmark's polygons."""
    yield from _perfbench("workloads")


# ------------------------------------------------------------------- judge

def _numbered(k):
    """Instance k of a list is named (k + 1,)."""
    return (k + 1,)


def _flat_rule(residuals, limit):
    """The verdict on one residual list, stated apart from judge:
    (position, residual, passed, count) of the first NaN, else of the
    first maximum; None for no instances."""
    if not residuals:
        return None
    if any(map(math.isnan, residuals)):
        worst = next(k for k, r in enumerate(residuals) if math.isnan(r))
    else:
        worst = residuals.index(max(residuals))
    residual = residuals[worst]
    return worst, residual, residual <= limit, len(residuals)


def _bits(x):
    return struct.pack("<d", x)


def test_family_entry_reports_its_worst_instance(judged):
    report = VerificationReport()
    pairs = [(1, 2), (1, 3), (2, 3)]
    report.judge("x", [1e-12, 3e-12, 3e-12], pairs.__getitem__, 1e-9)
    [entry] = report.checks
    assert (entry.indices, entry.residual, entry.passed) == ((1, 3), 3e-12,
                                                             True)
    assert entry.count == 3 and entry.limit == 1e-9
    assert judged.rows(report) == {
        "x": [((1, 2), 1e-12), ((1, 3), 3e-12), ((2, 3), 3e-12)]}
    assert entry.to_dict() == {"name": "x", "indices": [1, 3],
                               "residual": 3e-12, "pass": True, "count": 3,
                               "limit": 1e-9, "margin": 1e-9 - 3e-12}


def test_family_fails_when_one_instance_exceeds_the_limit():
    report = VerificationReport()
    report.judge("x", [0.0, 2e-9, 0.0], _numbered, 1e-9, note="n")
    [entry] = report.checks
    assert not entry.passed and not report.overall
    assert entry.indices == (2,)
    assert entry.to_dict()["margin"] == 1e-9 - 2e-9
    assert entry.to_dict()["note"] == "n"


def test_nan_counts_as_worst_and_fails():
    report = VerificationReport()
    report.judge("x", [1.0, math.nan, 0.5], _numbered, 10.0)
    [entry] = report.checks
    assert not entry.passed
    assert entry.indices == (2,) and math.isnan(entry.residual)
    # Strict JSON has no NaN: the report writes it as null.
    d = entry.to_dict()
    assert d["residual"] is None and d["margin"] is None


def test_nan_beats_a_larger_earlier_value():
    report = VerificationReport()
    report.judge("x", [1e300, 2.0, 0.5, math.nan, math.nan], _numbered, 1.0)
    [entry] = report.checks
    assert entry.indices == (4,) and math.isnan(entry.residual)
    assert not entry.passed and entry.count == 5


def test_earliest_of_equal_maxima_is_named():
    report = VerificationReport()
    report.judge("x", [1.0, 3.0, 3.0, 0.0, 2.0, 3.0], _numbered, 5.0)
    [entry] = report.checks
    assert (entry.indices, entry.residual, entry.count) == ((2,), 3.0, 6)


@pytest.mark.parametrize("lists", [
    ([-0.0], [0.0]), ([0.0], [-0.0]), ([-0.0, 0.0], []), ([0.0, -0.0],),
    ([-1.0], [-0.0, 0.0], [0.0]), ([-0.0, 0.0, 0.0, -0.0],),
])
def test_signed_zeros_keep_the_flat_verdict(lists):
    # Each list is a family of one report; an empty one adds no entry.
    report = VerificationReport()
    for k, residuals in enumerate(lists):
        report.judge(f"x{k}", residuals, _numbered, 0.0)
    entries = {entry.name: entry for entry in report.checks}
    assert len(entries) == sum(1 for residuals in lists if residuals)
    for k, residuals in enumerate(lists):
        if not residuals:
            continue
        entry = entries[f"x{k}"]
        worst, residual, passed, count = _flat_rule(residuals, 0.0)
        assert entry.indices == (worst + 1,) and entry.passed == passed
        assert _bits(entry.residual) == _bits(residual)
        assert entry.count == count


def test_empty_family_adds_no_entry():
    report = VerificationReport()
    report.judge("x", [], _numbered, 1.0)
    assert report.checks == [] and report.overall


def test_count_is_the_list_length():
    report = VerificationReport()
    report.judge("x", [0.0] * 11, _numbered, 1.0)
    assert report.checks[0].count == 11


@seed(18)
@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0, math.nan]),
                max_size=24),
       st.floats(allow_nan=False))
def test_judge_matches_the_flat_rule(residuals, limit):
    report = VerificationReport()
    report.judge("x", residuals, _numbered, limit)
    want = _flat_rule(residuals, limit)
    if want is None:
        assert report.checks == []
        return
    worst, residual, passed, count = want
    [entry] = report.checks
    assert (entry.indices, entry.passed, entry.count) == \
        ((worst + 1,), passed, count)
    assert _bits(entry.residual) == _bits(residual)


def test_fixed_verdict_is_a_one_row_entry():
    check = CheckResult("simson", (), 0.25, False, note="why")
    assert check.count == 1
    assert (check.indices, check.residual) == ((), 0.25)
    assert check.to_dict() == {"name": "simson", "indices": [],
                               "residual": 0.25, "pass": False, "count": 1,
                               "note": "why"}


# -------------------------------------------------- reports of the CLI

def _scene(tmp_path, poly):
    scene = SceneDocument()
    scene.add_polygon("polygon", poly)
    path = tmp_path / "scene.json"
    path.write_text(scene.to_json())
    return path


def _verify(tmp_path, poly, *flags):
    """Exit code of ``verify`` and the path of the report it wrote, which
    perfbench's output checks read."""
    out = tmp_path / "report.json"
    return main(["verify", "--in", str(_scene(tmp_path, poly)),
                 "--out", str(out), *flags]), out


def _request(out, n, kind="a"):
    return {"kind": kind, "n": n, "argv": [], "out": str(out), "svg": None,
            "check": "verify"}


@pytest.mark.parametrize("cfg", [
    EquidistantConfig(s=1.0, x0=-3.5, delta=1.0, n=8),
    EquidistantConfig(s=-2.1, x0=1.7, delta=0.3, n=32),
    EquidistantConfig(s=10.0, x0=-3.0, delta=0.5, n=128),
])
def test_benchmark_accepts_recognised_polygon(run, tmp_path, cfg):
    code, out = _verify(tmp_path, moved_equidistant(cfg))
    assert code == 0
    assert run.check_output(_request(out, cfg.n), code) is None


def test_benchmark_classes_search_defect_as_known(run, tmp_path):
    cfg = EquidistantConfig(s=1.0, x0=-64.0, delta=0.5, n=256)
    code, out = _verify(tmp_path, moved_equidistant(cfg))
    assert code == 4
    req = _request(out, cfg.n)
    assert run.check_output(req, code) is not None
    assert run.is_known_defect(req, code, "")


def test_constructed_polygon_with_s_far_from_its_centre_verifies(workloads,
                                                                  tmp_path,
                                                                  capsys):
    # verify-sweep kind c, n = 256, at each (seed, cycle index) below: the
    # candidate S lies half a diameter (6e3 to 7e4) from the polygon's
    # bounding-box centre, and the largest element circle has a radius of
    # about 200 diameters.  Judged at one limit for all elements, bound(
    # max(diameter, |S|)), the worst element read 1.04 to 1.31 times it;
    # judged at its own radius it reads at most 0.031, so the one search,
    # on the centred polygon, finds S.
    for seed, cycle in [(812, 1), (813, 0), (819, 0), (819, 1), (820, 2)]:
        cycles = workloads.verify_sweep(np.random.default_rng(seed),
                                        tmp_path, 3)
        [req] = [r for r in cycles[cycle]
                 if r["kind"] == "c" and r["n"] == 256]
        assert req["argv"][req["argv"].index("--checks") + 1] == \
            "simson,isogonal,lambert"
        assert main(req["argv"]) == 0, (seed, cycle)
        capsys.readouterr()


@pytest.mark.parametrize("seed", [8, 32, 64])
def test_sweep_config_and_rigid_motion_draw_as_verify_sweep(workloads, seed):
    # Tests that draw polygons as verify-sweep does build, from one seed,
    # the vertices and the image of the x-axis that it builds, bit for bit:
    # the repr of a float is the shortest string that reads back as it.
    for n in workloads.SWEEP_NS:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        cfg = sweep_config(ours, n)
        move, x_axis = rigid_motion(float(ours.uniform(0.0, 2.0 * math.pi)),
                                    ours.uniform(-10.0, 10.0, 2).tolist())
        assert repr(cfg) == repr(workloads._draw_config(theirs, n))
        motion = workloads.RigidMotion(theirs)
        vertices = make_equidistant(cfg).vertices
        assert repr([move(v.x, v.y) for v in vertices]) == \
            repr([motion(v.x, v.y) for v in vertices])
        assert repr(x_axis) == repr(motion.x_axis())


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
                code, report = verify_in_process(
                    moved_equidistant(cfg, theta=0.4 * k).vertices,
                    "--checks", ",".join(checks))
                assert code == 0
                counts.add(len(report["checks"]))
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
    code, out = _verify(tmp_path, moved_equidistant(cfg))
    assert code == 0
    assert out.stat().st_size < 100_000
    assert len(calls) <= 3 and set(calls) == {"verify_lambert"}


# ------------------------------------------------------------ memory

def _checks_peak(n):
    """tracemalloc peak, in bytes, of all checks on an equidistant n-gon."""
    poly = make_equidistant(EquidistantConfig(1.3, -2.0, 0.7, n)).polygon()
    tracemalloc.start()
    try:
        report = _run_checks(poly, list(ALL_CHECKS), (1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall
    return peak


def test_all_checks_hold_linear_memory():
    # The pair families hold O(n^2) instances; a report keeps O(n)
    # numbers per family, so doubling n about doubles the peak.
    _checks_peak(8)  # the first call imports the layers it runs
    small, large = _checks_peak(128), _checks_peak(256)
    assert large <= 1 << 20
    assert large <= 2.5 * small


# A child's ru_maxrss includes the resident memory of the process that
# spawned it, here pytest.  So a bare interpreter spawns verify and reads
# its peak with os.wait4, as perfbench/run.py reads it.
LAUNCH = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _verify_maxrss(tmp_path, n):
    """Peak RSS, in KiB, of a `verify` process on a moved n-gon."""
    path = _scene(tmp_path, moved_equidistant(
        EquidistantConfig(s=10.0, x0=-3.0, delta=0.5, n=n)))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, sys.executable, "-m", "simsonpoly",
         "verify", "--in", str(path), "--out", str(tmp_path / "report.json")],
        env=src_env(), capture_output=True, text=True, timeout=60, check=True)
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0
    return maxrss


def test_verify_at_n256_peaks_as_at_n8(tmp_path):
    small = _verify_maxrss(tmp_path, 8)
    large = _verify_maxrss(tmp_path, 256)
    assert large - small <= 1024, (small, large)
