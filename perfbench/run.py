"""End-to-end benchmark of the simsonpoly CLI, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the parent of this file's directory.  The package under
``src`` runs as ``python -m simsonpoly`` with ``src`` on PYTHONPATH, so
interpreter start-up, the numpy import and writing the JSON/SVG output
all count.  Inputs come from ``workloads.py`` (seeded, built with the
package's own constructors); the CLI only sees scene files and argv.

Load is a closed loop with one client: the next request is spawned only
after the previous child has exited, so at most one child runs at a
time.  Requests are issued in whole cycles (one cycle holds every kind
of request the workload has, in a fixed mix).  Each workload runs a
fixed number of cycles, so two commits see the same requests, the same
sample count and the same tail percentile; ``--seconds`` only caps a run
that has become much slower (no new cycle starts once that much time,
at reference speed, has been measured).  Each output is checked after
its child exits; checking time is not measured.

A 2-core VM on a shared host was measured changing speed by up to 40%
within minutes, with every request slowing alike.  So before each child
the benchmark times a fixed pure-Python loop in its own process, and
reports every timing at reference speed: the raw timing times the
nominal loop time over the run's median loop time.  A millisecond
figure is what the request takes on a machine where the loop takes
``REF_NOMINAL_MS``; the raw figures and the scale are printed too.  The
program cannot change the loop, so the scale follows the machine and
not the code.

``latency_p50_ms`` is the Harrell-Davis estimate of the median:
verify-sweep's plain median falls between its n=32 and n=128 requests
and would be set by the two samples either side of that gap.
``latency_tail_ms`` is the highest percentile with at least 10 samples
beyond it, estimated the same way; the output names the percentile and
the sample count.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first cycles of the workload once untraced and twice through
``traced.py``, which wraps the library's layer functions from outside,
and prints per-layer metrics: ``*.ms`` and ``*.self_ms`` are per request
(mean over the traced requests), counts and bytes are totals per traced
pass, and the ``.nN`` slice is per request at that n.  The two traced
passes must agree exactly on every count, or the run fails.

The final stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts requests whose exit code
or output disagrees with what the mathematics predicts (it is the
numerator of ``error_rate``).  Two such disagreements are known defects
of the Simson search's tolerance handling and are tolerated:

* a valid Simson polygon (kind a or c) that ``verify`` rejects with
  exit 4 because the characterization circles have "no common
  intersection";
* a negative control (kind b) that the degeneracy precheck of the
  search rejects with exit 3, "three vertices are collinear".  A random
  perturbation of a nondegenerate polygon is nondegenerate with
  probability 1, but at n=256 three far-out vertices can land within
  the tolerance of one line.

Any other failed output check, a crash (an exit code outside the CLI
contract, a traceback or a timeout) included, makes ``correct`` false
and the exit code 1.  A failed trace self-check, or a missing source
tree, ends the run with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("verify-sweep", "cli-small", "limit-refine")

SETUP_ROUNDS = 3
# The reference loop: REF_LOOP iterations take about REF_NOMINAL_MS on a
# 2-core Xeon when the host is quiet.
REF_LOOP = 300_000
REF_NOMINAL_MS = 30.0
# Cycles in a timed run, sized so that 22 runs of each workload take
# about 30 minutes on a 2-core Xeon and under 57 on a host half as fast.
# At reference speed the verify-sweep cycle takes ~10 s, the
# limit-refine cycle ~5 s and the cli-small cycle ~1.7 s.
MEASURE_CYCLES = {"verify-sweep": 3, "cli-small": 10, "limit-refine": 4}
# Cycles in a traced pass.  verify-sweep takes two so the n-slice still
# has a recognised n=256 polygon when one draw hits the search defect.
TRACE_CYCLES = {"verify-sweep": 2, "cli-small": 2, "limit-refine": 1}
REQUEST_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
CLI_EXIT_CODES = (0, 2, 3, 4)
KNOWN_DEFECT_NOTE = "no common intersection of characterization circles"
KNOWN_DEGENERATE_ERROR = ("error: find_simson_point: three vertices are "
                          "collinear")
# Checks in one all-checks report of a recognised equidistant n-gon
# (ROADMAP baseline table).
BASELINE_CHECKS = {8: 65, 32: 893, 128: 12845, 256: 50285}
SLICE_NS = tuple(BASELINE_CHECKS)

perf = time.perf_counter


def reference_s() -> float:
    """Time the fixed pure-Python reference loop once, in seconds."""
    t0 = perf()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return perf() - t0


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass
class Outcome:
    latency_s: float
    exit_code: int
    rss_mb: float
    failure: str | None
    known_defect: bool = False


@dataclass
class Runner:
    """Spawns one child at a time and checks what it wrote."""

    env: dict
    # Crashes and failed output checks other than the known defects.
    wrong: list[str] = field(default_factory=list)
    # Time spent checking outputs and in the reference loop, which no
    # timing includes.
    overhead_s: float = 0.0
    reference: list[float] = field(default_factory=list)

    def speed(self) -> float:
        """Scale from raw timings to timings at reference speed."""
        return REF_NOMINAL_MS / (statistics.median(self.reference) * 1e3)

    def spawn(self, argv: list[str], stderr_path: Path
              ) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit code, max RSS MB)."""
        ref = reference_s()
        self.reference.append(ref)
        self.overhead_s += ref
        with open(stderr_path, "wb") as err:
            t0 = perf()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = perf()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t1 - t0, proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, req: dict, prefix: list[str] | None = None) -> Outcome:
        """Run a request; prefix launches the CLI (python -m simsonpoly)."""
        for key in ("out", "svg"):
            if req[key]:
                Path(req[key]).unlink(missing_ok=True)
        argv = prefix or [sys.executable, "-m", "simsonpoly"]
        stderr_path = WORK / "stderr.txt"
        latency, code, rss = self.spawn(argv + req["argv"], stderr_path)
        t0 = perf()
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if code not in CLI_EXIT_CODES or "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1:] or [""]
            failure = f"crash (exit {code}) {last[0][:200]}"
        else:
            failure = check_output(req, code)
        known = bool(failure) and is_known_defect(req, code, stderr)
        if failure and not known:
            self.wrong.append(f"kind {req['kind']} n={req['n']}: {failure}")
        self.overhead_s += perf() - t0
        return Outcome(latency, code, rss, failure, known)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verify_failure(req: dict, code: int) -> str | None:
    if req["check"] == "negative":
        return None if code == 4 else f"exit {code}, expected 4"
    if code not in (0, 4):
        return f"exit {code}, expected 0"
    doc = _load(req["out"])
    simson = [c for c in doc["checks"] if c["name"] == "simson"]
    if code == 0 and doc["overall"] is True and simson \
            and all(c["pass"] for c in simson):
        return None
    detail = "; ".join(f"{c.get('note') or 'failed'} "
                       f"(residual {c['residual']:.3g})" for c in simson)
    return f"exit {code}, expected 0: {detail or 'no simson check'}"


def _construct_failure(req: dict) -> str | None:
    polys = [e for e in _load(req["out"])["entities"]
             if e["type"] == "polygon"]
    if len(polys) != 1:
        return f"{len(polys)} polygon entities"
    verts = polys[0]["vertices"]
    if len(verts) != req["n"] or not all(
            math.isfinite(t) for v in verts for t in v):
        return f"polygon has {len(verts)} vertices or a non-finite one"
    if os.path.getsize(req["svg"]) == 0:
        return "empty SVG"
    return None


def _approx_failure(req: dict) -> str | None:
    doc = _load(req["out"])
    q = doc["quadrature"]
    worst = max(q["l1_relative_difference"], q["l2_relative_difference"])
    if worst > 1e-9:
        return f"quadrature relative difference {worst:.3g} > 1e-9"
    if not doc["perturb_knot"]["objective_delta"] > 0.0:
        return "perturbed knot does not raise the objective"
    return None


def _limit_failure(req: dict) -> str | None:
    doc = _load(req["out"])
    if doc.get("order_ok") is not True:
        return "order_ok is not true"
    worst = max(abs(r["hausdorff"] / r["bound"] - 1.0) for r in doc["rows"])
    if worst > 1e-6:
        return f"hausdorff/bound off 1 by {worst:.3g}"
    return None


def is_known_defect(req: dict, code: int, stderr: str) -> bool:
    """A failure that is one of the two known defects (module docstring)."""
    if req["kind"] == "b" and req["check"] == "negative":
        return code == 3 and \
            stderr.strip().splitlines()[-1:] == [KNOWN_DEGENERATE_ERROR]
    if req["kind"] not in ("a", "c") or req["check"] != "verify" \
            or code != 4:
        return False
    try:
        simson = [c for c in _load(req["out"])["checks"]
                  if c["name"] == "simson"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return bool(simson) and all(c.get("note") == KNOWN_DEFECT_NOTE
                                for c in simson)


def check_output(req: dict, code: int) -> str | None:
    """Why the request's outcome disagrees with the expected one, or None."""
    try:
        if req["check"] in ("verify", "negative"):
            return _verify_failure(req, code)
        if code != 0:
            return f"exit {code}, expected 0"
        return {"construct": _construct_failure, "approx": _approx_failure,
                "limit": _limit_failure}[req["check"]](req)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


# ------------------------------------------------------------------ set-up

def setup(runner: Runner, workload: str, seed: int, cycles: int,
          rounds: int) -> tuple[dict, float]:
    """Build `cycles` cycles of inputs and warm up, `rounds` times.

    Returns the manifest and the median raw time of a round.
    """
    times = []
    for _ in range(rounds):
        inputs = WORK / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        t0, overhead0 = perf(), runner.overhead_s
        _, code, _ = runner.spawn(
            [sys.executable, str(HERE / "workloads.py"), "--workload",
             workload, "--seed", str(seed), "--cycles", str(cycles),
             "--dir", str(inputs)],
            WORK / "setup-stderr.txt")
        if code != 0:
            err = (WORK / "setup-stderr.txt").read_text(errors="replace")
            raise BenchError(f"input generation failed (exit {code}):\n{err}")
        manifest = _load(str(inputs / "manifest.json"))
        for req in manifest["warmup"]:
            runner.run(req)
        times.append(perf() - t0 - (runner.overhead_s - overhead0))
    return manifest, statistics.median(times)


# --------------------------------------------------------------- untraced

def harrell_davis(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics
    (Harrell & Davis 1982).  Near a sparse tail, or a gap between two
    groups of requests, a single order statistic is one noisy sample;
    this estimate averages its neighbours.
    """
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(t)
                        + (b - 1.0) * math.log1p(-t))

    steps = 16  # Simpson sub-intervals per order statistic
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4.0 if j % 2 else 2.0) * pdf(lo + j * h)
                    for j in range(1, steps))
        weights.append(h / 3.0 * (pdf(lo) + inner + pdf(lo + steps * h)))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (Harrell-Davis estimate at that percentile, percentile).
    With TAIL_BEYOND samples or fewer it is the maximum.
    """
    ordered = sorted(lat)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = (n - TAIL_BEYOND) / n
    return harrell_davis(ordered, q), 100.0 * q


def measure(runner: Runner, cycles: list[list[dict]], cap_s: float
            ) -> tuple[list[tuple[dict, Outcome]], float, int]:
    """Closed loop, one client: each cycle once, none started past cap_s.

    cap_s is time at reference speed, so a slow host does not cut a run.

    Returns the requests done, the seconds measured and the cycles run.
    """
    done: list[tuple[dict, Outcome]] = []
    t0 = perf()
    overhead0 = runner.overhead_s
    measured = 0.0
    ran = 0
    for cycle in cycles:
        if measured * runner.speed() >= cap_s:
            break
        for req in cycle:
            done.append((req, runner.run(req)))
        ran += 1
        measured = perf() - t0 - (runner.overhead_s - overhead0)
    return done, measured, ran


def report_failures(done: list[tuple[dict, Outcome]]) -> int:
    failed = [(r, o) for r, o in done if o.failure]
    known = sum(o.known_defect for _, o in failed)
    print(f"error_rate: {len(failed) / len(done):.6g} "
          f"({len(failed)} of {len(done)} requests; {known} of them known "
          f"search defects)")
    for req, out in failed[:20]:
        print(f"  failed: kind {req['kind']} n={req['n']}: {out.failure}")
    return len(failed)


def end_to_end(runner: Runner, manifest: dict, setup_s: float,
               seconds: float) -> tuple[dict, int, int]:
    cycles = manifest["cycles"]
    done, measured, ran = measure(runner, cycles, seconds)
    lat = [o.latency_s for _, o in done]
    tail, pct = tail_latency(lat)
    failed = report_failures(done)
    groups = defaultdict(list)
    for req, out in done:
        groups[(req["kind"], req["n"])].append(out.latency_s * 1e3)
    print("median latency ms by kind and n: " + ", ".join(
        f"{k}/{n} {statistics.median(v):.1f}"
        for (k, n), v in sorted(groups.items(), key=lambda kv: kv[0][1])))
    print(f"measured {measured:.3f} s, {len(done)} requests "
          f"({ran} of {len(cycles)} cycles)")
    if ran < len(cycles):
        print(f"warning: the {seconds:g} s cap (at reference speed) stopped "
              f"the run early; the sample count and tail percentile differ "
              f"from a full run")
    print(f"latency_tail_ms is p{pct:.4g} of {len(lat)} samples "
          f"({min(TAIL_BEYOND, len(lat) - 1)} beyond), Harrell-Davis estimate")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / measured, "1/s"),
        "latency_p50_ms": (harrell_davis(sorted(lat), 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (max(o.rss_mb for _, o in done), "MB"),
        "success_rate": (1.0 - failed / len(done), "ratio"),
    }
    return metrics, len(done), failed


# ------------------------------------------------------------------ traced

TIMED = ("scene.from_json", "scene.to_json", "svgfig.scene_to_svg",
         "svgfig.approx_figure", "approx.optimal_knots", "approx.quadrature",
         "approx.total_error_objective", "simson.is_nondegenerate",
         "simson.is_simson_point", "simson.characterization_defect",
         "simson.construct_simson_polygon", "equidistant.make_equidistant",
         "equidistant.frame", "equidistant.verify_parallel_chords",
         "equidistant.verify_isogonal", "equidistant.verify_optical",
         "equidistant.verify_archimedes", "equidistant.verify_lambert",
         "report.to_dict", "limits.convergence_table",
         "limits.chain_for_window", "limits.point_to_parabola_distance")
SELF_TIMED = ("cli.main", "simson.find_simson_point",
              "limits.hausdorff_chain_parabola")
KERNEL = ("line_through", "line_intersection", "circumcircle",
          "foot_of_perpendicular", "best_fit_line")
VERIFY_ALL = ("equidistant.frame", "equidistant.verify_parallel_chords",
              "equidistant.verify_isogonal", "equidistant.verify_optical",
              "equidistant.verify_archimedes", "equidistant.verify_lambert")


@dataclass
class TracedPass:
    wall_s: float = 0.0
    incl_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    # n -> [(find_simson_point ms, verify_all ms, checks)] for kind (a)
    # requests that exited 0.
    by_n: dict = field(default_factory=lambda: defaultdict(list))

    def add(self, req: dict, out: Outcome, trace: dict,
            output_checks: int | None) -> None:
        self.wall_s += out.latency_s
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        checks = 0
        for (name, start, end, _, attrs), inner in zip(spans, child_s):
            self.incl_s[name] += end - start
            self.self_s[name] += end - start - inner
            self.calls[name] += 1
            # A span whose function raised (a search that finds the
            # polygon degenerate, say) has no attributes.
            attrs = attrs or {}
            if name.startswith("svgfig."):
                self.counts["svgfig.bytes"] += attrs.get("bytes", 0)
            elif name == "report.to_dict":
                checks += attrs.get("checks", 0)
            elif name == "simson.find_simson_point":
                self.counts["search.hits"] += attrs.get("hit", False)
        self.counts["report.checks"] += checks
        for name, value in trace["counts"].items():
            self.counts[name] += value
        self.incl_s["cli.import_numpy"] += trace["import_numpy_ms"] / 1e3
        self.incl_s["cli.import_simsonpoly"] += \
            trace["import_simsonpoly_ms"] / 1e3
        if req["check"] in ("verify", "negative") and out.exit_code in (0, 4):
            self.counts["report.bytes"] += os.path.getsize(req["out"])
            if output_checks != checks:
                raise BenchError(
                    f"trace counted {checks} checks, the report holds "
                    f"{output_checks} (kind {req['kind']} n={req['n']})")
        if req["kind"] == "a" and req["check"] == "verify" \
                and out.exit_code == 0:
            by_name = defaultdict(float)
            for name, start, end, _, _ in spans:
                by_name[name] += end - start
            self.by_n[req["n"]].append((
                by_name["simson.find_simson_point"] * 1e3,
                sum(by_name[k] for k in VERIFY_ALL) * 1e3, checks))

    def exact(self) -> dict:
        """Everything that must repeat exactly between traced passes."""
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "slice_checks": {n: [c for _, _, c in rows]
                                 for n, rows in self.by_n.items()}}


def traced_request(runner: Runner, req: dict, label: str,
                   result: TracedPass) -> Outcome:
    trace_file = WORK / f"trace-{label}.json"
    trace_file.unlink(missing_ok=True)
    prefix = [sys.executable, str(HERE / "traced.py"), str(trace_file),
              label, "--"]
    out = runner.run(req, prefix)
    if out.failure and out.failure.startswith("crash"):
        return out
    output_checks = None
    if req["check"] in ("verify", "negative") and out.exit_code in (0, 4):
        output_checks = len(_load(req["out"])["checks"])
    result.add(req, out, _load(str(trace_file)), output_checks)
    return out


def per_layer(runner: Runner, manifest: dict) -> tuple[dict, int, int]:
    reqs = [r for c in manifest["cycles"] for r in c]
    # Untraced and traced runs of a request are adjacent, so drift in
    # machine speed cancels out of trace.overhead_ms.
    passes = [TracedPass(), TracedPass()]
    done = []
    untraced_wall = 0.0
    for i, req in enumerate(reqs):
        out = runner.run(req)
        untraced_wall += out.latency_s
        done.append((req, out))
        for p, traced in enumerate(passes):
            done.append((req, traced_request(runner, req, f"t{p}-{i}",
                                             traced)))
    if passes[0].exact() != passes[1].exact():
        raise BenchError("two traced passes on one seed gave different "
                         "call, byte or check counts")
    first = passes[0]
    per_req = len(reqs)

    def mean_ms(counter_name: str, name: str) -> float:
        return statistics.fmean(getattr(p, counter_name)[name]
                                for p in passes) * 1e3 / per_req

    metrics = {
        "cli.import_numpy_ms": (mean_ms("incl_s", "cli.import_numpy"), "ms"),
        "cli.import_simsonpoly_ms":
            (mean_ms("incl_s", "cli.import_simsonpoly"), "ms"),
    }
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = (mean_ms("self_s", name), "ms")
    for name in TIMED:
        metrics[f"{name}.ms"] = (mean_ms("incl_s", name), "ms")
    searches = first.calls["simson.find_simson_point"]
    hits = first.counts["search.hits"]
    metrics["simson.search_hit_ratio"] = (hits / searches if searches
                                          else 0.0, "ratio")
    metrics["limits.point_to_parabola_distance.calls"] = (
        first.calls["limits.point_to_parabola_distance"], "count")
    for fn in KERNEL:
        metrics[f"kernel.{fn}.calls"] = (first.counts[f"kernel.{fn}"],
                                         "count")
    for name, unit in (("report.checks", "count"), ("report.bytes", "bytes"),
                       ("svgfig.bytes", "bytes")):
        metrics[name] = (first.counts[name], unit)
    traced_wall = statistics.fmean(p.wall_s for p in passes)
    metrics["trace.overhead_ms"] = (
        (traced_wall - untraced_wall) * 1e3 / per_req, "ms")

    print(f"traced {per_req} requests x 2 passes; untraced wall "
          f"{untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    print(f"simson.search_hit_ratio base: {hits} certificates of "
          f"{searches} searches")
    table = ["complexity slice (kind a, recognised polygons; ms per request):",
             "  n    find_simson_point  verify_all  search+verify  checks  "
             "baseline checks"]
    for n in SLICE_NS:
        rows = [r for p in passes for r in p.by_n.get(n, [])]
        find_ms = statistics.fmean(r[0] for r in rows) if rows else 0.0
        verify_ms = statistics.fmean(r[1] for r in rows) if rows else 0.0
        checks = first.by_n[n][0][2] if first.by_n.get(n) else 0
        if any(r[2] != checks for r in rows):
            raise BenchError(f"check count at n={n} varies between "
                             f"requests: {sorted({r[2] for r in rows})}")
        metrics[f"simson.find_simson_point.ms.n{n}"] = (find_ms, "ms")
        metrics[f"equidistant.verify_all.ms.n{n}"] = (verify_ms, "ms")
        metrics[f"report.checks.n{n}"] = (checks, "count")
        match = ("no recognised request" if not rows else
                 "matches" if checks == BASELINE_CHECKS[n] else
                 f"DIFFERS from {BASELINE_CHECKS[n]}")
        table.append(f"  {n:<4} {find_ms:17.3f}  {verify_ms:10.3f}  "
                     f"{find_ms + verify_ms:13.3f}  {checks:6d}  {match}")
    if any(first.by_n.values()):
        print("\n".join(table))
    failed = report_failures(done)
    return metrics, len(done), failed


# -------------------------------------------------------------------- main

# Power of the speed scale that puts a metric of this unit at reference
# speed.
TIME_SCALE = {"s": 1, "ms": 1, "1/s": -1}


def machine_line() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, nproc "
            f"{len(os.sched_getaffinity(0))}, cpu {cpu}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "simsonpoly" / "__init__.py").is_file():
        print(f"error: no simsonpoly sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    runner = Runner(env)
    try:
        # setup_s is an end-to-end metric only; a traced run sets up once.
        cycles = (TRACE_CYCLES if args.trace else MEASURE_CYCLES)[
            args.workload]
        rounds = 1 if args.trace else SETUP_ROUNDS
        manifest, setup_s = setup(runner, args.workload, args.seed, cycles,
                                  rounds)
        print(f"machine: {machine_line()}, numpy {manifest['numpy']}")
        print(f"workload {args.workload}, seed {args.seed}: closed loop, "
              f"1 client; set-up median of {rounds}: {setup_s:.4f} s")
        if args.trace:
            metrics, attempted, failed = per_layer(runner, manifest)
        else:
            metrics, attempted, failed = end_to_end(runner, manifest,
                                                    setup_s, args.seconds)
        correct = not runner.wrong
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for wrong in runner.wrong:
        print(f"wrong output: {wrong}")
    speed = runner.speed()
    ref_ms = statistics.median(runner.reference) * 1e3
    print(f"reference loop: median {ref_ms:.3f} ms of "
          f"{len(runner.reference)}, nominal {REF_NOMINAL_MS:g} ms; "
          f"timings below are raw x {speed:.4f}")
    scaled = {}
    for name, (value, unit) in metrics.items():
        factor = TIME_SCALE.get(unit)
        scaled[name] = value * speed ** factor if factor else value
        raw = f"  (raw {value:.6g})" if factor else ""
        print(f"  {name:44s} {scaled[name]:>16.6g} {unit}{raw}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": scaled[name], "unit": unit}
                    for name, (_, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
