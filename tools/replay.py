"""Replay the benchmark's requests through two checkouts and compare them.

    python3 tools/replay.py OLD NEW [--workload W ...] [--seed N ...]
        [--cycles C]

OLD and NEW are checkouts of this repository.  For each workload and
seed, OLD's ``perfbench/workloads.py`` builds the manifest and its scene
files once, with OLD's package.  Every request of the manifest, warm-ups
first, then runs as ``python -m simsonpoly`` with each tree's ``src`` on
PYTHONPATH, in order, on a fresh copy of those inputs, so a request that
reads an earlier request's output reads its own tree's.  A request whose
exit code, stdout, stderr, ``--out`` bytes or ``--svg`` bytes differ is
printed with the first differing line of each such output.  Where both
``--out`` files are ``verify`` reports, it prints instead ``overall`` and
each entry, paired with the entry of its name on the other side, whose
pass, indices, residual, count or note differ, or that one side lacks,
then the other keys that differ (such as ``limit``); where that names
nothing, as for entries only reordered, the first differing line.  The
last line counts the requests that differ and those among them whose
exit code or a verdict (``overall``, or an entry's pass or presence)
differs.  Every JSON document read, the manifest and each ``--out``
file on either side, is parsed once, as strict JSON: a file holding
``NaN`` or ``Infinity``, which other languages' parsers reject, is
printed.  Those of NEW are counted on the last line too; those of OLD,
the baseline, are not.  Exits 1 if any request differs or NEW writes
such a file, else 0.  Standard library only; the manifest step needs
numpy, as the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("verify-sweep", "cli-small", "limit-refine")
VERDICT_KEYS = ("pass", "indices", "residual", "count", "note")


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # Leave no bytecode cache in either tree.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _read(path: str | None) -> bytes | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _run(tree: Path, requests: list[dict], pristine: Path, inputs: Path
         ) -> list[dict]:
    """Each request's exit code and output bytes, run in order from tree."""
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.copytree(pristine, inputs)
    results = []
    for req in requests:
        for key in ("out", "svg"):
            if req[key]:
                Path(req[key]).unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "simsonpoly",
                               *req["argv"]], env=_env(tree), cwd=tree,
                              stdin=subprocess.DEVNULL, capture_output=True)
        results.append({"exit": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr, "out": _read(req["out"]),
                        "svg": _read(req["svg"])})
    return results


def _presence(a, b) -> str:
    return f"{'missing' if a is None else 'present'} -> " \
           f"{'missing' if b is None else 'present'}"


def _first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return _presence(a, b)
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return f"{line_a.decode(errors='replace').strip()!r} -> " \
                   f"{line_b.decode(errors='replace').strip()!r}"
    return f"{len(a)} -> {len(b)} bytes"


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: bytes | str):
    """The JSON document text holds; ValueError if it holds NaN or
    Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def _documents(where: str, old: bytes | None, new: bytes | None
               ) -> tuple[list, bool]:
    """The documents in the old and the new tree's --out bytes, None for
    a tree that wrote none or one that is not strict JSON, and whether
    the new tree's is not.  Each file that is not is printed after where.
    """
    docs, loose = [], False
    for tree, data in (("old", old), ("new", new)):
        try:
            docs.append(None if data is None else _strict_json(data))
        except ValueError as exc:
            docs.append(None)
            loose = tree == "new"
            print(f"{where}: the {tree} tree's --out is not strict JSON: "
                  f"{exc}")
    return docs, loose


def _report(doc) -> dict | None:
    """doc if it is a verify report, else None."""
    return doc if isinstance(doc, dict) and "checks" in doc else None


def _report_changes(a: dict, b: dict) -> tuple[list[str], bool]:
    """Lines naming what differs between two verify reports, and whether
    a verdict (overall, or an entry's pass or presence) is among it.
    Entries are paired by name, which is unique within a report."""
    lines, verdict, other = [], False, set()
    if a["overall"] != b["overall"]:
        lines.append(f"overall {a['overall']} -> {b['overall']}")
        verdict = True
    entries_a = {c["name"]: c for c in a["checks"]}
    entries_b = {c["name"]: c for c in b["checks"]}
    for name in [*entries_a, *(n for n in entries_b if n not in entries_a)]:
        ca, cb = entries_a.get(name), entries_b.get(name)
        if ca is None or cb is None:
            verdict = True
            lines.append(f"entry {name!r}: {_presence(ca, cb)}")
            continue
        # repr compares a NaN residual equal to itself.
        keys = [key for key in VERDICT_KEYS
                if repr(ca.get(key)) != repr(cb.get(key))]
        if keys:
            verdict |= "pass" in keys
            lines.append(f"entry {name!r}: " + ", ".join(
                f"{key} {ca.get(key)!r} -> {cb.get(key)!r}" for key in keys))
        other |= {key for key in ca.keys() | cb.keys()
                  if key not in VERDICT_KEYS
                  and repr(ca.get(key)) != repr(cb.get(key))}
    if a.get("tolerances") != b.get("tolerances"):
        other.add("tolerances")
    if other:
        lines.append("also differ: " + ", ".join(sorted(other)))
    return lines, verdict


def replay(old: Path, new: Path, workload: str, seed: int, cycles: int,
           scratch: Path) -> tuple[int, int, int]:
    """Print every request of one manifest that differs or writes an
    --out file that is not strict JSON; return how many differ, how many
    of them differ in exit code or a verdict, and how many such files
    the new tree wrote."""
    pristine, inputs = scratch / "pristine", scratch / "inputs"
    shutil.rmtree(pristine, ignore_errors=True)
    # The manifest names its files under --dir, so it is built where the
    # requests will find them, then kept aside as the pristine copy.
    shutil.rmtree(inputs, ignore_errors=True)
    subprocess.run([sys.executable, str(old / "perfbench" / "workloads.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--cycles", str(cycles), "--dir", str(inputs)],
                   env=_env(old), check=True)
    shutil.copytree(inputs, pristine)
    manifest = _strict_json((inputs / "manifest.json").read_text("utf-8"))
    requests = manifest["warmup"] + [r for c in manifest["cycles"] for r in c]
    before = _run(old, requests, pristine, inputs)
    after = _run(new, requests, pristine, inputs)
    differing = verdicts = loose = 0
    for k, (req, a, b) in enumerate(zip(requests, before, after)):
        docs, new_loose = _documents(f"{workload} seed {seed} request {k}",
                                     a["out"], b["out"])
        loose += new_loose
        fields = [f for f in a if a[f] != b[f]]
        if not fields:
            continue
        differing += 1
        moved = "exit" in fields
        print(f"{workload} seed {seed} request {k}: simsonpoly "
              + " ".join(req["argv"]))
        for f in fields:
            reports = tuple(map(_report, docs)) if f == "out" \
                else (None, None)
            if None not in reports:
                lines, verdict = _report_changes(*reports)
                moved |= verdict
                for line in lines or [_first_difference(a[f], b[f])]:
                    print(f"  {f}: {line}")
                continue
            detail = f"{a[f]} -> {b[f]}" if f == "exit" \
                else _first_difference(a[f], b[f])
            print(f"  {f}: {detail}")
        verdicts += moved
    print(f"{workload} seed {seed}: {len(requests)} requests, "
          f"{differing} differ, {verdicts} in exit code or a verdict, "
          f"{loose} new --out files not strict JSON")
    return differing, verdicts, loose


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout that builds the inputs")
    ap.add_argument("new", type=Path, help="checkout to compare with it")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to replay, repeatable (default: all)")
    ap.add_argument("--seed", action="append", type=int,
                    help="manifest seed, repeatable (default: 811)")
    ap.add_argument("--cycles", type=int, default=3)
    args = ap.parse_args()
    old, new = args.old.resolve(), args.new.resolve()
    differing = verdicts = loose = 0
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        for workload in args.workload or WORKLOADS:
            for seed in args.seed or [811]:
                d, v, j = replay(old, new, workload, seed, args.cycles,
                                 Path(tmp))
                differing, verdicts, loose = (differing + d, verdicts + v,
                                              loose + j)
    print(f"{differing} differ, {verdicts} in exit code or a verdict, "
          f"{loose} new --out files not strict JSON")
    return 1 if differing or loose else 0


if __name__ == "__main__":
    sys.exit(main())
