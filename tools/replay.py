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
printed with the first differing line of each such output.  Exits 1 if
any request differs, else 0.  Standard library only; the manifest step
needs numpy, as the benchmark does.
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


def _first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return f"{'missing' if a is None else 'present'} -> " \
               f"{'missing' if b is None else 'present'}"
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return f"{line_a.decode(errors='replace').strip()!r} -> " \
                   f"{line_b.decode(errors='replace').strip()!r}"
    return f"{len(a)} -> {len(b)} bytes"


def replay(old: Path, new: Path, workload: str, seed: int, cycles: int,
           scratch: Path) -> int:
    """Print every request of one manifest that differs; return how many."""
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
    manifest = json.loads((inputs / "manifest.json").read_text("utf-8"))
    requests = manifest["warmup"] + [r for c in manifest["cycles"] for r in c]
    before = _run(old, requests, pristine, inputs)
    after = _run(new, requests, pristine, inputs)
    differing = 0
    for k, (req, a, b) in enumerate(zip(requests, before, after)):
        fields = [f for f in a if a[f] != b[f]]
        if not fields:
            continue
        differing += 1
        print(f"{workload} seed {seed} request {k}: simsonpoly "
              + " ".join(req["argv"]))
        for f in fields:
            detail = f"{a[f]} -> {b[f]}" if f == "exit" \
                else _first_difference(a[f], b[f])
            print(f"  {f}: {detail}")
    print(f"{workload} seed {seed}: {len(requests)} requests, "
          f"{differing} differ")
    return differing


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
    differing = 0
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        for workload in args.workload or WORKLOADS:
            for seed in args.seed or [811]:
                differing += replay(old, new, workload, seed, args.cycles,
                                    Path(tmp))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
