"""Every command line ends in a documented exit code, without a traceback.

Seeded argv draws for ``construct --equidistant``, ``construct --feet``,
``approx`` and ``limit``, with numbers from 1e-320 to 1.7e308 of either
sign and sizes up to 17, or at the segment cap MAX_SEGMENTS and one
segment above it, and seeded scenes for ``verify``, run through
``cli.main`` in process.  Each must return 0, 2, 3 or 4, raise nothing,
and write exactly one ``error:`` line when it returns 2 or 3 (ROADMAP
items 4 and 12).  A run of any command that exits 0 or 4 must print
strict JSON, parsed with a ``parse_constant`` that raises (ROADMAP item
20).  Each test is bounded by its number of draws.
"""

import json
import math
import random

from geomgen import rigid_motion, strict_json
from simsonpoly.cli import main
from simsonpoly.equidistant import EquidistantConfig, make_equidistant
from simsonpoly.kernel import MAX_SEGMENTS
from simsonpoly.scene import SCHEMA_VERSION

DRAWS = 800
VERIFY_DRAWS = 300
CAP_DRAWS = 6


class _Numbers:
    """Float literals of either sign, or zero, from 1e-320 to 1.7e308.

    The numbers of one draw share a decade with a spread of 1, 10 or the
    whole range, so that draws reach the constructions as well as the
    checks that refuse mismatched scales.
    """

    def __init__(self, rng):
        self.rng = rng
        self.centre = rng.uniform(-320.0, 308.2)
        self.spread = rng.choice([1.0, 10.0, 630.0])

    def __call__(self, positive=False):
        rng = self.rng
        if rng.random() < 0.03:
            return "0"
        decade = min(max(self.centre + rng.uniform(-self.spread, self.spread),
                          -320.0), 308.2)
        sign = 1.0 if positive or rng.random() < 0.5 else -1.0
        return repr(sign * 10.0 ** decade)


def _size(rng):
    return rng.randint(-1, 17)


def _equidistant(rng, num):
    return ["construct", "--equidistant", f"--s={num()}",
            f"--delta={num(positive=True)}", f"--x0={num()}",
            "--n", str(_size(rng))]


def _feet(rng, num):
    # Feet on the line y = k, so that most draws reach the construction.
    k = num()
    feet = ";".join(f"{num()},{k}" for _ in range(rng.randint(1, 17)))
    return ["construct", f"--feet={feet}",
            f"--simson-point={num()},{num()}", f"--simson-line=y={k}"]


def _approx(rng, num):
    a, b = sorted(float(num()) for _ in range(2))
    n = _size(rng)
    argv = ["approx", f"--s={num()}", f"--a={a!r}", f"--b={b!r}",
            "--n", str(n), f"--delta={num(positive=True)}"]
    if rng.random() < 0.5:
        argv.append("--compare-quadrature")
    if rng.random() < 0.5:
        argv.append(f"--perturb-knot={rng.randint(0, max(n, 1))},{num()}")
    return argv


def _limit(rng, num):
    # A window of whole half-units tiles at spacing 1; others need not.
    window = str(rng.randint(1, 16) / 2) if rng.random() < 0.5 \
        else num(positive=True)
    return ["limit", f"--s={num()}", f"--window={window}",
            "--m-max", str(rng.randint(-1, 8))]


def _approx_at_cap(rng, num, over):
    argv = _approx(rng, num)
    argv[argv.index("--n") + 1] = str(MAX_SEGMENTS + over)
    return argv


def _limit_at_cap(rng, num, over):
    # The finest chain has 2 * window * 2^m_max segments: the cap, or one
    # more, which still tiles the window at spacing 1.
    m_max = rng.randint(0, 11)
    window = (MAX_SEGMENTS + over) / 2 ** (m_max + 1)
    return ["limit", f"--s={num()}", f"--window={window!r}",
            "--m-max", str(m_max)]


def _scene(rng):
    """Scene JSON of an equidistant or a random polygon (n 3..17), rotated,
    moved and then scaled by 10^k for k from -320 to 308.  The vertices
    are written as computed, so they may have left the float range or
    coincide."""
    n = rng.randint(3, 17)
    if rng.random() < 0.5:
        s = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        cfg = EquidistantConfig(s=s, x0=rng.uniform(-3.0, 3.0),
                                delta=rng.uniform(0.25, 1.5), n=n)
        vertices = [(v.x, v.y) for v in make_equidistant(cfg).vertices]
    else:
        vertices = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                    for _ in range(n)]
    move, _ = rigid_motion(rng.uniform(0.0, 2.0 * math.pi),
                           (rng.uniform(-10.0, 10.0),
                            rng.uniform(-10.0, 10.0)))
    scale = 10.0 ** rng.uniform(-320.0, 308.0)
    moved = [[p.x * scale, p.y * scale]
             for p in (move(x, y) for x, y in vertices)]
    # SceneDocument.to_json refuses Infinity, which verify must reject.
    return json.dumps({"schema_version": SCHEMA_VERSION, "entities": [
        {"type": "polygon", "id": "polygon", "vertices": moved}]}, indent=2)


def _broken(capsys, argv, codes=None):
    """Why running argv broke the exit contract, or None if it kept it;
    codes, if given, are the only exits allowed.  A run that exits 0 or 4
    must print strict JSON, without Infinity or NaN."""
    try:
        code = main(argv)
    except Exception as exc:
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if code not in (codes or (0, 2, 3, 4)):
        return f"exit {code}"
    if code in (2, 3) and not (err.startswith("error: ")
                               and err.count("\n") == 1):
        return f"exit {code} wrote {err!r}"
    if code in (0, 4):
        try:
            strict_json(out)
        except ValueError as exc:
            return f"exit {code} printed no strict JSON: {exc}"
    return None


def test_every_command_line_ends_in_a_documented_exit(capsys):
    rng = random.Random(4)
    broken = []
    for draw in range(DRAWS):
        command = (_equidistant, _feet, _approx, _limit)[draw % 4]
        argv = command(rng, _Numbers(rng))
        why = _broken(capsys, argv)
        if why:
            broken.append((argv, why))
    assert broken == []


def test_sizes_at_the_segment_cap_end_in_a_documented_exit(capsys):
    # One segment above the cap is refused (exit 2 or, for a value that
    # is refused first, 3); it never runs.
    rng = random.Random(16)
    broken = []
    for over in (0, 1):
        for command in (_approx_at_cap, _limit_at_cap):
            for _ in range(CAP_DRAWS):
                argv = command(rng, _Numbers(rng), over)
                why = _broken(capsys, argv, codes=(2, 3) if over else None)
                if why:
                    broken.append((argv, why))
    assert broken == []


def test_every_verify_ends_in_a_documented_exit(capsys, tmp_path):
    rng = random.Random(12)
    path = tmp_path / "scene.json"
    broken = []
    for _ in range(VERIFY_DRAWS):
        path.write_text(_scene(rng), encoding="utf-8")
        control = ["--negative-control", "--seed", str(rng.randint(0, 999))]
        for argv in (["verify", "--in", str(path)],
                     ["verify", "--in", str(path), *control]):
            why = _broken(capsys, argv)
            if why:
                broken.append((path.read_text(encoding="utf-8"), argv, why))
    assert broken == []
