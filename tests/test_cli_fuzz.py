"""Every command line ends in a documented exit code, without a traceback.

Seeded argv draws for ``construct --equidistant``, ``construct --feet``,
``approx`` and ``limit``, with numbers from 1e-320 to 1.7e308 of either
sign and sizes up to 17, run through ``cli.main`` in process.  Each must
return 0, 2, 3 or 4, raise nothing, and write exactly one ``error:``
line when it returns 2 or 3 (ROADMAP item 4).  The test is bounded by
its number of draws.
"""

import random

from simsonpoly.cli import main

DRAWS = 800


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


def test_every_command_line_ends_in_a_documented_exit(capsys):
    rng = random.Random(4)
    broken = []
    for draw in range(DRAWS):
        command = (_equidistant, _feet, _approx, _limit)[draw % 4]
        argv = command(rng, _Numbers(rng))
        try:
            code = main(argv)
        except Exception as exc:
            capsys.readouterr()
            broken.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4):
            broken.append((argv, f"exit {code}"))
        elif code in (2, 3) and not (err.startswith("error: ")
                                     and err.count("\n") == 1):
            broken.append((argv, f"exit {code} wrote {err!r}"))
    assert broken == []
