"""Command-line interface.

Subcommands: construct, verify, approx, limit.  Exit codes form a stable
contract: 0 success, 2 usage or parse error (a ``UsageError``), 3
geometric degeneracy (a ``GeometryError``), 4 verification failure (the
report is still emitted).  An error's type alone decides its code.

Each command returns its JSON text, its SVG figure (None unless --svg
was given) and its exit code; :func:`main` alone writes them.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import sys
from types import SimpleNamespace

# Besides kernel, each command imports the layers it calls inside the
# function that calls them, so a request loads only the modules it runs.
from .kernel import MAX_SEGMENTS, GeometryError, InvalidConfig, NonFinite, \
    Point, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4

_EQUIDISTANT_CHECKS = ("parallel-chords", "optical", "archimedes")
# Report order: the search, any Simson polygon's checks, the equidistant ones.
ALL_CHECKS = ("simson", "isogonal", "lambert") + _EQUIDISTANT_CHECKS


def _require_finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    return value


def _write_file(path: str, text: str) -> None:
    """Write text to a new file at path; a failure to open, write or
    close it is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------- construct

def _construct_scene(args) -> SceneDocument:
    from .scene import SceneDocument, parse_feet_spec, parse_line_spec, \
        parse_point_spec

    scene = SceneDocument()
    if args.equidistant:
        from .equidistant import EquidistantConfig, associated_parabola, \
            make_equidistant, midpoint_parabola

        for flag, value in (("--s", args.s), ("--delta", args.delta),
                            ("--n", args.n)):
            if value is None:
                raise UsageError(f"--equidistant requires {flag}")
        cfg = EquidistantConfig(s=args.s, x0=args.x0, delta=args.delta,
                                n=args.n)
        poly = make_equidistant(cfg)
        scene.add_line("L", poly.simson_line)
        scene.add_parabola("C", associated_parabola(cfg), dash="4 3")
        scene.add_parabola("Cprime", midpoint_parabola(cfg), dash="2 3",
                           stroke="#777777")
        polygon, feet, s = poly.polygon(), poly.projections, poly.simson_point
    else:
        for flag, value in (("--feet", args.feet),
                            ("--simson-point", args.simson_point),
                            ("--simson-line", args.simson_line)):
            if value is None:
                raise UsageError(
                    f"construct without --equidistant requires {flag}")
        from .simson import construct_simson_polygon

        feet = parse_feet_spec(args.feet)
        s = parse_point_spec(args.simson_point)
        line = parse_line_spec(args.simson_line)
        polygon = construct_simson_polygon(s, line, feet)
        scene.add_line("L", line)
    scene.add_polygon("polygon", polygon)
    for i, foot in enumerate(feet):
        scene.add_point(f"X{i + 1}", foot, fill="#808080")
    scene.add_point("S", s, fill="#b03030")
    return scene


def cmd_construct(args) -> tuple[str, str | None, int]:
    scene = _construct_scene(args)
    # The figure is built first: a scene it cannot draw writes nothing.
    svg = None
    if args.svg:
        from .svgfig import scene_to_svg
        svg = scene_to_svg(scene)
    return scene.to_json(), svg, EXIT_OK


# ------------------------------------------------------------------- verify

def _parse_checks(spec: str) -> list[str]:
    """The checks spec names, each once, in the order a report lists them."""
    names = [c.strip() for c in spec.split(",") if c.strip()]
    if not names:
        raise UsageError("--checks must name at least one check")
    for name in names:
        if name != "all" and name not in ALL_CHECKS:
            raise UsageError(
                f"unknown check {name!r}; choose from "
                f"{', '.join(ALL_CHECKS)} or all")
    return [c for c in ALL_CHECKS if "all" in names or c in names]


def _parse_triple(spec: str) -> tuple[int, int, int]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise UsageError("--triple expects three comma-separated side indices")
    try:
        i, j, k = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--triple indices must be integers, got {spec!r}")
    return i, j, k


def _load_polygon(args) -> Polygon:
    from .scene import SceneDocument

    if args.infile is None:
        raise UsageError("verify requires --in SCENE.json")
    try:
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.infile}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {args.infile}: {exc}")
    return SceneDocument.from_json(text).first_polygon()


def _perturbed(poly: Polygon, eps: float, seed: int) -> Polygon:
    """Move each vertex by -eps + 2 * eps * random() in x, then in y."""
    import random
    from .simson import Polygon

    # An int seed fixes the random() stream in every Python version.
    draw = random.Random(seed).random
    return Polygon(tuple(Point(v.x + (-eps + 2 * eps * draw()),
                               v.y + (-eps + 2 * eps * draw()))
                         for v in poly.vertices))


def _run_checks(poly: Polygon, checks: list[str],
                triple: tuple[int, int, int]) -> VerificationReport:
    """The report of checks, as ``_parse_checks`` lists them, on poly."""
    from .report import CheckResult, VerificationReport
    from .simson import _search

    report = VerificationReport()
    _, centred, cert, defect = _search(poly)
    if cert is None:
        for name in checks:
            report.add(CheckResult(
                name, (), defect, False,
                note="no common intersection of characterization circles"
                if name == "simson" else "skipped: no simson point"))
        return report
    # The frame layer runs only once a Simson point is found.
    from .equidistant import equidistant_from_frame, frame_from_certificate, \
        verify_archimedes, verify_isogonal, verify_lambert, verify_optical, \
        verify_parallel_chords

    if "simson" in checks:
        report.add(CheckResult("simson", (), cert.residual, True))
    frame = frame_from_certificate(centred, cert)
    report.set_limits(frame.scale())
    if "isogonal" in checks:
        report.extend(verify_isogonal(frame))
    if "lambert" in checks:
        report.extend(verify_lambert(frame, *triple))
    wanted = [c for c in checks if c in _EQUIDISTANT_CHECKS]
    if wanted and poly.n == 3:
        # Every point of a triangle's circumcircle is a Simson point; the
        # search returns the topmost one, not the point that built it.
        for name in wanted:
            report.add(CheckResult(
                name, (), 0.0, True,
                note="skipped: a triangle's Simson point is not unique"))
        return report
    if wanted:
        try:
            eq = equidistant_from_frame(frame)
        except InvalidConfig as exc:
            report.add(CheckResult("equidistant-spacing", (), float("inf"),
                                   False, note=str(exc)))
            return report
        if "parallel-chords" in wanted:
            report.extend(verify_parallel_chords(eq))
        if "optical" in wanted:
            report.extend(verify_optical(eq))
        if "archimedes" in wanted:
            if eq.n < 5:
                report.add(CheckResult("archimedes", (), 0.0, True,
                                       note="skipped: needs n >= 5"))
            else:
                report.extend(verify_archimedes(eq))
    return report


def cmd_verify(args) -> tuple[str, None, int]:
    checks = _parse_checks(args.checks)
    triple = _parse_triple(args.triple)
    if args.perturb <= 0.0:
        raise UsageError(f"--perturb must be positive, got {args.perturb}")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    # The noise is drawn from [-perturb, perturb], whose width must be finite.
    _require_finite("--perturb width", 2.0 * args.perturb)
    poly = _load_polygon(args)
    if "lambert" in checks:  # judged before a search that may miss
        from .simson import check_triple
        check_triple(poly.n, triple)
    if args.negative_control:
        poly = _perturbed(poly, args.perturb, args.seed)
    report = _run_checks(poly, checks, triple)
    return (json.dumps(report.to_dict(), indent=2, allow_nan=False), None,
            EXIT_OK if report.overall else EXIT_VERIFY)


# ------------------------------------------------------------------- approx

def _parse_perturb_knot(spec: str) -> tuple[int, float]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise UsageError("--perturb-knot expects INDEX,EPS")
    try:
        idx, eps = int(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad --perturb-knot value {spec!r}")
    # A zero nudge moves no knot, so it cannot test optimality.
    if _require_finite("--perturb-knot", eps) == 0.0:
        raise UsageError("--perturb-knot EPS must be nonzero")
    return idx, eps


def cmd_approx(args) -> tuple[str, str | None, int]:
    from .approx import ApproxProblem, optimal_knots, quadrature_l1, \
        quadrature_l2, width_spread

    if args.perturb_knot:
        idx, eps = _parse_perturb_knot(args.perturb_knot)
        if args.n < 2:
            raise UsageError("--perturb-knot needs an interior knot; "
                             f"--n {args.n} has none")
        if not 1 <= idx <= args.n - 1:
            raise UsageError(
                f"--perturb-knot index must be interior (1..{args.n - 1})")
    problem = ApproxProblem(s=args.s, delta=args.delta, a=args.a, b=args.b,
                            n=args.n)
    result = optimal_knots(problem)
    payload = {
        "s": problem.s, "delta": problem.delta,
        "a": problem.a, "b": problem.b, "n": problem.n,
        "knots": list(result.knots),
        "knot_points": [[x, y] for x, y in result.knot_points],
        "l1_error": result.l1_error,
        "l2_error": result.l2_error,
    }
    exit_code = EXIT_OK
    if args.compare_quadrature:
        q1 = quadrature_l1(problem, result.knots)
        q2 = quadrature_l2(problem, result.knots)
        quadrature = payload["quadrature"] = {
            "l1": q1,
            "l1_relative_difference": abs(q1 - result.l1_error)
            / max(result.l1_error, 1e-300),
            "l2": q2,
            "l2_relative_difference": abs(q2 - result.l2_error)
            / max(result.l2_error, 1e-300),
        }
        # The quadrature squares the error at its nodes, so it can leave
        # the float range where the closed forms stay inside it.
        if not all(map(math.isfinite, quadrature.values())):
            raise NonFinite(f"s = {problem.s} on [{problem.a}, {problem.b}] "
                            "leaves the float range in the quadrature")
    if args.perturb_knot:
        # Moving the knot by e changes only its two widths, to h1 + e and
        # h2 - e, and their cubes by 3e(h1 + h2)(h1 - h2 + e): no cancelling.
        before, knot, after = result.knots[idx - 1:idx + 2]
        h1, h2, e = knot - before, after - knot, (knot + eps) - knot
        # A nudge lost to rounding or past a neighbour tests no optimum.
        if e == 0.0 or not before < knot + eps < after:
            raise UsageError(f"--perturb-knot must move knot {idx} off "
                             f"{knot} to strictly between {before} and "
                             f"{after}, not to {knot + eps}")
        payload["perturb_knot"] = {"index": idx, "eps": eps, "objective_delta":
                                   3.0 * e * (h1 + h2) * (h1 - h2 + e)}
        # Widths equal up to R = width_spread give sign(e)(h1 - h2 + e)
        # >= |e| - R > -R: only knots off the optimum fall below -R.
        if math.copysign(1.0, e) * (h1 - h2 + e) < -width_spread(problem):
            exit_code = EXIT_VERIFY
    svg = None
    if args.svg:
        from .svgfig import approx_figure
        svg = approx_figure(problem, result)
    return json.dumps(payload, indent=2, allow_nan=False), svg, exit_code


# -------------------------------------------------------------------- limit

def cmd_limit(args) -> tuple[str, None, int]:
    # limits alone: the chains come from the equidistant closed form, so
    # neither the Simson nor the equidistant layer is loaded.
    from .limits import convergence_table, observed_orders

    rows = convergence_table(args.s, args.window, args.m_max)
    orders = observed_orders(rows)
    payload = {
        "s": args.s, "window": args.window,
        "rows": [{"delta": r.delta, "hausdorff": r.hausdorff,
                  "bound": r.bound, "chain_to_parabola": r.chain_to_parabola}
                 for r in rows],
        "observed_orders": orders,
    }
    exit_code = EXIT_OK
    if args.m_max > 0:
        order_ok = min(orders) >= 1.9
        payload["order_ok"] = order_ok
        if not order_ok:
            exit_code = EXIT_VERIFY
    return json.dumps(payload, indent=2, allow_nan=False), None, exit_code


# ----------------------------------------------------------------- plumbing

class _Flag:
    """One flag of the command line.

    ``type`` is float, int or str for a flag that takes a value, or None
    for a switch, which is False unless given.  ``dest`` is the attribute
    the command reads; it defaults to the name without its dashes, with
    ``_`` for ``-``.
    """

    __slots__ = ("name", "dest", "type", "default", "required", "metavar",
                 "help")

    def __init__(self, name: str, type: type | None, help: str, *,
                 default=None, required: bool = False,
                 metavar: str | None = None, dest: str | None = None):
        self.name = name
        self.dest = dest or name[2:].replace("-", "_")
        self.type = type
        self.default = False if type is None else default
        self.required = required
        self.metavar = metavar or self.dest.upper()
        self.help = help


_OUT = _Flag("--out", str, "write JSON output here instead of stdout",
             metavar="FILE")
_SVG = _Flag("--svg", str, "also write an SVG figure", metavar="FILE")
_IN = _Flag("--in", str, "input scene JSON ('-' for stdin)", metavar="FILE",
            dest="infile")
_QUIET = _Flag("--quiet", None, "suppress stdout output")

# The command line: each subcommand with its function, its summary and
# the only flags it reads.  The parser, --help and every usage error read
# this table; any other flag is an unrecognised argument (exit 2).
COMMANDS = {
    "construct": (cmd_construct, "build a Simson polygon scene", (
        _OUT, _SVG, _QUIET,
        _Flag("--equidistant", None, "use the equidistant closed form"),
        _Flag("--s", float, "Simson point height"),
        _Flag("--delta", float, "foot spacing"),
        _Flag("--n", int, "number of sides"),
        _Flag("--x0", float, "first foot abscissa", default=0.0),
        _Flag("--feet", str, "feet as 'x,y;x,y;...'"),
        _Flag("--simson-point", str, "point as 'x,y'"),
        _Flag("--simson-line", str, "line as 'ax+by+c=0' or 'y=mx+k'"),
    )),
    "verify": (cmd_verify, "check scene polygon against the theorems", (
        _OUT, _IN, _QUIET,
        _Flag("--checks", str, "comma list from {%s} or all"
              % ", ".join(ALL_CHECKS), default="all"),
        _Flag("--triple", str, "side indices i,j,k for the lambert check",
              default="1,2,3"),
        _Flag("--negative-control", None, "perturb vertices before checking"),
        _Flag("--perturb", float,
              "perturbation size for --negative-control", default=1e-3),
        _Flag("--seed", int, "seed for --negative-control noise, "
              "non-negative; the noise is random.Random(SEED)'s stream",
              default=0),
    )),
    "approx": (cmd_approx, "optimal piecewise-linear approximation", (
        _OUT, _SVG, _QUIET,
        _Flag("--s", float, "parabola y = (x^2 - delta^2)/(4 s)",
              required=True),
        _Flag("--a", float, "left end of the interval", required=True),
        _Flag("--b", float, "right end of the interval", required=True),
        _Flag("--n", int, f"number of segments, at most {MAX_SEGMENTS}",
              required=True),
        _Flag("--delta", float, "parabola offset", default=0.0),
        _Flag("--compare-quadrature", None,
              "also integrate the error numerically"),
        _Flag("--perturb-knot", str,
              "report the objective change of a knot nudge",
              metavar="INDEX,EPS"),
    )),
    "limit": (cmd_limit, "convergence of the chain to the parabola", (
        _OUT, _QUIET,
        _Flag("--s", float, "parabola y = x^2/(4 s)", required=True),
        _Flag("--window", float, "half-width of the sampled window",
              default=4.0),
        _Flag("--m-max", int, "number of times delta = 1 is halved",
              default=6),
    )),
}

_HELP = ("-h", "--help")


def _top_help() -> str:
    rows = "".join(f"\n  {name:<11}{summary}"
                   for name, (_, summary, _) in COMMANDS.items())
    return (f"usage: simsonpoly {{{','.join(COMMANDS)}}} [options]\n\n"
            "Construct, verify, and approximate Simson polygons.\n\n"
            f"commands:{rows}\n\n"
            "Run 'simsonpoly COMMAND --help' for the flags of a command.")


def _command_help(command: str) -> str:
    _, summary, flags = COMMANDS[command]
    rows = [("-h, --help", "show this help message and exit")]
    for f in flags:
        if f.type is None:
            rows.append((f.name, f.help))
        elif f.default is None:
            rows.append((f"{f.name} {f.metavar}", f.help))
        else:
            rows.append((f"{f.name} {f.metavar}",
                         f"{f.help} (default {f.default})"))
    width = max(len(spelling) for spelling, _ in rows) + 2
    required = "".join(f" {f.name} {f.metavar}" for f in flags if f.required)
    return (f"usage: simsonpoly {command}{required} [options]\n\n"
            f"{summary}\n\noptions:"
            + "".join(f"\n  {spelling:<{width}}{text}"
                      for spelling, text in rows))


def _parse(argv: Sequence[str]):
    """Read ``COMMAND [--flag VALUE | --flag=VALUE | --switch]...``.

    Returns the command's function and its arguments, or the help text
    that ``-h`` or ``--help`` asks for.  A valued flag takes the next
    token unless that starts with ``--``, so ``-1,0;0,0;1,0``, ``-3`` and
    ``-`` are values.  A repeated flag keeps its last value; names must
    match exactly.
    """
    if not argv or argv[0] not in COMMANDS:
        if argv and argv[0] in _HELP:
            return _top_help()
        choices = ", ".join(repr(name) for name in COMMANDS)
        if not argv:
            raise UsageError("the following arguments are required: "
                             f"command (choose from {choices})")
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {choices})")
    func, _, flags = COMMANDS[argv[0]]
    by_name = {f.name: f for f in flags}
    values = {f.dest: f.default for f in flags}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return _command_help(argv[0])
        name, eq, value = token.partition("=")
        flag = by_name.get(name) if token.startswith("--") else None
        if flag is None:
            unrecognized.append(token)
            continue
        if flag.type is None:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit "
                                 f"argument {value!r}")
            values[flag.dest] = True
            continue
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise UsageError(f"argument {name}: expected one argument")
        try:
            values[flag.dest] = flag.type(value)
        except ValueError:
            raise UsageError(f"argument {name}: invalid {flag.type.__name__}"
                             f" value: {value!r}") from None
    # A required flag has no default.
    missing = [f.name for f in flags if f.required and values[f.dest] is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))
    if unrecognized:
        raise UsageError("unrecognized arguments: " + " ".join(unrecognized))
    for f in flags:
        if f.type is float and values[f.dest] is not None:
            _require_finite(f.name, values[f.dest])
    return func, SimpleNamespace(**values)


def _drop_stdout() -> None:
    """Point stdout at the null device, where a later flush cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(parsed, str):
            # As with argparse, help that cannot be written is dropped and
            # the exit code stays 0.
            try:
                print(parsed, flush=True)
            except OSError:
                _drop_stdout()
            return EXIT_OK
        func, args = parsed
        text, svg, code = func(args)
        # A command that fails raises before this, so it writes nothing.
        if args.out:
            _write_file(args.out, text + "\n")
        elif not args.quiet:
            sys.stdout.write(text + "\n")
        if svg is not None:
            _write_file(args.svg, svg)
        # Flush here, so a failed write to stdout (a closed pipe, a full
        # disk) is caught below and not only at interpreter exit.
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Every file a command opens turns its own OSError into a usage
        # error, so this one is stdout's.
        _drop_stdout()
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DEGENERATE


def _observed() -> bool:
    """Whether a tracer or profiler watches this process (coverage,
    ``python -m trace``, ``python -m cProfile``; from Python 3.12 these
    may register with ``sys.monitoring`` instead)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    # Tool ids run from 0 (debugger) to 5.
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def _flush_std() -> bool:
    """Flush stdout and stderr; False if either flush fails."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return False
    return True


def run() -> NoReturn:
    """Run :func:`main` as a process and end the process with its code.

    Once the output is flushed and the ``atexit`` callbacks have run,
    the process ends with ``os._exit``: tearing down every module and
    collecting the heap costs a short request more than a tenth of its
    time and would write nothing.  An exception escaping ``main``
    propagates as usual.  The ordinary exit is taken when a tracer or a
    profiler must still write its results, and when a flush fails, so
    that the interpreter reports the failure as it always has.
    """
    code = main()
    if not _observed() and _flush_std():
        atexit._run_exitfuncs()
        # A callback may have written output of its own.
        if _flush_std():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
