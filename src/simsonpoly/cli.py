"""Command-line interface: the flag table, its parser, help, main and run.

Subcommands: construct, verify, approx, limit.  Exit codes form a stable
contract: 0 success, 2 usage or parse error (a ``UsageError``), 3
geometric degeneracy (a ``GeometryError``), 4 verification failure (the
report is still emitted).  An error's type alone decides its code.

Each command returns its JSON text, its SVG figure (None unless --svg
was given) and whether its claim held, False giving exit 4; :func:`main`
alone writes them.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
from types import SimpleNamespace

# A command's work lives beside the layer it drives: scene, approx or
# limits.  Its stub below imports that work on call, so a request
# compiles and loads only its own command and the layers that command
# runs, and help loads no module besides kernel.
from .kernel import MAX_SEGMENTS, GeometryError, UsageError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4

EQUIDISTANT_CHECKS = ("parallel-chords", "optical", "archimedes")
# Report order: the search, any Simson polygon's checks, the equidistant ones.
ALL_CHECKS = ("simson", "isogonal", "lambert") + EQUIDISTANT_CHECKS


def _write_file(path: str, text: str) -> None:
    """Write text to a new file at path; a failure to open, write or
    close it is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def cmd_construct(args) -> tuple[str, str | None, bool]:
    from .scene import construct_request
    return construct_request(args)


def cmd_verify(args) -> tuple[str, None, bool]:
    from .scene import verify_request
    return verify_request(args)


def cmd_approx(args) -> tuple[str, str | None, bool]:
    from .approx import approx_request
    return approx_request(args)


def cmd_limit(args) -> tuple[str, None, bool]:
    from .limits import limit_request
    return limit_request(args)


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
        value = values[f.dest]
        if f.type is float and value is not None and not math.isfinite(value):
            raise UsageError(f"{f.name} must be finite, got {value}")
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
        text, svg, held = func(args)
        # A command that fails raises before this, so it writes nothing.
        # An empty path is a path that cannot be written.
        if args.out is not None:
            _write_file(args.out, text + "\n")
        elif not args.quiet:
            sys.stdout.write(text + "\n")
        if svg is not None:
            _write_file(args.svg, svg)
        # Flush here, so a failed write to stdout (a closed pipe, a full
        # disk) is caught below and not only at interpreter exit.
        sys.stdout.flush()
        return EXIT_OK if held else EXIT_VERIFY
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
