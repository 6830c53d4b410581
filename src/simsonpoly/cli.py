"""Command-line interface.

Subcommands: construct, verify, approx, limit.  Exit codes form a stable
contract: 0 success, 2 usage or parse error, 3 geometric degeneracy,
4 verification failure (the report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from .kernel import DEFAULT_TOLERANCE, GeometryError, Point

# Each command imports the layers it calls inside the function that calls
# them, so a request loads only the modules its subcommand runs.
if TYPE_CHECKING:
    from .report import VerificationReport
    from .scene import SceneDocument
    from .simson import Polygon

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4

_EQUIDISTANT_CHECKS = ("parallel-chords", "optical", "archimedes")
ALL_CHECKS = ("simson", "parallel-chords", "isogonal", "optical",
              "archimedes", "lambert")


class _CliError(Exception):
    """Usage-level problem detected after argparse."""


def _require_finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise _CliError(f"{flag} must be finite, got {value}")
    return value


def _open_output(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, write: Callable[[TextIO], object]) -> None:
    """Run ``write`` on the --out file, or on stdout unless --quiet, and
    end the output with a newline."""
    if args.out:
        with _open_output(args.out) as fh:
            write(fh)
            fh.write("\n")
    elif not args.quiet:
        write(sys.stdout)
        sys.stdout.write("\n")


def _emit_json(args, payload) -> None:
    """Write ``json.dumps(payload, indent=2) + "\\n"`` without building it.

    ``json.dump`` streams the encoder's chunks into the file, so a large
    report is never held as one string (nor as its list of chunks).
    """
    _emit(args, lambda fh: json.dump(payload, fh, indent=2))


def _write_svg(args, svg: Optional[str]) -> None:
    """Write svg, built only when --svg was given, to the --svg file."""
    if args.svg:
        with _open_output(args.svg) as fh:
            fh.write(svg)


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
                raise _CliError(f"--equidistant requires {flag}")
        cfg = EquidistantConfig(s=args.s, x0=args.x0, delta=args.delta,
                                n=args.n)
        poly = make_equidistant(cfg)
        scene.add_line("L", poly.simson_line)
        scene.add_parabola("C", associated_parabola(cfg), dash="4 3")
        scene.add_parabola("Cprime", midpoint_parabola(cfg), dash="2 3",
                           stroke="#777777")
        scene.add_polygon("polygon", poly.polygon())
        for i, foot in enumerate(poly.projections):
            scene.add_point(f"X{i + 1}", foot, fill="#808080")
        scene.add_point("S", poly.simson_point, fill="#b03030")
        return scene
    for flag, value in (("--feet", args.feet),
                        ("--simson-point", args.simson_point),
                        ("--simson-line", args.simson_line)):
        if value is None:
            raise _CliError(f"construct without --equidistant requires {flag}")
    from .simson import construct_simson_polygon

    feet = parse_feet_spec(args.feet)
    s = parse_point_spec(args.simson_point)
    line = parse_line_spec(args.simson_line)
    poly = construct_simson_polygon(s, line, feet)
    scene.add_line("L", line)
    scene.add_polygon("polygon", poly)
    for i, foot in enumerate(feet):
        scene.add_point(f"X{i + 1}", foot, fill="#808080")
    scene.add_point("S", s, fill="#b03030")
    return scene


def cmd_construct(args) -> int:
    from .scene import SceneFormatError

    try:
        scene = _construct_scene(args)
    except SceneFormatError as exc:
        raise _CliError(str(exc)) from None
    # The figure is built first: a scene it cannot draw writes nothing.
    svg = None
    if args.svg:
        from .svgfig import scene_to_svg
        svg = scene_to_svg(scene)
    text = scene.to_json()
    _emit(args, lambda fh: fh.write(text))
    _write_svg(args, svg)
    return EXIT_OK


# ------------------------------------------------------------------- verify

def _parse_checks(spec: str) -> list[str]:
    names = [c.strip() for c in spec.split(",") if c.strip()]
    if not names:
        raise _CliError("--checks must name at least one check")
    if "all" in names:
        return list(ALL_CHECKS)
    for name in names:
        if name not in ALL_CHECKS:
            raise _CliError(
                f"unknown check {name!r}; choose from "
                f"{', '.join(ALL_CHECKS)} or all")
    return names


def _parse_triple(spec: str) -> tuple[int, int, int]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise _CliError("--triple expects three comma-separated side indices")
    try:
        i, j, k = (int(p) for p in parts)
    except ValueError:
        raise _CliError(f"--triple indices must be integers, got {spec!r}")
    return i, j, k


def _load_polygon(args) -> Polygon:
    from .scene import SceneDocument

    if args.infile is None:
        raise _CliError("verify requires --in SCENE.json")
    try:
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {args.infile}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {args.infile}: {exc}")
    return SceneDocument.from_json(text).first_polygon()


def _perturbed(poly: Polygon, eps: float, seed: int) -> Polygon:
    from ._pcg64 import uniform
    from .simson import Polygon

    offsets = uniform(seed, -eps, eps, 2 * poly.n)
    return Polygon(tuple(Point(v.x + dx, v.y + dy)
                         for v, dx, dy in zip(poly.vertices, offsets[::2],
                                              offsets[1::2])))


def _run_checks(poly: Polygon, checks: list[str],
                triple: tuple[int, int, int]) -> VerificationReport:
    from .equidistant import InvalidConfig, equidistant_from_frame, \
        frame_from_certificate, verify_archimedes, verify_isogonal, \
        verify_lambert, verify_optical, verify_parallel_chords
    from .report import CheckResult, VerificationReport
    from .simson import characterization_defect, find_simson_point

    report = VerificationReport()
    cert = find_simson_point(poly)
    if cert is None:
        # No frame, so no scale: the report names only the raw tolerance.
        report.tolerances.update(abs_eps=DEFAULT_TOLERANCE.abs_eps,
                                 rel_eps=DEFAULT_TOLERANCE.rel_eps)
        defect = characterization_defect(poly)
        if "simson" in checks:
            report.add(CheckResult(
                "simson", (), defect, False,
                note="no common intersection of characterization circles"))
        for name in checks:
            if name != "simson":
                report.add(CheckResult(name, (), defect, False,
                                       note="skipped: no simson point"))
        return report
    if "simson" in checks:
        report.add(CheckResult("simson", (), cert.residual, True))
    frame = frame_from_certificate(poly, cert)
    report.set_limits(frame.scale())
    if "isogonal" in checks:
        report.extend(verify_isogonal(frame))
    if "lambert" in checks:
        lambert = verify_lambert(frame, *triple)
        report.extend(lambert)
        report.tolerances["lambert_limit"] = \
            lambert.tolerances["lambert_limit"]
    wanted = [c for c in checks if c in _EQUIDISTANT_CHECKS]
    if wanted and poly.n == 3:
        # Every point of a triangle's circumcircle is a Simson point; the
        # search returns the topmost one, not the point that built it.
        for name in _EQUIDISTANT_CHECKS:
            if name in wanted:
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


def cmd_verify(args) -> int:
    checks = _parse_checks(args.checks)
    triple = _parse_triple(args.triple)
    if args.negative_control and args.perturb <= 0.0:
        raise _CliError(f"--perturb must be positive, got {args.perturb}")
    if args.seed < 0:
        raise _CliError("--seed must be non-negative")
    # The noise is drawn from [-perturb, perturb], whose width must be finite.
    _require_finite("--perturb width", 2.0 * args.perturb)
    from .equidistant import IndexOutOfRange
    from .scene import SceneFormatError

    try:
        poly = _load_polygon(args)
        if args.negative_control:
            poly = _perturbed(poly, args.perturb, args.seed)
        report = _run_checks(poly, checks, triple)
    except (SceneFormatError, IndexOutOfRange) as exc:
        raise _CliError(str(exc)) from None
    _emit_json(args, report.to_dict())
    return EXIT_OK if report.overall else EXIT_VERIFY


# ------------------------------------------------------------------- approx

def _parse_perturb_knot(spec: str) -> tuple[int, float]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise _CliError("--perturb-knot expects INDEX,EPS")
    try:
        idx, eps = int(parts[0]), float(parts[1])
    except ValueError:
        raise _CliError(f"bad --perturb-knot value {spec!r}")
    return idx, _require_finite("--perturb-knot", eps)


def cmd_approx(args) -> int:
    from .approx import ApproxProblem, optimal_knots, quadrature_l1, \
        quadrature_l2, total_error_objective

    if args.a >= args.b:
        raise _CliError(f"need a < b, got a={args.a}, b={args.b}")
    if args.n < 1:
        raise _CliError("--n must be at least 1")
    if args.perturb_knot:
        idx, eps = _parse_perturb_knot(args.perturb_knot)
        if args.n == 1:
            raise _CliError("--perturb-knot needs an interior knot; "
                            "--n 1 has none")
        if not 1 <= idx <= args.n - 1:
            raise _CliError(
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
        payload["quadrature"] = {
            "l1": q1,
            "l1_relative_difference": abs(q1 - result.l1_error)
            / max(result.l1_error, 1e-300),
            "l2": q2,
            "l2_relative_difference": abs(q2 - result.l2_error)
            / max(result.l2_error, 1e-300),
        }
    if args.perturb_knot:
        interior = list(result.knots[1:-1])
        moved = list(interior)
        moved[idx - 1] += eps
        delta_obj = (total_error_objective(problem, moved)
                     - total_error_objective(problem, interior))
        payload["perturb_knot"] = {"index": idx, "eps": eps,
                                   "objective_delta": delta_obj}
        if delta_obj <= 0.0:
            exit_code = EXIT_VERIFY
    svg = None
    if args.svg:
        from .svgfig import approx_figure
        svg = approx_figure(problem, result)
    _emit_json(args, payload)
    _write_svg(args, svg)
    return exit_code


# -------------------------------------------------------------------- limit

def cmd_limit(args) -> int:
    # limits alone: the chains come from the equidistant closed form, so
    # neither the Simson nor the equidistant layer is loaded.
    from .limits import TooManySegments, convergence_table, observed_orders

    if args.window <= 0.0:
        raise _CliError("--window must be positive")
    if args.m_max < 0:
        raise _CliError("--m-max must be >= 0")
    try:
        rows = convergence_table(args.s, args.window, args.m_max)
    except TooManySegments as exc:
        raise _CliError(str(exc)) from None
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
    _emit_json(args, payload)
    return exit_code


# ----------------------------------------------------------------- plumbing

# Flags that several subcommands read; argparse defaults each valued one
# to None.
_SHARED_FLAGS = {
    "--out": dict(metavar="FILE",
                  help="write JSON output here instead of stdout"),
    "--svg": dict(metavar="FILE", help="also write an SVG figure"),
    "--in": dict(dest="infile", metavar="FILE",
                 help="input scene JSON ('-' for stdin)"),
    "--quiet": dict(action="store_true", help="suppress stdout output"),
}


def _add_shared(p: argparse.ArgumentParser, flags: str) -> None:
    """Declare the named flags of _SHARED_FLAGS on one subcommand."""
    for flag in flags.split():
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the flags it reads; any other flag
    is an unrecognised argument (exit 2)."""
    parser = argparse.ArgumentParser(
        prog="simsonpoly",
        description="Construct, verify, and approximate Simson polygons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a Simson polygon scene")
    _add_shared(p_con, "--out --svg --quiet")
    p_con.add_argument("--equidistant", action="store_true",
                       help="use the equidistant closed form")
    p_con.add_argument("--s", type=float, help="Simson point height")
    p_con.add_argument("--delta", type=float, help="foot spacing")
    p_con.add_argument("--n", type=int, help="number of sides")
    p_con.add_argument("--x0", type=float, default=0.0,
                       help="first foot abscissa (default 0)")
    p_con.add_argument("--feet", help="feet as 'x,y;x,y;...'")
    p_con.add_argument("--simson-point", help="point as 'x,y'")
    p_con.add_argument("--simson-line", help="line as 'ax+by+c=0' or 'y=mx+k'")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify",
                           help="check scene polygon against the theorems")
    _add_shared(p_ver, "--out --in --quiet")
    p_ver.add_argument("--checks", default="all",
                       help="comma list from {%s} or all" % ", ".join(ALL_CHECKS))
    p_ver.add_argument("--triple", default="1,2,3",
                       help="side indices i,j,k for the lambert check")
    p_ver.add_argument("--negative-control", action="store_true",
                       help="perturb vertices before checking")
    p_ver.add_argument("--perturb", type=float, default=1e-3,
                       help="perturbation size for --negative-control")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for --negative-control noise, non-negative; "
                       "the noise is numpy's default_rng(SEED) stream")
    p_ver.set_defaults(func=cmd_verify)

    p_app = sub.add_parser("approx",
                           help="optimal piecewise-linear approximation")
    _add_shared(p_app, "--out --svg --quiet")
    p_app.add_argument("--s", type=float, required=True)
    p_app.add_argument("--a", type=float, required=True)
    p_app.add_argument("--b", type=float, required=True)
    p_app.add_argument("--n", type=int, required=True,
                       help="number of segments")
    p_app.add_argument("--delta", type=float, default=0.0)
    p_app.add_argument("--compare-quadrature", action="store_true",
                       help="also integrate the error numerically")
    p_app.add_argument("--perturb-knot", default=None, metavar="INDEX,EPS",
                       help="report the objective change of a knot nudge")
    p_app.set_defaults(func=cmd_approx)

    p_lim = sub.add_parser("limit",
                           help="convergence of the chain to the parabola")
    _add_shared(p_lim, "--out --quiet")
    p_lim.add_argument("--s", type=float, required=True)
    p_lim.add_argument("--window", type=float, default=4.0,
                       help="half-width of the sampled window")
    p_lim.add_argument("--m-max", type=int, default=6,
                       help="number of times delta = 1 is halved")
    p_lim.set_defaults(func=cmd_limit)
    return parser


# Flags whose values may start with "-" (e.g. --feet "-1,0;0,0;1,0"),
# which argparse would otherwise read as an option string.
_DASH_VALUE_FLAGS = ("--feet", "--simson-point", "--simson-line",
                     "--perturb-knot", "--triple")


def _glue_dash_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in _DASH_VALUE_FLAGS and len(nxt) > 1
                and nxt[0] == "-" and nxt[1] in "0123456789.xy"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_glue_dash_values(raw))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # Every float flag, named by its argparse dest, must be finite.
        for dest, value in vars(args).items():
            if isinstance(value, float):
                _require_finite("--" + dest.replace("_", "-"), value)
        code = args.func(args)
        # Flush here, so a reader that closed the pipe is caught below
        # and not only at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Send what is still buffered to the null device, or the flush at
        # interpreter exit raises again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
