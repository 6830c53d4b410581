"""Traced launcher: runs one simsonpoly CLI request with layer spans.

    python3 perfbench/traced.py TRACE_FILE REQUEST_ID -- CLI_ARGS...

It times ``import numpy`` and ``import simsonpoly.cli``, wraps the public
layer functions from outside (the library is not modified), calls
``simsonpoly.cli.main`` and writes the spans and call counts to
TRACE_FILE as JSON when the request ends.  The exit code is main's.

A span is ``[name, start, end, parent, attrs]``; ``parent`` indexes the
span that was open when this one started (-1 for none).  Kernel
primitives are counted, not spanned, because they run up to ~10^5 times
per request.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, attrs=None):
        """fn wrapped in a span; attrs(args, result) adds span attributes."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1], None]
            spans.append(record)
            stack.append(idx)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra, request_id=self.request_id, spans=self.spans,
                   counts=self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(modules, original, replacement) -> None:
    """Replace every module-level binding of original (from-imports too)."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _svg_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _search_attrs(args, result):
    return {"n": args[0].n, "hit": result is not None}


def _report_attrs(args, result):
    return {"checks": len(args[0].checks)}


def install(tracer: Tracer) -> None:
    from simsonpoly import (approx, equidistant, kernel, limits, report,
                            scene, simson, svgfig)
    modules = [m for name, m in sys.modules.items()
               if name == "simsonpoly" or name.startswith("simsonpoly.")]

    spanned = [
        ("simson.find_simson_point", simson.find_simson_point, _search_attrs),
        ("simson.is_simson_point", simson.is_simson_point, None),
        ("simson.characterization_defect", simson.characterization_defect,
         None),
        ("simson.construct_simson_polygon", simson.construct_simson_polygon,
         None),
        ("equidistant.make_equidistant", equidistant.make_equidistant, None),
        ("equidistant.frame", equidistant.frame_from_certificate, None),
        ("equidistant.frame", equidistant.equidistant_from_frame, None),
        ("equidistant.verify_parallel_chords",
         equidistant.verify_parallel_chords, None),
        ("equidistant.verify_isogonal", equidistant.verify_isogonal, None),
        ("equidistant.verify_optical", equidistant.verify_optical, None),
        ("equidistant.verify_archimedes", equidistant.verify_archimedes, None),
        ("equidistant.verify_lambert", equidistant.verify_lambert, None),
        ("approx.optimal_knots", approx.optimal_knots, None),
        ("approx.quadrature", approx.quadrature_l1, None),
        ("approx.quadrature", approx.quadrature_l2, None),
        ("approx.total_error_objective", approx.total_error_objective, None),
        ("limits.convergence_table", limits.convergence_table, None),
        ("limits.chain_for_window", limits.chain_for_window, None),
        ("limits.hausdorff_chain_parabola", limits.hausdorff_chain_parabola,
         None),
        ("limits.point_to_parabola_distance",
         limits.point_to_parabola_distance, None),
        ("svgfig.scene_to_svg", svgfig.scene_to_svg, _svg_bytes),
        ("svgfig.approx_figure", svgfig.approx_figure, _svg_bytes),
    ]
    for name, fn, attrs in spanned:
        _rebind(modules, fn, tracer.span(name, fn, attrs))
    for fn in (kernel.line_through, kernel.line_intersection,
               kernel.circumcircle, kernel.foot_of_perpendicular,
               kernel.best_fit_line):
        _rebind(modules, fn, tracer.counter(f"kernel.{fn.__name__}", fn))

    # Methods are looked up on the class, so they are patched there.
    simson.Polygon.is_nondegenerate = tracer.span(
        "simson.is_nondegenerate", simson.Polygon.is_nondegenerate)
    report.VerificationReport.to_dict = tracer.span(
        "report.to_dict", report.VerificationReport.to_dict, _report_attrs)
    scene.SceneDocument.to_json = tracer.span(
        "scene.to_json", scene.SceneDocument.to_json)
    scene.SceneDocument.from_json = classmethod(tracer.span(
        "scene.from_json", scene.SceneDocument.from_json.__func__))


def main() -> int:
    trace_file, request_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: traced.py TRACE_FILE REQUEST_ID -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    t0 = perf()
    import numpy  # noqa: F401
    t1 = perf()
    import simsonpoly.cli
    t2 = perf()
    tracer = Tracer(request_id)
    install(tracer)
    main_span = tracer.span("cli.main", simsonpoly.cli.main)
    try:
        return main_span(argv)
    finally:
        tracer.dump(trace_file, {"import_numpy_ms": (t1 - t0) * 1e3,
                                 "import_simsonpoly_ms": (t2 - t1) * 1e3})


if __name__ == "__main__":
    sys.exit(main())
