"""Optimal piecewise linear interpolation of a parabola in the L1 sense.

For f(x) = (x^2 - delta^2)/(4 s) and an interpolant l that joins the
points (x_i, f(x_i)) of a knot grid a = x_0 < ... < x_n = b, the error on
one segment is f - l = (x - x_i)(x - x_{i+1})/(4 s), of one sign, so

    int_{x_i}^{x_{i+1}} |f - l| dx = (x_{i+1} - x_i)^3 / (24 |s|).

The total L1 error is therefore Sum h_i^3 / (24 |s|), minimized over
interior knots exactly when the h_i are equal; the position of the
interval never enters.  One segment's errors are those that
optimal_knots gives for n = 1.  The quadrature routines below integrate
the error polynomial per segment with Gauss-Legendre nodes and are kept
free of the closed forms so the two routes stay independent checks of
each other.
"""

from __future__ import annotations

import json
import math

from .kernel import MAX_SEGMENTS, Frozen, GeometryError, InvalidConfig, \
    NonFinite, Parabola, TooManySegments, UsageError


class UnorderedKnots(GeometryError):
    """Knot sequence not strictly increasing."""


def _power_ratio(count: int, h: float, k: int, denom: float) -> float:
    """count * h^k / denom, the error of count segments of width h; inf
    where Python raises instead (h^k overflowing, denom underflowed to 0)."""
    try:
        return count * h ** k / denom
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _require_finite(values, s: float, a: float, b: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NonFinite(f"s = {s} on [{a}, {b}] leaves the float range")


class ApproxProblem(Frozen):
    """Approximate f(x) = (x^2 - delta^2)/(4 s) on [a, b] with n segments.

    ``parabola``, not a field, is that curve.  [a, b] and n are judged
    first, as usage errors; then delta, and s as the curve is built, as
    geometry errors."""

    _fields = ("s", "delta", "a", "b", "n")
    __slots__ = (*_fields, "parabola")

    def __init__(self, s: float, delta: float, a: float, b: float, n: int):
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise UsageError(f"need a < b, got [{a}, {b}]")
        if not (isinstance(n, int) and n >= 1):
            raise UsageError(f"n must be an integer >= 1, got {n}")
        if n > MAX_SEGMENTS:
            raise TooManySegments(f"n must be at most {MAX_SEGMENTS}, got {n}")
        if not (math.isfinite(delta) and delta >= 0.0):
            raise InvalidConfig(f"delta must be >= 0, got {delta}")
        if not math.isfinite(delta * delta):
            raise NonFinite(
                f"delta = {delta} leaves the float range when squared")
        object.__setattr__(self, "parabola", Parabola(s, delta * delta))
        self._set(s, delta, a, b, n)

    def f(self, x: float) -> float:
        return self.parabola.y_at(x)


class ApproxResult(Frozen):
    """Optimal knot grid with its exact L1 and L2 interpolation errors."""

    __slots__ = _fields = ("knots", "knot_points", "l1_error", "l2_error")

    def __init__(self, knots: tuple[float, ...],
                 knot_points: tuple[tuple[float, float], ...],
                 l1_error: float, l2_error: float):
        self._set(knots, knot_points, l1_error, l2_error)


def _validated(knots: Sequence[float]) -> list[float]:
    """The knots as a list; raises UnorderedKnots unless there are at
    least two and they strictly increase."""
    ks = list(knots)
    if len(ks) < 2:
        raise UnorderedKnots("need at least two knots")
    for u, v in zip(ks, ks[1:]):
        if not u < v:
            raise UnorderedKnots(f"knots not strictly increasing at {u}, {v}")
    return ks


def total_error_objective(p: ApproxProblem, interior: Sequence[float]) -> float:
    """Sum of cubed segment widths for the full knot vector [a, *interior, b].

    This is the L1 error up to the constant factor 1/(24|s|), which is
    what the optimality argument actually minimizes.  Raises
    NonFinite when the sum is not a finite float.
    """
    if len(interior) != p.n - 1:
        raise InvalidConfig(
            f"expected {p.n - 1} interior knots, got {len(interior)}")
    knots = _validated([p.a, *interior, p.b])
    try:
        total = math.fsum((v - u) ** 3 for u, v in zip(knots, knots[1:]))
    except OverflowError:
        total = math.inf
    _require_finite((total,), p.s, p.a, p.b)
    return total


def optimal_knots(p: ApproxProblem) -> ApproxResult:
    """Equally spaced knots, the unique minimizer of the L1 error.

    By power mean (or Lagrange) the sum of h_i^3 under fixed total width
    is smallest when all h_i coincide, so the optimum is the arithmetic
    progression from a to b, whose last knot is b itself (a + n h can
    miss it by rounding).  Before any caller can emit the result, raises
    NonFinite when a knot, knot value or error is not a finite float,
    and UnorderedKnots when [a, b] is too narrow for n segments to give
    strictly increasing floats.
    """
    h = (p.b - p.a) / p.n
    knots = [p.a + i * h for i in range(p.n)] + [p.b]
    pts = tuple((x, p.f(x)) for x in knots)
    l1 = _power_ratio(p.n, h, 3, 24.0 * abs(p.s))
    l2 = _power_ratio(p.n, h, 5, 480.0 * p.s * p.s)
    _require_finite((h, l1, l2, *(y for _, y in pts)), p.s, p.a, p.b)
    return ApproxResult(knots=tuple(_validated(knots)), knot_points=pts,
                        l1_error=l1, l2_error=l2)


def width_spread(p: ApproxProblem) -> float:
    """A bound R on |h1 - h2| for any two adjacent widths of the grid
    :func:`optimal_knots` builds, each the float difference of its knots.

    In exact arithmetic the widths are equal; R adds up the roundings.
    Every value the construction rounds is below 4M, M = max(|a|, |b|),
    so each rounding is off by at most q = ulp(4M)/2 = 2 ulp(M).  Against
    a + i h, with h the float (b - a)/n, an interior knot is off by at
    most 2q (i h, then a + i h), x_0 = a by nothing, and x_n = b by
    |b - a - n h| <= q + n ulp(h)/2 (b - a, then its quotient by n).  Two
    adjacent exact widths therefore differ by at most 8q, or by
    7q + n ulp(h)/2 at the last knot, and rounding the two widths adds
    2q: R = 10q + n ulp(h)/2.  The float returned has q + n ulp(h)/2 to
    spare, more than the rounding of its own sum.
    """
    q = 2.0 * math.ulp(max(abs(p.a), abs(p.b)))
    return 11.0 * q + p.n * math.ulp((p.b - p.a) / p.n)


# The 10-point Gauss-Legendre rule on [-1, 1]: the floats of numpy's
# ``polynomial.legendre.leggauss(10)``, pinned bitwise by a test.
_GL_NODES = (
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
)
_GL_WEIGHTS = (
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
)


def _segment_quadrature(p: ApproxProblem, xi: float, xj: float,
                        squared: bool) -> float:
    """Gauss-Legendre integral of (f - l) or (f - l)^2 over one segment.

    The integrand is evaluated pointwise from f and the chord; degree 10
    rules are exact for it, so the only error is roundoff.  |f - l| keeps
    one sign per segment, hence the absolute value outside the signed
    integral in the L1 case.
    """
    f = p.parabola.y_at
    mid = 0.5 * (xi + xj)
    half = 0.5 * (xj - xi)
    fi, fj = f(xi), f(xj)
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        x = mid + half * node
        chord = fi + (x - xi) * (fj - fi) / (xj - xi)
        err = f(x) - chord
        total += weight * (err * err if squared else err)
    if squared:
        return half * total
    return abs(half * total)


def _quadrature(p: ApproxProblem, knots: Sequence[float],
                squared: bool) -> float:
    ks = _validated(knots)
    try:
        return math.fsum(_segment_quadrature(p, u, v, squared)
                         for u, v in zip(ks, ks[1:]))
    except OverflowError:
        # The segments' integrals are >= 0: their sum passed the float range.
        return math.inf


def quadrature_l1(p: ApproxProblem, knots: Sequence[float]) -> float:
    """L1 interpolation error by per-segment quadrature.

    Independent oracle for the closed form: no h^3 shortcut is used.
    """
    return _quadrature(p, knots, squared=False)


def quadrature_l2(p: ApproxProblem, knots: Sequence[float]) -> float:
    """Squared L2 interpolation error by per-segment quadrature."""
    return _quadrature(p, knots, squared=True)


# ------------------------------------------------------------------ command

def _parse_perturb_knot(spec: str) -> tuple[int, float]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise UsageError("--perturb-knot expects INDEX,EPS")
    try:
        idx, eps = int(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad --perturb-knot value {spec!r}")
    if not math.isfinite(eps):
        raise UsageError(f"--perturb-knot must be finite, got {eps}")
    # A zero nudge moves no knot, so it cannot test optimality.
    if eps == 0.0:
        raise UsageError("--perturb-knot EPS must be nonzero")
    return idx, eps


def approx_request(args) -> tuple[str, str | None, bool]:
    """The JSON and SVG figure (None without --svg) of ``approx``, and
    whether a --perturb-knot nudge found the knots optimal."""
    if args.perturb_knot is not None:
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
    optimal = True
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
    if args.perturb_knot is not None:
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
        optimal = not (math.copysign(1.0, e) * (h1 - h2 + e)
                       < -width_spread(problem))
    svg = None
    if args.svg is not None:
        from .svgfig import approx_figure
        svg = approx_figure(problem, result)
    return json.dumps(payload, indent=2, allow_nan=False), svg, optimal
