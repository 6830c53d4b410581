"""The value types behave as frozen records.

Every value class of the package compares by class and field values,
hashes its field tuple, prints as ``Name(field=value, ...)``, refuses
assignment and deletion, and survives ``pickle`` and ``copy`` bit for
bit without running its constructor again.
"""

import copy
import math
import pickle

import pytest

from simsonpoly.approx import ApproxProblem, ApproxResult, InvalidProblem
from simsonpoly.equidistant import EquidistantConfig, EquidistantPolygon, \
    SimsonPolygonFrame, make_equidistant
from simsonpoly.kernel import Circle, GeometryError, InvalidConfig, Line, \
    NonFinite, Parabola, Point, Tolerance
from simsonpoly.limits import ConvergenceRow
from simsonpoly.report import CheckResult, VerificationReport
from simsonpoly.simson import CompleteQuadrilateral, DegenerateSide, \
    Polygon, SimsonCertificate

P0, P1, P2 = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
# Renormalising its unit coefficients changes their last bits, so a copy
# that ran the constructor again would differ.
DIAGONAL = Line(1.0, 1.0, 1.0)
CHECK = CheckResult("x", (1,), 0.5, True)
QUAD_LINES = (Line(0.0, 1.0, 0.0), Line(1.0, 0.0, 0.0),
              Line(1.0, 1.0, -1.0), Line(1.0, -2.0, -3.0))
CONFIG = EquidistantConfig(1.0, 0.0, 1.0, 4)
OCTAGON = make_equidistant(EquidistantConfig(1.0, -1.5, 1.0, 8))
FEET = (Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0))

# (class, keyword arguments, repr)
CASES = [
    (Tolerance, dict(abs_eps=1e-9, rel_eps=1e-6),
     "Tolerance(abs_eps=1e-09, rel_eps=1e-06)"),
    (Point, dict(x=1.0, y=2.0), "Point(x=1.0, y=2.0)"),
    (Line, dict(a=0.0, b=1.0, c=2.0), "Line(a=0.0, b=1.0, c=2.0)"),
    (Line, dict(a=1.0, b=1.0, c=1.0), "Line(a=0.7071067811865475, "
     "b=0.7071067811865475, c=0.7071067811865475)"),
    (Circle, dict(center=P1, radius=2.0),
     "Circle(center=Point(x=1.0, y=0.0), radius=2.0)"),
    (Parabola, dict(s=1.0, c=0.25), "Parabola(s=1.0, c=0.25)"),
    (Polygon, dict(vertices=(P0, P1, P2)),
     f"Polygon(vertices=({P0!r}, {P1!r}, {P2!r}))"),
    (SimsonCertificate, dict(simson_point=P2, simson_line=DIAGONAL,
                             projections=(P0, P1), residual=0.0),
     f"SimsonCertificate(simson_point={P2!r}, simson_line={DIAGONAL!r}, "
     f"projections=({P0!r}, {P1!r}), residual=0.0)"),
    (CompleteQuadrilateral, dict(lines=QUAD_LINES),
     f"CompleteQuadrilateral(lines={QUAD_LINES!r})"),
    (EquidistantConfig, dict(s=1.0, x0=0.0, delta=1.0, n=4),
     "EquidistantConfig(s=1.0, x0=0.0, delta=1.0, n=4)"),
    (SimsonPolygonFrame, dict(vertices=(P0, P1, P2), projections=FEET,
                              simson_point=P2),
     f"SimsonPolygonFrame(vertices=({P0!r}, {P1!r}, {P2!r}), "
     f"projections={FEET!r}, simson_point={P2!r})"),
    (EquidistantPolygon, dict(vertices=(P0, P1, P2), projections=FEET,
                              simson_point=P2, config=CONFIG),
     f"EquidistantPolygon(vertices=({P0!r}, {P1!r}, {P2!r}), "
     f"projections={FEET!r}, simson_point={P2!r}, config={CONFIG!r})"),
    (CheckResult, dict(name="x", indices=(1,), residual=0.5, passed=True),
     "CheckResult(name='x', indices=(1,), residual=0.5, passed=True, "
     "note='', limit=None, count=1)"),
    (VerificationReport, dict(checks=[CHECK], tolerances={"scale": 2.0}),
     f"VerificationReport(checks=[{CHECK!r}], tolerances={{'scale': 2.0}})"),
    (ConvergenceRow, dict(delta=0.5, hausdorff=0.125, bound=0.125),
     "ConvergenceRow(delta=0.5, hausdorff=0.125, bound=0.125, "
     "chain_to_parabola=None)"),
    (ApproxProblem, dict(s=1.0, delta=0.0, a=0.0, b=4.0, n=4),
     "ApproxProblem(s=1.0, delta=0.0, a=0.0, b=4.0, n=4)"),
    (ApproxResult, dict(knots=(0.0, 1.0), knot_points=((0.0, 0.0),
                                                       (1.0, 0.25)),
                        l1_error=0.5, l2_error=0.1),
     "ApproxResult(knots=(0.0, 1.0), knot_points=((0.0, 0.0), (1.0, 0.25)), "
     "l1_error=0.5, l2_error=0.1)"),
]


@pytest.mark.parametrize("cls, kwargs, text", CASES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _)
                              in enumerate(CASES)])
def test_value_type_contract(cls, kwargs, text):
    value = cls(**kwargs)
    assert repr(value) == text
    # Positional and keyword construction agree; equality is by value.
    twin = cls(*kwargs.values())
    assert value == twin and not value != twin and value is not twin
    assert value.__eq__(object()) is NotImplemented
    if cls is VerificationReport:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is cls
        # A float's repr names its bits, the sign of zero included.
        assert clone == value and repr(clone) == repr(value)


def test_equality_needs_the_same_class():
    assert Point(1.0, 0.0) != Parabola(1.0, 0.0)
    assert hash(Point(1.0, 0.0)) == hash(Parabola(1.0, 0.0))
    assert hash(Point(1.0, 2.0)) == hash((1.0, 2.0))
    frame = SimsonPolygonFrame(OCTAGON.vertices, OCTAGON.projections,
                               OCTAGON.simson_point)
    assert frame != OCTAGON and OCTAGON != frame
    assert Point(1.0, 2.0) != Point(1.0, 2.5)
    assert Point(0.0, 0.0) == Point(-0.0, 0.0)


def test_nan_fields_compare_by_identity_as_tuples_do():
    check = CheckResult("x", (1,), math.nan, False)
    assert check == check
    assert check != CheckResult("x", (1,), float("nan"), False)


def test_copies_skip_the_constructor():
    # Line's constructor renormalises; a copy keeps the stored bits.
    assert Line(DIAGONAL.a, DIAGONAL.b, DIAGONAL.c) != DIAGONAL
    assert pickle.loads(pickle.dumps(DIAGONAL)) == DIAGONAL
    # The quadrilateral's meets live in a slot outside its fields.
    quad = CompleteQuadrilateral(QUAD_LINES)
    for clone in (pickle.loads(pickle.dumps(quad)), copy.deepcopy(quad)):
        assert [clone.a, clone.b, clone.c, clone.d, clone.e, clone.f] == \
            [quad.a, quad.b, quad.c, quad.d, quad.e, quad.f]
    assert copy.deepcopy(OCTAGON) == OCTAGON
    assert copy.deepcopy(OCTAGON).chain == OCTAGON.chain


def test_defaults():
    assert Tolerance() == Tolerance(abs_eps=1e-9, rel_eps=1e-9)
    assert Parabola(2.0) == Parabola(s=2.0, c=0.0)
    check = CheckResult("x", (1, 2), 0.5, True)
    assert (check.note, check.limit, check.count) == ("", None, 1)
    assert CheckResult("x", (2,), 0.5, True, count=2).count == 2
    assert ConvergenceRow(0.5, 0.1, 0.1).chain_to_parabola is None
    report, other = VerificationReport(), VerificationReport()
    assert (report.checks, report.tolerances) == ([], {})
    report.add(CHECK)
    assert other.checks == []


@pytest.mark.parametrize("build, error, message", [
    (lambda: Tolerance(0.0, 1e-9), ValueError,
     "tolerance components must be positive"),
    (lambda: Point(math.inf, 0.0), NonFinite, r"non-finite point \(inf, 0.0\)"),
    (lambda: Line(0.0, 0.0, 1.0), ValueError,
     r"line requires \(a, b\) != \(0, 0\)"),
    (lambda: Line(1.0, 0.0, math.nan), NonFinite,
     r"non-finite line \(1.0, 0.0, nan\)"),
    (lambda: Circle(P0, 0.0), ValueError,
     "circle radius must be positive, got 0.0"),
    (lambda: Circle(P0, math.inf), NonFinite, "non-finite circle radius inf"),
    (lambda: Parabola(0.0), InvalidConfig, "parabola needs s != 0, got 0.0"),
    (lambda: Parabola(1.0, math.nan), InvalidConfig,
     "parabola offset must be finite, got nan"),
    (lambda: Polygon((P0, P1)), GeometryError,
     "polygon needs at least 3 vertices"),
    (lambda: Polygon((P0, P1, P1)), DegenerateSide,
     "consecutive vertices 1 and 2 coincide"),
    (lambda: CompleteQuadrilateral(QUAD_LINES[:3]), GeometryError,
     "complete quadrilateral needs exactly 4 lines"),
    (lambda: EquidistantConfig(1.0, 0.0, 1.0, 2), InvalidConfig,
     "n must be an integer >= 3, got 2"),
    (lambda: EquidistantConfig(1.0, 0.0, -1.0, 4), InvalidConfig,
     "delta must be positive, got -1.0"),
    (lambda: SimsonPolygonFrame((P0, P1, P2), FEET[:2], P2), InvalidConfig,
     "vertex and projection counts differ"),
    (lambda: EquidistantPolygon((P0, P1), FEET[:2], P2, CONFIG),
     InvalidConfig, "need at least 3 vertices"),
    (lambda: ApproxProblem(1.0, 0.0, 1.0, 1.0, 4), InvalidProblem,
     r"need a < b, got \[1.0, 1.0\]"),
    (lambda: ApproxProblem(1.0, 0.0, 0.0, 1.0, 1.5), InvalidProblem,
     "n must be an integer >= 1, got 1.5"),
])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
