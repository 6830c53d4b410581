"""Every instance of a check family, for tests.

A report keeps only each family's count and worst instance: the
verifiers hand ``VerificationReport.judge`` one residual per instance,
and judge keeps the worst.  ``JudgedRows`` wraps judge and records the
list it is given, so a test can still compare each instance against a
reference.
"""

from simsonpoly.kernel import bound
from simsonpoly.report import VerificationReport

# The families judged at a length limit and at an angle limit.
LENGTH_FAMILIES = ("midpoints-aligned", "optical", "archimedes-family")
ANGLE_FAMILIES = ("parallel-chords", "chord-tangent", "isogonal")


class JudgedRows:
    """The (indices, residual) rows of every family judged while it is
    installed, kept by the report entry judge added."""

    def __init__(self, monkeypatch):
        self._judged = []
        real = VerificationReport.judge

        def judge(report, name, residuals, index_of, limit, note=""):
            before = len(report.checks)
            real(report, name, residuals, index_of, limit, note)
            if len(report.checks) > before:
                self._judged.append((report.checks[-1], [
                    (tuple(index_of(k)), r) for k, r in enumerate(residuals)]))

        monkeypatch.setattr(VerificationReport, "judge", judge)

    def rows(self, report):
        """{family name: [(indices, residual), ...]} of the judged entries
        of report, each in check order."""
        return {check.name: rows for c in report.checks
                for check, rows in self._judged if check is c}


def rule_limit(name, scale, radius=0.0):
    """The limit family name is judged at, by its rule, at the report's
    scale; lambert's circle of the given radius may be larger."""
    if name == "lambert":
        return bound(max(radius, scale))
    if name in ANGLE_FAMILIES:
        return bound(max(1.0, scale))
    assert name in LENGTH_FAMILIES, name
    return bound(scale)


def max_residual(report):
    """The largest worst-instance residual of report, 0 when empty."""
    return max((c.residual for c in report.checks), default=0.0)
