"""Every instance of a check family, for tests.

A report keeps only each family's count and worst instance: the
verifiers hand ``VerificationReport.judge`` their residuals block by
block, and judge reduces each block as it arrives.  ``JudgedRows`` wraps
judge and records every block it is given, so a test can still compare
each instance against a reference.
"""

from simsonpoly.report import VerificationReport


class JudgedRows:
    """The (indices, residual) rows of every family judged while it is
    installed, kept by the report entry judge added."""

    def __init__(self, monkeypatch):
        self._judged = []
        real = VerificationReport.judge

        def judge(report, name, blocks, limit, note=""):
            rows = []

            def recorded():
                for residuals, index_of in blocks:
                    rows.extend((tuple(index_of(k)), r)
                                for k, r in enumerate(residuals))
                    yield residuals, index_of

            before = len(report.checks)
            real(report, name, recorded(), limit, note)
            if len(report.checks) > before:
                self._judged.append((report.checks[-1], rows))

        monkeypatch.setattr(VerificationReport, "judge", judge)

    def rows(self, report):
        """{family name: [(indices, residual), ...]} of the judged entries
        of report, each in check order."""
        return {check.name: rows for c in report.checks
                for check, rows in self._judged if check is c}


def max_residual(report):
    """The largest worst-instance residual of report, 0 when empty."""
    return max((c.residual for c in report.checks), default=0.0)
