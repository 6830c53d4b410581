import pytest

from judged import JudgedRows


@pytest.fixture
def judged(monkeypatch):
    """Records every instance VerificationReport.judge is given."""
    return JudgedRows(monkeypatch)
