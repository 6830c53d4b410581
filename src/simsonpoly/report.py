"""Structured verification reports shared by the verifiers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernel import Tolerance


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single geometric check.

    name identifies the property, indices the vertices/sides involved,
    residual the measured deviation in the natural units of the check
    (length for incidence, radians for angles).
    """

    name: str
    indices: tuple[int, ...]
    residual: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "indices": list(self.indices),
            "residual": self.residual,
            "pass": self.passed,
        }
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    """A list of check outcomes plus the tolerances they were judged at."""

    checks: list[CheckResult] = field(default_factory=list)
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        """Conjunction of all checks; an empty report passes."""
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def set_limits(self, scale: float, tol: Tolerance) -> tuple[float, float]:
        """Record the thresholds at a polygon's scale and return them as
        (length limit, angle limit); angles are judged at max(1, scale)."""
        length_limit = tol.bound(scale)
        angle_limit = tol.bound(max(1.0, scale))
        self.tolerances.update(abs_eps=tol.abs_eps, rel_eps=tol.rel_eps,
                               scale=scale, length_limit=length_limit,
                               angle_limit=angle_limit)
        return length_limit, angle_limit

    def judge(self, name: str, indices: tuple[int, ...], residual: float,
              limit: float, note: str = "") -> None:
        """Add the check ``name``, passed when ``residual <= limit``."""
        self.checks.append(CheckResult(name, indices, residual,
                                       residual <= limit, note))

    def extend(self, other: "VerificationReport") -> None:
        """Append the checks of other; its tolerances are not merged."""
        self.checks.extend(other.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "tolerances": dict(self.tolerances),
        }
