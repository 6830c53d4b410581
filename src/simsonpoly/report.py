"""Structured verification reports shared by the verifiers and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .kernel import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check family: every instance of a property.

    name identifies the property.  pair_indices and residuals hold one
    entry per instance (see rows()): the vertices/sides involved and the
    measured deviation in the natural units of the check (length for
    incidence, radians for angles).  indices and residual are those of
    the worst instance, a NaN counting as worst.  limit is the threshold
    the family was judged at; a fixed verdict (the ``simson`` check, a
    skip) has none and a single instance.
    """

    name: str
    indices: tuple[int, ...]
    residual: float
    passed: bool
    note: str = ""
    limit: Optional[float] = None
    pair_indices: Sequence[tuple[int, ...]] = ()
    residuals: Sequence[float] = ()

    def __post_init__(self):
        if not self.residuals:
            object.__setattr__(self, "pair_indices", (self.indices,))
            object.__setattr__(self, "residuals", (self.residual,))

    @property
    def count(self) -> int:
        return len(self.residuals)

    def rows(self) -> list[tuple[tuple[int, ...], float]]:
        """(indices, residual) of every instance, in check order."""
        return list(zip(self.pair_indices, self.residuals))

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "indices": list(self.indices),
            "residual": self.residual,
            "pass": self.passed,
            "count": self.count,
        }
        if self.limit is not None:
            d["limit"] = self.limit
            d["margin"] = self.limit - self.residual
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    """Check family outcomes plus the tolerances they were judged at."""

    checks: list[CheckResult] = field(default_factory=list)
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        """Conjunction of all checks; an empty report passes."""
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def set_limits(self, scale: float) -> tuple[float, float]:
        """Record the thresholds at a polygon's scale and return them as
        (length limit, angle limit); angles are judged at max(1, scale)."""
        length_limit = DEFAULT_TOLERANCE.bound(scale)
        angle_limit = DEFAULT_TOLERANCE.bound(max(1.0, scale))
        self.tolerances.update(abs_eps=DEFAULT_TOLERANCE.abs_eps,
                               rel_eps=DEFAULT_TOLERANCE.rel_eps,
                               scale=scale, length_limit=length_limit,
                               angle_limit=angle_limit)
        return length_limit, angle_limit

    def judge(self, name: str, indices: Sequence[tuple[int, ...]],
              residuals: Sequence[float], limit: float,
              note: str = "") -> None:
        """Add the family ``name``, one residual per entry of indices.

        It passes when every residual is at most ``limit``, so a NaN
        fails.  Its reported instance is the first NaN, else the first
        maximum.  A family without instances adds no entry.
        """
        if not residuals:
            return
        if any(map(math.isnan, residuals)):
            worst = next(k for k, r in enumerate(residuals) if math.isnan(r))
        else:
            worst = residuals.index(max(residuals))
        residual = residuals[worst]
        self.checks.append(CheckResult(
            name, tuple(indices[worst]), residual, residual <= limit, note,
            limit, indices, residuals))

    def extend(self, other: "VerificationReport") -> None:
        """Append the checks of other; its tolerances are not merged."""
        self.checks.extend(other.checks)

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "tolerances": dict(self.tolerances),
        }
