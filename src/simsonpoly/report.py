"""Structured verification reports shared by the verifiers and the CLI."""

from __future__ import annotations

import math

from .kernel import REL_EPS, Frozen, NonFinite, bound


def _json_number(x: float) -> float | None:
    """x, or None (JSON null) when x is not finite: strict JSON has no
    Infinity or NaN."""
    return x if math.isfinite(x) else None


class CheckResult(Frozen):
    """Outcome of one check family: every instance of a property.

    name identifies the property and count the number of instances
    judged.  indices and residual are those of the worst instance, a NaN
    counting as worst: the vertices/sides involved and the measured
    deviation in the natural units of the check (length for incidence,
    radians for angles).  limit is the threshold the family was judged
    at; a fixed verdict (the ``simson`` check, a skip) has none and a
    single instance.
    """

    __slots__ = _fields = ("name", "indices", "residual", "passed", "note",
                           "limit", "count")

    def __init__(self, name: str, indices: tuple[int, ...], residual: float,
                 passed: bool, note: str = "", limit: float | None = None,
                 count: int = 1):
        self._set(name, indices, residual, passed, note, limit, count)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "indices": list(self.indices),
            "residual": _json_number(self.residual),
            "pass": self.passed,
            "count": self.count,
        }
        if self.limit is not None:
            d["limit"] = self.limit
            d["margin"] = _json_number(self.limit - self.residual)
        if self.note:
            d["note"] = self.note
        return d


class VerificationReport(Frozen):
    """Check family outcomes plus the scale they were judged at.

    The attributes are fixed; the list and the dict they hold grow.
    """

    __slots__ = _fields = ("checks", "tolerances")
    __hash__ = None

    def __init__(self, checks: list[CheckResult] | None = None,
                 tolerances: dict[str, float] | None = None):
        self._set([] if checks is None else checks,
                  {} if tolerances is None else tolerances)

    @property
    def overall(self) -> bool:
        """Conjunction of all checks; an empty report passes."""
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def set_limits(self, scale: float) -> tuple[float, float]:
        """Record a polygon's scale and return the thresholds at it as
        (length limit, angle limit); angles are judged at max(1, scale).
        Each entry states the limit it was judged at.  Raises NonFinite
        when the scale is not finite, so every limit is."""
        if not math.isfinite(scale):
            raise NonFinite(f"scale {scale} leaves the float range")
        self.tolerances["scale"] = scale
        return bound(scale), bound(max(1.0, scale))

    def judge(self, name: str, residuals: Sequence[float],
              index_of: Callable[[int], tuple[int, ...]], limit: float,
              note: str = "") -> None:
        """Add the family ``name``, one residual per instance; index_of(k)
        names instance k.

        The family passes when every residual is at most ``limit``, so a
        NaN fails.  Its reported instance is the first NaN, else the first
        maximum, and its count is the number of residuals.  This is the
        package's one rule for a NaN residual.  A family without instances
        adds no entry.
        """
        if residuals:
            if any(map(math.isnan, residuals)):
                k = next(k for k, r in enumerate(residuals) if math.isnan(r))
            else:
                k = residuals.index(max(residuals))
            self.checks.append(CheckResult(
                name, tuple(index_of(k)), residuals[k],
                residuals[k] <= limit, note, limit, len(residuals)))

    def extend(self, other: "VerificationReport") -> None:
        """Append the checks of other; its tolerances are not merged."""
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            # A report without a scale (no Simson point) names REL_EPS too.
            "tolerances": {"rel_eps": REL_EPS, **self.tolerances},
        }
