"""Structured verification reports shared by the verifiers and the CLI."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

from .kernel import REL_EPS, Frozen, bound


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
                 passed: bool, note: str = "", limit: Optional[float] = None,
                 count: int = 1):
        self._set(name, indices, residual, passed, note, limit, count)

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


class VerificationReport(Frozen):
    """Check family outcomes plus the tolerances they were judged at.

    The attributes are fixed; the list and the dict they hold grow.
    """

    __slots__ = _fields = ("checks", "tolerances")
    __hash__ = None

    def __init__(self, checks: Optional[list[CheckResult]] = None,
                 tolerances: Optional[dict[str, float]] = None):
        self._set([] if checks is None else checks,
                  {} if tolerances is None else tolerances)

    @property
    def overall(self) -> bool:
        """Conjunction of all checks; an empty report passes."""
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def set_limits(self, scale: float) -> tuple[float, float]:
        """Record the thresholds at a polygon's scale and return them as
        (length limit, angle limit); angles are judged at max(1, scale)."""
        length_limit = bound(scale)
        angle_limit = bound(max(1.0, scale))
        self.tolerances.update(rel_eps=REL_EPS,
                               scale=scale, length_limit=length_limit,
                               angle_limit=angle_limit)
        return length_limit, angle_limit

    def judge(self, name: str,
              blocks: Iterable[tuple[Sequence[float],
                                     Callable[[int], tuple[int, ...]]]],
              limit: float, note: str = "") -> None:
        """Add the family ``name``, reduced block by block.

        A block is a list of residuals and a function naming instance k
        of it; only the count and the worst instance are kept, so the
        blocks may be made one at a time.  The family passes when every
        residual is at most ``limit``, so a NaN fails.  Its reported
        instance is the first NaN, else the first maximum, in block
        order.  A family without instances adds no entry.
        """
        count, worst, indices = 0, None, ()
        for residuals, index_of in blocks:
            count += len(residuals)
            # A NaN worst is final.
            if not residuals or worst != worst:
                continue
            if any(map(math.isnan, residuals)):
                k = next(k for k, r in enumerate(residuals) if math.isnan(r))
            else:
                top = max(residuals)
                if worst is not None and not top > worst:
                    continue
                k = residuals.index(top)
            worst, indices = residuals[k], tuple(index_of(k))
        if count:
            self.checks.append(CheckResult(name, indices, worst,
                                           worst <= limit, note, limit,
                                           count))

    def extend(self, other: "VerificationReport") -> None:
        """Append the checks of other; its tolerances are not merged."""
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "tolerances": dict(self.tolerances),
        }
