"""Result types shared by the integrators."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from .integrand import midpoint


class Status(enum.Enum):
    """Outcome of a finite refinement probe.

    These labels corroborate rather than prove: a finite ladder of divisions
    can only ever exhibit behaviour consistent with convergence, divergence
    or tag-sensitivity.
    """

    CONVERGED = "converged"
    DIVERGED = "diverged"
    OSCILLATING = "oscillating"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # CSV/JSON friendly
        return self.value


# CLI exit codes keyed by status.
EXIT_CODES = {
    Status.CONVERGED: 0,
    Status.DIVERGED: 2,
    Status.OSCILLATING: 2,
    Status.INCONCLUSIVE: 3,
}


@dataclass(frozen=True)
class TraceRow:
    """One refinement level: cell count and the spread of strategy sums."""

    level: int
    n: int
    sum_min: object
    sum_max: object

    @property
    def spread(self):
        return self.sum_max - self.sum_min

    @property
    def midpoint(self):
        if self.sum_min == self.sum_max:
            return self.sum_min
        return midpoint(self.sum_min, self.sum_max)


@dataclass(frozen=True)
class IntegralResult:
    """Estimate, status, and the per-level trace that justified them."""

    status: Status
    estimate: Optional[object]
    trace: Tuple[TraceRow, ...]
    error_bound: Optional[object] = None
    strategy_sums: Optional[Mapping[str, Tuple[object, ...]]] = None

    def __repr__(self) -> str:
        return (
            f"IntegralResult(status={self.status.value}, estimate={self.estimate!r}, "
            f"levels={len(self.trace)}, final_n={self.trace[-1].n if self.trace else 0})"
        )
