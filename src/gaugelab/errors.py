"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional

import numpy as np

# Deepest refinement level anywhere in the package, for schedules in
# `divisions`, dyadic paths in `stochastic` and the CLI's limits: a level-26
# float division is three 512 MiB arrays, and refine_path briefly holds
# about three 512 MiB paths.  It lives here, beside the errors that enforce
# it, so that modules reading it need not import `divisions`.
MAX_LEVEL = 26


def _plain(value: object) -> object:
    """A numpy scalar as the Python number it holds, so messages read
    `inf`, not `np.float64(inf)`; exact scalars pass through unchanged."""
    return value.item() if isinstance(value, np.generic) else value


class GaugeLabError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(GaugeLabError, ValueError):
    """An argument violated a constructor or operation precondition."""


class ScalarRegimeError(GaugeLabError, TypeError):
    """Exact-arithmetic machinery was handed a binary float.

    Floats are all rational, so counterexamples that hinge on telling
    rational points from irrational ones silently evaporate under float
    arithmetic.  Rejecting the mix at construction time keeps the two
    scalar regimes honest.
    """


class GaugeContractError(GaugeLabError):
    """A gauge evaluated to a non-positive width somewhere."""

    def __init__(self, point: object, value: object):
        self.point = point
        self.value = value
        super().__init__(
            f"gauge returned non-positive width {_plain(value)!r} at s={_plain(point)!r}"
        )


class GaugeTooDemandingError(GaugeLabError):
    """Bisection hit its depth cap before every cell became fine.

    Carries the subinterval that could not be resolved so callers can
    report where the gauge collapses.
    """

    def __init__(self, lo: object, hi: object, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        super().__init__(
            f"gauge too demanding: no fine tag for ]{_plain(lo)!r}, {_plain(hi)!r}] "
            f"within depth {depth}"
        )


class IntegrandEvalError(GaugeLabError):
    """Integrand evaluation failed; carries the offending tagged cell."""

    def __init__(self, tag: object, lo: object, hi: object, cause: BaseException):
        self.tag, self.lo, self.hi = _plain(tag), _plain(lo), _plain(hi)
        super().__init__(
            f"integrand evaluation failed at tag={self.tag!r} "
            f"on ]{self.lo!r}, {self.hi!r}]: {cause}"
        )


class OracleInconsistencyError(GaugeLabError):
    """A sampled function value escaped the extrema oracle's [inf, sup]."""

    def __init__(self, point: object, value: object, bounds: tuple):
        self.point = point
        self.value = value
        self.bounds = bounds
        plain_bounds = tuple(_plain(b) for b in bounds)
        super().__init__(
            f"extrema oracle inconsistent: f({_plain(point)!r}) = {_plain(value)!r} "
            f"outside {plain_bounds!r}"
        )


class NonFiniteSumError(GaugeLabError):
    """A strategy's float sum at some refinement level is infinite or NaN."""

    def __init__(self, strategy: str, level: int, value: float):
        self.strategy = strategy
        self.level = level
        self.value = value
        super().__init__(
            f"strategy {strategy!r} summed to {_plain(value)!r} at level {level}"
        )


class MonotonicityError(GaugeLabError):
    """Monotonicity could not be established: a distribution function failed
    its spot check, or an expression's monotonicity could not be certified."""


class EstimatorFailure(GaugeLabError):
    """A Monte Carlo estimator raised on some path; carries the path id."""

    def __init__(self, path_id: int, cause: BaseException):
        self.path_id = path_id
        super().__init__(f"estimator failed on path id={path_id}: {cause}")


class NonFiniteEstimateError(GaugeLabError):
    """A Monte Carlo estimator value or statistic is infinite or NaN.

    `path_id` names the first path whose value is non-finite; it is None
    when every value is finite and a statistic over them overflows.
    """

    def __init__(self, quantity: str, value: float, path_id: Optional[int] = None):
        self.quantity = quantity
        self.value = value
        self.path_id = path_id
        where = "" if path_id is None else f" on path id={path_id}"
        super().__init__(f"{quantity} is {_plain(value)!r}{where}")
