"""Named integrands, distributions, and paths with known outcomes.

Every entry carries its expected result and the derivation that backs it
(an antiderivative, a finite sum, a telescoping argument, a growth rate),
so the catalog doubles as the regression suite: run the entry, compare
against `expected`.

The Dirichlet machinery lives strictly in the exact scalar regime.  Every
float is rational, so a float Dirichlet indicator would be constantly 1 and
the counterexample it powers would silently evaporate; handing it a float
is a construction-time error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .cells import Gauge
from .divisions import RefinementSchedule
from .errors import ArgumentError, ScalarRegimeError
from . import exact
from .exact import QuadExtScalar, is_exact_scalar
from .integrand import (
    BurkillIntegrand,
    IntervalFactor,
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
)
from .integrators import (
    ANCHORED_STRATEGIES,
    GAUGE_STRATEGIES,
    ConvergenceController,
    DistributionFunction,
    ExtremaOracle,
    Strategy,
    darboux_riemann,
    gauge_integrate,
    identity_distribution,
    lebesgue_distribution_integrate,
    rs_integrate,
    singularity_gauge,
    square_distribution,
    step_distribution,
)
from .results import Status
from .stochastic import PATH_SUMS, path_from_function

# --------------------------------------------------------------------------
# Dirichlet indicator, exact regime only
# --------------------------------------------------------------------------


_FLOAT_DIRICHLET = (
    "Dirichlet indicator needs exact scalars; every float is rational, "
    "so a float version would be constantly 1"
)


def dirichlet_point(s):
    """1 if s is rational, else 0; defined only on exact scalars, and
    elementwise on exact columns: a QuadExtArray, or an array of exact
    scalars, gives a QuadExtArray of ints."""
    if isinstance(s, QuadExtScalar):
        return 1 if s.is_rational() else 0
    if is_exact_scalar(s):
        return 1
    if isinstance(s, float):
        raise ScalarRegimeError(_FLOAT_DIRICHLET)
    if isinstance(s, np.ndarray) and s.dtype.kind == "f":
        raise ScalarRegimeError(f"{_FLOAT_DIRICHLET}; got a {s.dtype} array")
    if not isinstance(s, (np.ndarray, exact.QuadExtArray)):
        raise ScalarRegimeError(f"Dirichlet indicator is undefined on {type(s).__name__}")
    try:
        s = exact.QuadExtArray(s)
    except ScalarRegimeError as exc:
        raise ScalarRegimeError(_FLOAT_DIRICHLET) from exc
    return exact.QuadExtArray(s.is_rational())


def dirichlet_factor() -> IntervalFactor:
    return increments_of(dirichlet_point, name="dD")


# --------------------------------------------------------------------------
# Point functions
# --------------------------------------------------------------------------


def step_at(c, low=0, high=1) -> Callable:
    """Step function jumping from low to high just above c.

    Elementwise on float arrays and exact columns, and exact on exact
    scalars: with c a Fraction the comparison stays exact for QuadExtScalar
    arguments.
    """

    def step(s):
        return low + (high - low) * (s > c)

    step.__name__ = f"step({c})"
    return step


def inv_sqrt(s):
    """1/sqrt(s) with the integrable convention f(0) = 0; elementwise."""
    safe = np.maximum(s, np.finfo(float).tiny)
    return np.where(s <= 0.0, 0.0, 1.0 / np.sqrt(safe))


def zigzag(s):
    """Two-tooth tent on [0, 1]: slope +-2, peaks 1/2 at s = 1/4 and 3/4."""
    r = np.fmod(s, 0.5)
    return 0.5 - 2.0 * np.abs(r - 0.25)


# --------------------------------------------------------------------------
# Catalog entries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What running an entry must produce.

    `quantity` is "integral" for integrand/distribution entries; path
    entries name the pathwise sum being checked instead, a PATH_SUMS key.
    """

    status: Status
    value: Optional[object] = None
    tolerance: Optional[float] = None
    quantity: str = "integral"


# What an entry's `build` returns, fixed by the method that runs it.
_KINDS = {
    "rs": "integrand",
    "gauge": "integrand",
    "darboux": "point-function",
    "lebesgue": "distribution",
    None: "path",
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    method: Optional[str]  # darboux | rs | gauge | lebesgue | None for paths
    note: str  # derivation backing `expected`
    bounds: Optional[Tuple[object, object]]
    build: Callable[[], object]
    expected: Expected
    controller: ConvergenceController = ConvergenceController()
    gauges: Optional[Callable[[int], Gauge]] = None
    strategies: Optional[Tuple[Strategy, ...]] = None

    def __post_init__(self):
        if not self.note:
            raise ArgumentError(f"entry {self.name!r} needs a derivation note")

    @property
    def kind(self) -> str:
        """One of integrand, point-function, distribution or path."""
        return _KINDS[self.method]

    @property
    def regime(self) -> str:
        """exact over exact-scalar bounds, float otherwise (paths included)."""
        exact = self.bounds is not None and all(map(is_exact_scalar, self.bounds))
        return "exact" if exact else "float"


def _ctrl(tol: float, start: int = 4, stop: int = 22) -> ConvergenceController:
    return ConvergenceController(tolerance_abs=tol, schedule=RefinementSchedule(start, stop))


def _h1() -> BurkillIntegrand:
    return make_integrand(None, length_factor(), "interval-only", name="h1")


def _h2() -> BurkillIntegrand:
    # Pure tag integrand h(s, I) = s; no interval factor damps it, so sums
    # over n cells grow like n times the mean tag.
    return BurkillIntegrand(name="h2", rule=lambda s, u, v: s)


def _h3() -> BurkillIntegrand:
    return make_integrand(lambda s: s * s, length_factor(), "tag", name="h3")


def _h4() -> BurkillIntegrand:
    return make_integrand(None, length_squared_factor(), "interval-only", name="h4")


def _h5() -> BurkillIntegrand:
    return make_integrand(lambda u: u * u, length_factor(), "left-endpoint", name="h5")


def _const_dD() -> BurkillIntegrand:
    beta = Fraction(2)
    return make_integrand(
        lambda s: beta, dirichlet_factor(), "tag", name="2*dD"
    )


def _step_dD() -> BurkillIntegrand:
    return make_integrand(
        step_at(Fraction(1, 2)), dirichlet_factor(), "tag", name="step(1/2)*dD"
    )


def _s_dsquare() -> BurkillIntegrand:
    return make_integrand(
        lambda s: s, increments_of(lambda u: u * u, name="d(s^2)"), "tag", name="s*d(s^2)"
    )


def _square_point():
    f = lambda s: s * s
    return f, ExtremaOracle.monotone(f)


def _const_point():
    f = lambda s: 3.5
    return f, ExtremaOracle.monotone(f)


def _identity_point():
    f = lambda s: s
    return f, ExtremaOracle.monotone(f)


def _step_point():
    f = step_at(0.5)
    return f, ExtremaOracle.monotone(f, (0.5,))


def _twomass() -> DistributionFunction:
    return step_distribution(
        [(2.0, 1.0 / 3.0), (5.0, 2.0 / 3.0)], c=2.0, d=5.0, name="twomass"
    )


def _inv_sqrt_integrand() -> BurkillIntegrand:
    return make_integrand(inv_sqrt, length_factor(), "tag", name="1/sqrt(s)")


def _inv_sqrt_gauges(level: int) -> Gauge:
    ceiling = 2.0 ** (-level)
    return singularity_gauge(ceiling=ceiling, at_origin=ceiling * ceiling)


def standard_entries() -> Tuple[CatalogEntry, ...]:
    """The full oracle set; names are the CLI's --catalog vocabulary."""
    conv = Status.CONVERGED
    return (
        CatalogEntry(
            name="h1",
            method="gauge",
            note="lengths telescope: every division of [0,1] sums to 1",
            bounds=(0.0, 1.0),
            build=_h1,
            expected=Expected(conv, 1.0, 1e-12),
        ),
        CatalogEntry(
            name="h2",
            method="gauge",
            note="sum of tags grows like n/2: geometric growth ratio 2 per level",
            bounds=(0.0, 1.0),
            build=_h2,
            expected=Expected(Status.DIVERGED),
        ),
        CatalogEntry(
            name="h3",
            method="gauge",
            note="antiderivative s^3/3; left/right tag biases +-1/(2n) cancel in the estimate",
            bounds=(0.0, 1.0),
            build=_h3,
            expected=Expected(conv, 1.0 / 3.0, 1e-6),
            controller=_ctrl(1e-5, 4, 12),
        ),
        CatalogEntry(
            name="h4",
            method="gauge",
            note="sum of squared lengths on n uniform cells is 1/n",
            bounds=(0.0, 1.0),
            build=_h4,
            expected=Expected(conv, 0.0, 1e-5),
            controller=_ctrl(4e-5, 4, 17),
        ),
        CatalogEntry(
            name="h5",
            method="gauge",
            note="antiderivative s^3/3 with left-endpoint bias -1/(2n), within spread",
            bounds=(0.0, 1.0),
            build=_h5,
            expected=Expected(conv, 1.0 / 3.0, 1e-4),
            controller=_ctrl(2.5e-5, 4, 17),
        ),
        CatalogEntry(
            name="const_dD",
            method="rs",
            note="constant point factor telescopes against dD; D(1) - D(0) = 0 exactly",
            bounds=(Fraction(0), Fraction(1)),
            build=_const_dD,
            expected=Expected(conv, 0, 0.0),
            controller=_ctrl(1e-9, 1, 9),
        ),
        CatalogEntry(
            name="step_dD",
            method="rs",
            note="rational grids sum to 0, irrational-shifted grids to 1: spread exactly 1",
            bounds=(Fraction(0), Fraction(1)),
            build=_step_dD,
            expected=Expected(Status.OSCILLATING),
            controller=_ctrl(1e-9, 1, 9),
        ),
        CatalogEntry(
            name="s_dsquare",
            method="rs",
            note="antiderivative of s*2s is 2s^3/3: integral 2/3",
            bounds=(0.0, 1.0),
            build=_s_dsquare,
            expected=Expected(conv, 2.0 / 3.0, 1e-5),
            controller=_ctrl(5e-5),
        ),
        CatalogEntry(
            name="square_darboux",
            method="darboux",
            note="monotone on [0,1]; U - L = 1/n; antiderivative s^3/3",
            bounds=(0.0, 1.0),
            build=_square_point,
            expected=Expected(conv, 1.0 / 3.0, 1e-6),
            controller=_ctrl(2.5e-4, 4, 12),
        ),
        CatalogEntry(
            name="const_darboux",
            method="darboux",
            note="U = L exactly for constants: converges on the first partition",
            bounds=(0.0, 2.0),
            build=_const_point,
            expected=Expected(conv, 7.0, 1e-12),
            controller=_ctrl(1e-9, 0, 8),
        ),
        CatalogEntry(
            name="identity_darboux",
            method="darboux",
            note="U - L = (b-a)^2/n on [0,2]; estimate exactly the trapezoid value 2",
            bounds=(0.0, 2.0),
            build=_identity_point,
            expected=Expected(conv, 2.0, 1e-6),
            controller=_ctrl(1e-3, 4, 14),
        ),
        CatalogEntry(
            name="step_darboux",
            method="darboux",
            note="one straddling cell of width 2^-k bounds U - L; estimate "
            "errs by half that cell",
            bounds=(0.0, 1.0),
            build=_step_point,
            expected=Expected(conv, 0.5, 1e-4),
            controller=_ctrl(1.5e-4, 4, 14),
        ),
        CatalogEntry(
            name="identity_dist",
            method="lebesgue",
            note="mean of the identity distribution: antiderivative u^2/2",
            bounds=(0.0, 1.0),
            build=identity_distribution,
            expected=Expected(conv, 0.5, 1e-6),
            controller=_ctrl(2e-6),
        ),
        CatalogEntry(
            name="square_dist",
            method="lebesgue",
            note="antiderivative of u*2u is 2u^3/3: integral 2/3",
            bounds=(0.0, 1.0),
            build=square_distribution,
            expected=Expected(conv, 2.0 / 3.0, 1e-5),
            controller=_ctrl(5e-5),
        ),
        CatalogEntry(
            name="twomass_step",
            method="lebesgue",
            note="finite sum value x mass: 2*(1/3) + 5*(2/3) = 4",
            bounds=(2.0, 5.0),
            build=_twomass,
            expected=Expected(conv, 4.0, 1e-9),
            controller=_ctrl(1e-9, 4, 14),
        ),
        CatalogEntry(
            name="inv_sqrt",
            method="gauge",
            note="antiderivative 2*sqrt(s); singularity gauge shrinks toward 0",
            bounds=(0.0, 1.0),
            build=_inv_sqrt_integrand,
            expected=Expected(conv, 2.0, 1e-3),
            controller=_ctrl(1e-3, 6, 18),
            gauges=_inv_sqrt_gauges,
            strategies=ANCHORED_STRATEGIES,
        ),
        CatalogEntry(
            name="const_path",
            method=None,
            note="constant path: no variation at any level",
            bounds=None,
            build=lambda: path_from_function(lambda s: 1.0, 1.0, 6),
            expected=Expected(conv, 0.0, 0.0, quantity="variation"),
        ),
        CatalogEntry(
            name="linear_path",
            method=None,
            note="x(s) = s: increments telescope to 1 exactly on dyadic grids",
            bounds=None,
            build=lambda: path_from_function(lambda s: s, 1.0, 6),
            expected=Expected(conv, 1.0, 0.0, quantity="increment"),
        ),
        CatalogEntry(
            name="zigzag_path",
            method=None,
            note="four segments of slope +-2 and length 1/4: variation 4 * 1/2 = 2",
            bounds=None,
            build=lambda: path_from_function(zigzag, 1.0, 6),
            expected=Expected(conv, 2.0, 0.0, quantity="variation"),
        ),
    )


# perfbench/test_perfbench.py reads the path-sum table under this name
_PATH_QUANTITIES = PATH_SUMS


def entry_names() -> Tuple[str, ...]:
    return tuple(e.name for e in standard_entries())


def get_entry(name: str) -> CatalogEntry:
    for entry in standard_entries():
        if entry.name == name:
            return entry
    raise ArgumentError(
        f"unknown catalog entry {name!r}; available: {', '.join(entry_names())}"
    )


def run_method(
    method: str,
    subject,
    bounds,
    ctrl: ConvergenceController,
    *,
    gauges: Optional[Callable[[int], Gauge]] = None,
    strategies: Optional[Tuple[Strategy, ...]] = None,
):
    """Run one integral definition on what an entry of that method builds:
    an (f, oracle) pair for darboux, an integrand for rs and gauge, a
    distribution function (on its own domain) for lebesgue."""
    if method == "lebesgue":
        return lebesgue_distribution_integrate(subject, ctrl)
    a, b = bounds
    if method == "darboux":
        f, oracle = subject
        return darboux_riemann(f, oracle, a, b, ctrl)
    if method == "rs":
        return rs_integrate(subject, a, b, ctrl)
    if method == "gauge":
        return gauge_integrate(
            subject, a, b, ctrl, gauges=gauges, strategies=strategies or GAUGE_STRATEGIES
        )
    raise ArgumentError(f"no runnable method {method!r}")


def run_entry(entry: CatalogEntry, ctrl: Optional[ConvergenceController] = None):
    """Run an entry under `ctrl`, by default its own controller; an
    IntegralResult, or the pathwise quantity for path entries."""
    if entry.kind == "path":
        path = entry.build()
        return PATH_SUMS[entry.expected.quantity](path, path.level)
    return run_method(
        entry.method,
        entry.build(),
        entry.bounds,
        entry.controller if ctrl is None else ctrl,
        gauges=entry.gauges,
        strategies=entry.strategies,
    )

