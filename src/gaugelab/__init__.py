"""gaugelab: one integration engine per integral definition, side by side.

The package probes how Darboux, Riemann-Stieltjes, distribution-function
(Lebesgue route), and gauge integrals behave on the same integrands: which
refinement schedules stabilise, which oscillate forever, and what tagged
divisions under a gauge buy that uniform meshes cannot.  A stochastic layer
reuses the same tagged-sum machinery on dyadic Brownian paths.
"""

__version__ = "0.1.0"

# The public names of each submodule.  A name is imported on first use
# (PEP 562), so `import gaugelab` loads no submodule and each CLI command
# loads only the modules it runs.
_SUBMODULES = {
    "catalog": ("dirichlet_point", "entry_names", "get_entry", "run_entry", "step_at", "zigzag"),
    "cells": ("Gauge", "TaggedDivision"),
    "divisions": (
        "RefinementSchedule",
        "bisect_refine",
        "delta_fine_division",
        "make_shifted_uniform",
        "make_uniform",
        "riemann_sum",
    ),
    "errors": (
        "ArgumentError",
        "EstimatorFailure",
        "GaugeContractError",
        "GaugeLabError",
        "GaugeTooDemandingError",
        "IntegrandEvalError",
        "MonotonicityError",
        "NonFiniteEstimateError",
        "NonFiniteSumError",
        "OracleInconsistencyError",
        "ScalarRegimeError",
    ),
    "exact": ("IRRATIONAL_SHIFT", "QuadExtScalar", "is_exact_scalar"),
    "expr": ("derive_extrema_oracle", "evaluate", "parse", "to_source"),
    "integrand": (
        "BurkillIntegrand",
        "IntervalFactor",
        "increments_of",
        "length_factor",
        "length_squared_factor",
        "make_integrand",
    ),
    "integrators": (
        "ConvergenceController",
        "DistributionFunction",
        "ExtremaOracle",
        "darboux_riemann",
        "gauge_integrate",
        "identity_distribution",
        "jump_anchoring_gauge",
        "lebesgue_distribution_integrate",
        "rs_integrate",
        "singularity_gauge",
        "square_distribution",
        "step_distribution",
    ),
    "results": ("EXIT_CODES", "IntegralResult", "Status", "TraceRow"),
    "series": ("conditional_series",),
    "stochastic": (
        "DyadicPath",
        "PathStatistics",
        "brownian_path",
        "increment_integral",
        "ito_formula_residual",
        "ito_formula_residual_time",
        "ito_sum",
        "mc_run",
        "path_from_function",
        "quadratic_variation",
        "refine_path",
        "stratonovich_sum",
        "total_variation",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
