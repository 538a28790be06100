"""Dyadic sample paths and pathwise stochastic Riemann sums.

Paths live on dyadic grids j*t/2^L and refine by Brownian-bridge midpoint
sampling, so the level -> infinity limit is taken on a single path, the way
the pathwise integrals demand; regenerating paths per level would change the
path, not the division.

Randomness is counter-based (Philox) with one substream per (path id,
level): a path is reproducible in isolation, refinement never perturbs the
values already laid down, and Monte Carlo results cannot depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from .errors import ArgumentError, EstimatorFailure

BIT_GENERATOR = "philox"
GAUSSIAN_TRANSFORM = "inverse-cdf"

_TWO53 = 1 << 53

# Deepest level a path may be built or refined to: a level-26 path is
# 512 MiB of float64, and refine_path briefly holds about three such arrays.
MAX_LEVEL = 26


def _standard_normals(seed_key: Tuple[int, ...], master_seed: int, count: int) -> np.ndarray:
    """Deterministic N(0,1) draws from the (master_seed, *seed_key) substream.

    Uniforms are (k + 1/2)/2^53 over 53-bit integers k, pushed through the
    inverse normal CDF; both choices are part of the reproducibility
    contract and are echoed in run metadata.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=seed_key)
    gen = np.random.Generator(np.random.Philox(seq))
    k = gen.integers(0, _TWO53, size=count, dtype=np.uint64)
    u = (k.astype(np.float64) + 0.5) / _TWO53
    return ndtri(u)


@dataclass(frozen=True, eq=False)
class DyadicPath:
    """Sample path on the grid j*t/2^level, j = 0..2^level.

    Brownian paths carry (master_seed, path_id) so they can be refined from
    their own stream; deterministic paths carry their source function
    instead and refine by resampling it.
    """

    t: float
    level: int
    values: np.ndarray
    master_seed: Optional[int] = None
    path_id: Optional[int] = None
    source: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise ArgumentError(f"horizon must be finite and positive, got {self.t}")
        if self.level < 0:
            raise ArgumentError(f"level must be >= 0, got {self.level}")
        expected = (1 << self.level) + 1
        if len(self.values) != expected:
            raise ArgumentError(
                f"level {self.level} needs {expected} values, got {len(self.values)}"
            )
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return 1 << self.level

    def times(self, level: Optional[int] = None) -> np.ndarray:
        level = self.level if level is None else level
        h = self.t / (1 << level)
        return np.arange((1 << level) + 1, dtype=np.float64) * h

    def values_at_level(self, level: int) -> np.ndarray:
        """Restriction to the coarser grid; bitwise equal to what the path
        held before any refinement past that level."""
        if not 0 <= level <= self.level:
            raise ArgumentError(
                f"level {level} not available on a level-{self.level} path"
            )
        stride = 1 << (self.level - level)
        return self.values[::stride]

    def value_at(self, u: float) -> float:
        """Piecewise-linear interpolation between grid values."""
        if not 0 <= u <= self.t:
            raise ArgumentError(f"{u} outside [0, {self.t}]")
        return float(np.interp(u, self.times(), self.values))


def path_from_function(f: Callable[[float], float], t: float, level: int) -> DyadicPath:
    """Deterministic dyadic path sampling f on the level grid."""
    h = t / (1 << level)
    grid = np.arange((1 << level) + 1, dtype=np.float64) * h
    values = np.array([float(f(u)) for u in grid])
    return DyadicPath(t=t, level=level, values=values, source=f)


def brownian_path(master_seed: int, path_id: int, t: float, level: int) -> DyadicPath:
    """Standard Brownian motion on the dyadic level grid, x(0) = 0.

    Built as level 0 followed by bridge refinements, each level from its own
    substream, so paths at different levels share every common grid value
    bitwise.
    """
    if not (math.isfinite(t) and t > 0):
        raise ArgumentError(f"horizon must be finite and positive, got {t}")
    if not 0 <= level <= MAX_LEVEL:
        raise ArgumentError(f"level must be in 0..MAX_LEVEL={MAX_LEVEL}, got {level}")
    z = _standard_normals((path_id, 0), master_seed, 1)
    values = np.array([0.0, math.sqrt(t) * z[0]])
    path = DyadicPath(
        t=t, level=0, values=values, master_seed=master_seed, path_id=path_id
    )
    for _ in range(level):
        path = refine_path(path)
    return path


def refine_path(path: DyadicPath) -> DyadicPath:
    """One more dyadic level, keeping every existing value bitwise.

    Brownian paths fill midpoints by the bridge rule x(m) = (x(u)+x(v))/2 + xi
    with Var xi = (v-u)/4, drawn from the substream for the new level;
    deterministic paths resample their source.
    """
    new_level = path.level + 1
    if new_level > MAX_LEVEL:
        raise ArgumentError(f"level {new_level} exceeds MAX_LEVEL={MAX_LEVEL}")
    if path.master_seed is not None and path.path_id is not None:
        h = path.t / path.n
        xi = _standard_normals((path.path_id, new_level), path.master_seed, path.n)
        mid = 0.5 * (path.values[:-1] + path.values[1:]) + 0.5 * math.sqrt(h) * xi
        values = np.empty(2 * path.n + 1)
        values[0::2] = path.values
        values[1::2] = mid
        return DyadicPath(
            t=path.t,
            level=new_level,
            values=values,
            master_seed=path.master_seed,
            path_id=path.path_id,
        )
    if path.source is not None:
        return path_from_function(path.source, path.t, new_level)
    raise ArgumentError(
        "path has neither a generator stream nor a source function to refine from"
    )


# --------------------------------------------------------------------------
# Pathwise sums over level-L dyadic divisions
# --------------------------------------------------------------------------
#
# Point functions (f, df, d2f and the time-dependent partials) are applied
# once to whole arrays of path values; a scalar result broadcasts.  Only the
# f of the change-of-variable residuals is called on scalars, at the ends.


def _level_values(path: DyadicPath, level: int) -> np.ndarray:
    if level > path.level:
        raise ArgumentError(
            f"level {level} sums need a level >= {level} path (have {path.level}); "
            "call refine_path first"
        )
    return path.values_at_level(level)


def increment_integral(path: DyadicPath, level: int) -> float:
    """Sum of x(v) - x(u) over level cells; telescopes to x(t) - x(0)."""
    x = _level_values(path, level)
    return float(np.sum(np.diff(x)))


def ito_sum(path: DyadicPath, f: Callable, level: int) -> float:
    """Sum of f(x(u)) * (x(v) - x(u)), the left-endpoint convention."""
    x = _level_values(path, level)
    dx = np.diff(x)
    return float(np.sum(np.broadcast_to(f(x[:-1]), dx.shape) * dx))


def stratonovich_sum(path: DyadicPath, f: Callable, level: int) -> float:
    """Sum of f(x(w)) * (x(v) - x(u)) with w the temporal midpoint.

    The midpoint values live one level deeper, so the path must already be
    refined past `level`.
    """
    if path.level < level + 1:
        raise ArgumentError(
            f"temporal midpoints of level {level} live at level {level + 1}; "
            f"path is at level {path.level}, refine_path it first"
        )
    x = _level_values(path, level)
    w = path.values_at_level(level + 1)[1::2]
    dx = np.diff(x)
    return float(np.sum(np.broadcast_to(f(w), dx.shape) * dx))


def quadratic_variation(path: DyadicPath, level: int) -> float:
    """Sum of (x(v) - x(u))^2 over level cells."""
    dx = np.diff(_level_values(path, level))
    return float(np.sum(dx * dx))


def total_variation(path: DyadicPath, level: int) -> float:
    """Sum of |x(v) - x(u)|; grows without bound on Brownian paths."""
    return float(np.sum(np.abs(np.diff(_level_values(path, level)))))


def ito_identity_residual(path: DyadicPath, level: int) -> float:
    """ito_sum(identity) + QV/2 - (x(t)^2 - x(0)^2)/2.

    Zero for every path and level by telescoping of squares; any residual
    beyond accumulation noise is an arithmetic bug, not a modeling error.
    """
    x = _level_values(path, level)
    left = float(np.sum(x[:-1] * np.diff(x)))
    qv = quadratic_variation(path, level)
    return left + 0.5 * qv - 0.5 * (float(x[-1]) ** 2 - float(x[0]) ** 2)


def ito_formula_residual(
    path: DyadicPath, f: Callable, df: Callable, d2f: Callable, level: int
) -> float:
    """Residual of the change-of-variable discretization for f(x):

    f(x(t)) - f(x(0)) - sum f'(x(u)) dx - 1/2 sum f''(x(u)) (dx)^2.
    """
    x = _level_values(path, level)
    dx = np.diff(x)
    left = x[:-1]
    change = float(f(float(x[-1]))) - float(f(float(x[0])))
    drift = float(np.sum(np.broadcast_to(df(left), dx.shape) * dx))
    curvature = 0.5 * float(np.sum(np.broadcast_to(d2f(left), dx.shape) * dx * dx))
    return change - drift - curvature


def ito_formula_residual_time(
    path: DyadicPath,
    f: Callable[[float, float], float],
    df_ds: Callable,
    df_dx: Callable,
    d2f_dx2: Callable,
    level: int,
) -> float:
    """Residual of the time-dependent change-of-variable discretization.

    Both ds-integrals (the time partial and half the second space partial)
    are left-endpoint sums against the cell widths on the same division that
    carries the left-endpoint dx sum:

    f(t, x(t)) - f(0, x(0)) - sum [df/ds + 1/2 d2f/dx2](u, x(u)) h
                            - sum df/dx(u, x(u)) dx.
    """
    x = _level_values(path, level)
    dx = np.diff(x)
    times = path.times(level)
    su = times[:-1]
    xu = x[:-1]
    h = path.t / (1 << level)
    change = float(f(float(times[-1]), float(x[-1]))) - float(f(0.0, float(x[0])))
    ds_rate = np.broadcast_to(df_ds(su, xu) + 0.5 * d2f_dx2(su, xu), dx.shape)
    ds_part = float(np.sum(ds_rate * h))
    dx_part = float(np.sum(np.broadcast_to(df_dx(su, xu), dx.shape) * dx))
    return change - ds_part - dx_part


# --------------------------------------------------------------------------
# Monte Carlo harness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStatistics:
    """Sample statistics of one estimator over M independent paths."""

    count: int
    mean: float
    variance: float
    stderr: float
    values: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.count < 1:
            raise ArgumentError("statistics need at least one sample")


def mc_run(
    estimator: Callable[[DyadicPath], float],
    paths: int,
    t: float,
    level: int,
    master_seed: int,
    *,
    keep_values: bool = False,
) -> PathStatistics:
    """Apply an estimator to Brownian paths id = 1..paths.

    Per-path substreams make every path independent of evaluation order;
    aggregation runs in path-id order so the floating-point result is
    deterministic too.  An estimator may refine_path its argument (the
    stream travels with the path).
    """
    if paths < 1:
        raise ArgumentError(f"need at least one path, got {paths}")
    out = np.empty(paths)
    for path_id in range(1, paths + 1):
        path = brownian_path(master_seed, path_id, t, level)
        try:
            out[path_id - 1] = float(estimator(path))
        except Exception as exc:
            raise EstimatorFailure(path_id, exc) from exc
    mean = float(np.mean(out))
    variance = float(np.var(out, ddof=1)) if paths > 1 else 0.0
    return PathStatistics(
        count=paths,
        mean=mean,
        variance=variance,
        stderr=math.sqrt(variance / paths),
        values=tuple(float(v) for v in out) if keep_values else None,
    )
