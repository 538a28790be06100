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

import functools
import math
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import MAX_LEVEL, ArgumentError, EstimatorFailure, NonFiniteEstimateError

BIT_GENERATOR = "philox"
GAUSSIAN_TRANSFORM = "inverse-cdf"

# Half a unit of the 53-bit uniform grid k * 2^-53: the shift to (k + 1/2)/2^53.
_HALF_ULP = 2.0**-54

# mc_run refuses more paths than this before any allocation or draw: its
# output array is then 128 MiB, and every path id has to fit the single
# 32-bit spawn-key word that _substream_keys hashes per id.
MAX_PATHS = 1 << 24

# Paths per generated block: a fixed count of values per block, so shallow
# paths come in blocks of many and a level-16-or-deeper path alone.
_BLOCK_VALUES = 1 << 16


# --------------------------------------------------------------------------
# Substream keys: numpy's SeedSequence pool hash, elementwise
# --------------------------------------------------------------------------
#
# Substream (path_id, level) is Philox keyed by
# SeedSequence(master_seed, spawn_key=(path_id, level)).generate_state(2,
# uint64).  The hash below reproduces that key bitwise with uint32
# arithmetic carried in Python ints or uint64 arrays (every product of two
# 32-bit words fits 64 bits), so one body serves a single key and a whole
# block of keys.  The hash constants advance independently of the data, and
# the master-seed words enter before the spawn key, so the pool after the
# seed is computed once per seed and shared by every (path_id, level).

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hashmix(value, hash_const: int):
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> Tuple[Tuple[int, ...], int]:
    """The SeedSequence pool and hash constant after the master-seed words."""
    if master_seed < 0:
        raise ArgumentError(f"master seed must be non-negative, got {master_seed}")
    words = []
    while True:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    # a spawn key pads the seed words to the pool size
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return tuple(pool), hash_const


def _substream_keys(master_seed: int, path_id, level) -> np.ndarray:
    """Philox keys of substreams (path_id, level), shape broadcast + (2,).

    Elementwise in path_id and level: each is a Python int or a uint64
    array, and every path id is below 2^32 (one spawn-key word).
    """
    pool, hash_const = _seed_pool(operator.index(master_seed))
    pool = list(pool)
    for word in (path_id, level):
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for word in pool:
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    keys = np.empty(np.shape(state[0]) + (2,), dtype=np.uint64)
    keys[..., 0] = state[0] | (state[1] << 32)
    keys[..., 1] = state[2] | (state[3] << 32)
    return keys


_local = threading.local()


def _generator() -> np.random.Generator:
    """This thread's Generator over this thread's Philox.  _standard_normals
    replaces the Philox's whole state before every row, so nothing carries
    over between uses; reusing them saves the constructors (about 25 us,
    mostly seeding from OS entropy), which one refine_path call would
    otherwise pay on top of its draw."""
    try:
        return _local.generator
    except AttributeError:
        _local.generator = np.random.Generator(np.random.Philox())
        return _local.generator


def _standard_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """N(0,1) draws, shape (M, count): row i from the Philox stream keys[i].

    Uniforms are (k + 1/2)/2^53 over the top 53 bits k of each raw 64-bit
    output (what Generator.integers(0, 2^53) returns on the same stream),
    pushed through the inverse normal CDF; both choices are part of the
    reproducibility contract and are echoed in run metadata.  Each row is
    filled in place by Generator.random, which gives k * 2^-53, and one pass
    adds 2^-54: scaling by a power of two commutes with rounding, so
    k * 2^-53 + 2^-54 is (k + 1/2)/2^53 bitwise for every k < 2^53.
    """
    from scipy.special import ndtri

    gen = _generator()
    bit_gen = gen.bit_generator
    # Python ints and lists: the state setter reads them elementwise, and
    # does so faster than from numpy arrays and scalars
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the first output is counter 0's first word
        "has_uint32": 0,
        "uinteger": 0,
    }
    u = np.empty((len(keys), count))
    for row, key in zip(u, keys.tolist()):
        inner["key"] = key
        bit_gen.state = state
        gen.random(out=row)
    u += _HALF_ULP
    return ndtri(u, out=u)


def _bridge(values: np.ndarray, keys: np.ndarray, t: float) -> np.ndarray:
    """One dyadic level for every row: (M, n+1) values -> (M, 2n+1).

    Midpoints follow the bridge rule x(m) = (x(u)+x(v))/2 + xi with
    Var xi = (v-u)/4, where row i draws its n normals from the Philox stream
    keys[i] and scales them in place.  The means 0.5*(x(u)+x(v)) are formed
    in out[:, :n], which the interleave below overwrites, and added into the
    scaled draws, so every pass but the interleave runs on contiguous rows
    and a step holds no temporaries; addition commutes, so the midpoints
    have the rounding of the one-expression form 0.5*(x(u)+x(v)) +
    (0.5*sqrt(h))*z.
    """
    n = values.shape[1] - 1
    xi = _standard_normals(keys, n)
    xi *= 0.5 * math.sqrt(t / n)
    out = np.empty((values.shape[0], 2 * n + 1))
    mean = np.add(values[:, :-1], values[:, 1:], out=out[:, :n])
    mean *= 0.5
    xi += mean
    out[:, 0::2] = values
    out[:, 1::2] = xi
    return out


def _brownian_values(master_seed: int, path_ids, t: float, level: int) -> np.ndarray:
    """Values of Brownian paths path_ids on the level grid, one row each."""
    ids = np.asarray(path_ids, dtype=np.uint64)[:, None]
    return _bridged(_substream_keys(master_seed, ids, np.arange(level + 1, dtype=np.uint64)), t)


def _bridged(keys: np.ndarray, t: float) -> np.ndarray:
    """Values on the level grid of the paths whose substream keys per level
    are the rows of keys, shape (M, level + 1, 2).

    Level 0 followed by bridge steps, each level from its own substream, so
    paths at different levels share every common grid value bitwise.
    """
    z = _standard_normals(keys[:, 0], 1)
    values = np.zeros((len(keys), 2))
    values[:, 1] = math.sqrt(t) * z[:, 0]
    for new_level in range(1, keys.shape[1]):
        values = _bridge(values, keys[:, new_level], t)
    return values


def _check_path(t: float, level: int, path_id: Optional[int] = None) -> None:
    """The one check of every dyadic path, Brownian or deterministic, made
    before any value is sampled or drawn."""
    if not (math.isfinite(t) and t > 0):
        raise ArgumentError(f"horizon must be finite and positive, got {t}")
    if not 0 <= level <= MAX_LEVEL:
        raise ArgumentError(f"level must be in 0..MAX_LEVEL={MAX_LEVEL}, got {level}")
    if path_id is not None and not 0 <= path_id <= _MASK32:
        raise ArgumentError(f"path id must be in 0..2^32-1, got {path_id}")


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
        _check_path(self.t, self.level, self.path_id)
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

    def _check_level(self, level: int) -> None:
        """Refuse a grid level this path does not hold, before any allocation."""
        if not 0 <= level <= self.level:
            raise ArgumentError(
                f"level {level} not available on a level-{self.level} path; "
                "call refine_path first"
            )

    def times(self, level: Optional[int] = None) -> np.ndarray:
        level = self.level if level is None else level
        self._check_level(level)
        h = self.t / (1 << level)
        return np.arange((1 << level) + 1, dtype=np.float64) * h

    def values_at_level(self, level: int) -> np.ndarray:
        """Restriction to the coarser grid; bitwise equal to what the path
        held before any refinement past that level."""
        self._check_level(level)
        stride = 1 << (self.level - level)
        return self.values[::stride]


def path_from_function(f: Callable[[float], float], t: float, level: int) -> DyadicPath:
    """Deterministic dyadic path sampling an elementwise f on the level grid
    in one call; a scalar result broadcasts."""
    _check_path(t, level)
    h = t / (1 << level)
    grid = np.arange((1 << level) + 1, dtype=np.float64) * h
    values = np.broadcast_to(np.asarray(f(grid), dtype=np.float64), grid.shape)
    return DyadicPath(t=t, level=level, values=values, source=f)


def brownian_path(master_seed: int, path_id: int, t: float, level: int) -> DyadicPath:
    """Standard Brownian motion on the dyadic level grid, x(0) = 0.

    Built as level 0 followed by bridge refinements, each level from its own
    substream, so paths at different levels share every common grid value
    bitwise.
    """
    _check_path(t, level, path_id)
    # one path: its id word is hashed on Python ints, the levels as an array
    levels = np.arange(level + 1, dtype=np.uint64)
    values = _bridged(_substream_keys(master_seed, operator.index(path_id), levels)[None], t)[0]
    return DyadicPath(
        t=t, level=level, values=values, master_seed=master_seed, path_id=path_id
    )


def refine_path(path: DyadicPath) -> DyadicPath:
    """One more dyadic level, keeping every existing value bitwise.

    Brownian paths take one bridge step drawn from the substream for the
    new level; deterministic paths resample their source.
    """
    new_level = path.level + 1
    _check_path(path.t, new_level)
    if path.master_seed is not None and path.path_id is not None:
        keys = _substream_keys(path.master_seed, path.path_id, new_level)
        return DyadicPath(
            t=path.t,
            level=new_level,
            values=_bridge(path.values[None], keys[None], path.t)[0],
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


def _cells(path: DyadicPath, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Grid values x of the level cells and their increments dx = x(v) - x(u)."""
    x = path.values_at_level(level)
    return x, np.diff(x)


def _dot(weight, d: np.ndarray) -> float:
    """Sum over the cells of weight * d; a scalar weight broadcasts."""
    return float(np.sum(np.broadcast_to(weight, d.shape) * d))


def increment_integral(path: DyadicPath, level: int) -> float:
    """Sum of x(v) - x(u) over level cells; telescopes to x(t) - x(0)."""
    return float(np.sum(_cells(path, level)[1]))


def ito_sum(path: DyadicPath, f: Callable, level: int) -> float:
    """Sum of f(x(u)) * (x(v) - x(u)), the left-endpoint convention."""
    x, dx = _cells(path, level)
    return _dot(f(x[:-1]), dx)


def stratonovich_sum(path: DyadicPath, f: Callable, level: int) -> float:
    """Sum of f(x(w)) * (x(v) - x(u)) with w the temporal midpoint.

    The midpoint values live one level deeper, so the path must already be
    refined past `level`.
    """
    w = path.values_at_level(level + 1)[1::2]
    return _dot(f(w), _cells(path, level)[1])


def quadratic_variation(path: DyadicPath, level: int) -> float:
    """Sum of (x(v) - x(u))^2 over level cells."""
    dx = _cells(path, level)[1]
    dx *= dx  # in place: one path-sized temporary, not two
    return float(np.sum(dx))


def total_variation(path: DyadicPath, level: int) -> float:
    """Sum of |x(v) - x(u)|; grows without bound on Brownian paths."""
    dx = _cells(path, level)[1]
    return float(np.sum(np.abs(dx, out=dx)))


# The pathwise sums of a path and a level alone, by the name `brownian`
# runs them under.  Values are the functions themselves: the benchmark's
# tracer rebinds traced functions in module-level dicts by identity.
PATH_SUMS = {
    "qv": quadratic_variation,
    "increment": increment_integral,
    "variation": total_variation,
}


def ito_formula_residual(
    path: DyadicPath, f: Callable, df: Callable, d2f: Callable, level: int
) -> float:
    """Residual of the change-of-variable discretization for f(x):

    f(x(t)) - f(x(0)) - sum f'(x(u)) dx - 1/2 sum f''(x(u)) (dx)^2.
    """
    x, dx = _cells(path, level)
    left = x[:-1]
    change = float(f(float(x[-1]))) - float(f(float(x[0])))
    drift = _dot(df(left), dx)
    curvature = 0.5 * _dot(d2f(left) * dx, dx)
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
    x, dx = _cells(path, level)
    times = path.times(level)
    su = times[:-1]
    xu = x[:-1]
    h = path.t / (1 << level)
    change = float(f(float(times[-1]), float(x[-1]))) - float(f(0.0, float(x[0])))
    ds_part = _dot(df_ds(su, xu) + 0.5 * d2f_dx2(su, xu), np.full_like(dx, h))
    dx_part = _dot(df_dx(su, xu), dx)
    return change - ds_part - dx_part


# --------------------------------------------------------------------------
# Monte Carlo harness
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStatistics:
    """Sample statistics of one estimator over M independent paths.

    generation_s and estimator_s split mc_run's wall time between drawing
    the path blocks and running the estimator on their paths (a refine_path
    inside the estimator counts as estimator time); they are neither shown
    nor compared.
    """

    count: int
    mean: float
    variance: float
    stderr: float
    values: Optional[Tuple[float, ...]] = None
    generation_s: float = field(default=0.0, repr=False, compare=False)
    estimator_s: float = field(default=0.0, repr=False, compare=False)

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

    Paths are generated a block at a time and handed to the estimator one
    by one in path-id order, each bitwise equal to brownian_path(master_seed,
    path_id, t, level); aggregation runs in the same order, so the
    floating-point result is deterministic too.  An estimator may
    refine_path its argument (the stream travels with the path).  A
    non-finite estimator value, mean or variance raises
    NonFiniteEstimateError.
    """
    if paths < 1:
        raise ArgumentError(f"need at least one path, got {paths}")
    if paths > MAX_PATHS:
        raise ArgumentError(f"at most MAX_PATHS={MAX_PATHS} paths, got {paths}")
    _check_path(t, level)
    block = max(1, _BLOCK_VALUES >> level)
    out = np.empty(paths)
    generation_s = estimator_s = 0.0
    # Overflow and invalid values are checked below, so numpy's warnings
    # are silenced; expression faults still raise (evaluate sets its own).
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, paths + 1, block):
            ids = range(first, min(first + block, paths + 1))
            start = time.perf_counter()
            # a fresh array per block: handed-out rows are never overwritten
            rows = _brownian_values(master_seed, ids, t, level)
            drawn = time.perf_counter()
            generation_s += drawn - start
            for path_id, values in zip(ids, rows):
                path = DyadicPath(
                    t=t, level=level, values=values, master_seed=master_seed, path_id=path_id
                )
                try:
                    out[path_id - 1] = float(estimator(path))
                except Exception as exc:
                    raise EstimatorFailure(path_id, exc) from exc
            estimator_s += time.perf_counter() - drawn
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise NonFiniteEstimateError("estimator value", out[bad[0]], int(bad[0]) + 1)
        # finite values can still overflow a statistic
        mean = float(np.mean(out))
        variance = float(np.var(out, ddof=1)) if paths > 1 else 0.0
    for quantity, value in (("mean", mean), ("variance", variance)):
        if not math.isfinite(value):
            raise NonFiniteEstimateError(f"{quantity} over {paths} paths", value)
    return PathStatistics(
        count=paths,
        mean=mean,
        variance=variance,
        stderr=math.sqrt(variance / paths),
        values=tuple(float(v) for v in out) if keep_values else None,
        generation_s=generation_s,
        estimator_s=estimator_s,
    )
