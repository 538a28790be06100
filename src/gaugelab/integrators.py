"""Integral definitions driven by a shared finite-refinement controller.

"For every division finer than delta" is not something a program can check,
so every integrator here runs a ladder of refinement levels under several
independent division strategies.  After each level, _decide tries the stop
rules on the sums so far, in this order, and the first that fires labels
the run:

* stable-window: converged once the sums agree and hold still for `window`
  levels; the estimate is the last level's midpoint, the bound its spread;
* growth: diverged once some strategy's |sum| grows by `growth_factor` at
  each of `window` levels;
* extrapolated-stable: on float sums only, each strategy's Aitken
  delta-squared limit (_aitken) stands in for its sum in the stable-window
  test; the estimate is the limits' mean, the bound their spread plus their
  largest move since the level before.  A left-tag sum on a smooth
  integrand errs by c1/n + c2/n**2 + ..., so its increments halve per level
  and the limits settle levels before the sums do.

At the end of the schedule an undecided run is oscillating if each strategy
held still for `window` levels while they stayed `oscillation_gap` apart
(the signature of tag sensitivity), and inconclusive otherwise, bounded by
every strategy's range over those levels.  Darboux has one rule, bracket:
its upper and lower sums bracket the integral, so it converges at the first
level whose U - L is within tolerance, and otherwise keeps its last U - L.

No rule accepts one level's agreement, not even for sums that never depend
on the division.  rs probes four grid rows (left and midpoint tags on
uniform grids, left and right tags on irrationally shifted ones), gauge
five rows (left, midpoint and right tags, and left and right tags split at
an irrational point), bisected under its gauges or, under its default
constant gauge, the uniform grids that bisection makes.  The labels
corroborate; only Darboux proves its tolerance.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import groupby, starmap
from operator import add
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import divisions, exact
from .cells import Gauge, _refused
from .divisions import (
    DEFAULT_DEPTH_CAP,
    FLOAT_SHIFT,
    RefinementSchedule,
    _check_domain,
    _check_selectors,
    _delta_fine,
    _named_fault,
    _segment_sums,
    _shifted_edges,
    _tag_points,
    _uniform_edges,
    make_uniform,
)
from .errors import (
    ArgumentError,
    GaugeTooDemandingError,
    MonotonicityError,
    NonFiniteSumError,
    OracleInconsistencyError,
    _plain,
)
from .exact import IRRATIONAL_SHIFT, is_exact_scalar
from .integrand import BurkillIntegrand, IntervalFactor, increments_of, make_integrand, midpoint
from .results import IntegralResult, Status, TraceRow


# --------------------------------------------------------------------------
# Division strategies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """One division family of a probe: how each piece is cut, and the tag
    selectors in their trial order.  `cuts` is "uniform" or
    "shifted-uniform" (a grid, tagged by its one selector), "delta-fine"
    (gauge-driven bisection, each cell tagged by its first fine selector) or
    "split-delta-fine" (that bisection on each side of an irrational split
    point, so that cuts fall off the dyadic points of the piece)."""

    name: str
    cuts: str
    selectors: Tuple[str, ...]


RS_STRATEGIES = (
    Strategy("rational-left", "uniform", ("left",)),
    Strategy("rational-mid", "uniform", ("midpoint",)),
    Strategy("shifted-left", "shifted-uniform", ("left",)),
    Strategy("shifted-right", "shifted-uniform", ("right",)),
)

GAUGE_STRATEGIES = (
    Strategy("left-tags", "delta-fine", ("left",)),
    Strategy("mid-tags", "delta-fine", ("midpoint",)),
    Strategy("right-tags", "delta-fine", ("right",)),
    Strategy("split-left", "split-delta-fine", ("left",)),
    Strategy("split-right", "split-delta-fine", ("right",)),
)

# Selector orders that always include both endpoints; required when a gauge
# anchors tags at interval endpoints (each anchored cell accepts exactly one
# endpoint candidate).
ANCHORED_STRATEGIES = (
    Strategy("left-first", "delta-fine", ("left", "midpoint", "right")),
    Strategy("right-first", "delta-fine", ("right", "midpoint", "left")),
)


# --------------------------------------------------------------------------
# Controller
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceController:
    """Finite surrogate for the every-division quantifier.

    tolerance_abs/_rel combine into the stability tolerance; `window` is the
    number of consecutive stable levels demanded; `growth_factor` flags
    geometric growth; `oscillation_gap` is the persistent cross-strategy
    spread that marks tag sensitivity.
    """

    tolerance_abs: float = 1e-9
    tolerance_rel: float = 1e-9
    window: int = 3
    growth_factor: float = 1.5
    oscillation_gap: float = 1e-3
    schedule: RefinementSchedule = field(default_factory=RefinementSchedule)

    def __post_init__(self):
        # an infinite tolerance would call any two finite sums stable
        if not 0 < self.tolerance_abs < math.inf or not 0 <= self.tolerance_rel < math.inf:
            raise ArgumentError(
                "tolerances must be finite, with tolerance_abs > 0 and tolerance_rel >= 0; "
                f"got tolerance_abs={self.tolerance_abs!r}, tolerance_rel={self.tolerance_rel!r}"
            )
        try:
            window = operator.index(self.window)
        except TypeError:
            window = None
        if window is None or window < 2:
            raise ArgumentError(f"stability window must be an integer >= 2, got {self.window!r}")
        object.__setattr__(self, "window", window)
        if not self.growth_factor > 1:
            raise ArgumentError("growth factor must exceed 1")
        if not self.oscillation_gap > 0:
            raise ArgumentError("oscillation gap must be positive")

    def tolerance_at(self, scale: float) -> float:
        return self.tolerance_abs + self.tolerance_rel * abs(scale)


def _tolerance(ctrl: ConvergenceController, row) -> float:
    """The stability tolerance at a level's largest |sum|."""
    return ctrl.tolerance_at(max(abs(float(x)) for x in row))


def _last_level(status: Status, rows):
    """`status`, the last level's midpoint (exact where its sums are) as the
    estimate, and its spread as the bound."""
    lo, hi = min(rows[-1]), max(rows[-1])
    return status, lo if lo == hi else midpoint(lo, hi), abs(hi - lo)


def _holds(ctrl: ConvergenceController, rows, at_level) -> bool:
    """at_level(j) at each of the last `window` levels j >= 1, newest first."""
    last = len(rows) - 1
    return last >= ctrl.window and all(map(at_level, range(last, last - ctrl.window, -1)))


def _still(rows, j, tol) -> bool:
    """Every strategy's sum moved by at most tol from level j - 1 to j."""
    return all(abs(x - p) <= tol for x, p in zip(rows[j], rows[j - 1]))


# Aitken's step is taken only where the increments shrink by at most this
# ratio per level: a slowly settling ladder (ratio near 1) extrapolates its
# noise, and a ratio of 1 or more is no convergence at all.
_AITKEN_RATIO = 0.75


def _aitken(sums) -> Optional[float]:
    """Aitken's delta-squared limit E_L of a ladder's last three float sums
    S_{L-2}, S_{L-1}, S_L, or None where it does not exist.

    With d_L = S_L - S_{L-1} and r = d_L / d_{L-1}: E_L = S_L when d_L = 0,
    and S_L + d_L * r / (1 - r) when r lies in [0, _AITKEN_RATIO], the
    limit of a sequence whose increments shrink by the ratio r.  Exact sums,
    ratios outside that range (alternating, slow or growing increments) and
    a non-finite limit give None."""
    if len(sums) < 3 or not all(isinstance(x, float) for x in sums[-3:]):
        return None
    d_prev, d = sums[-2] - sums[-3], sums[-1] - sums[-2]
    if d == 0:
        return sums[-1]
    if d_prev == 0:
        return None
    r = d / d_prev
    if not 0 <= r <= _AITKEN_RATIO:
        return None
    limit = sums[-1] + d * r / (1 - r)
    return limit if math.isfinite(limit) else None


def _limits(rows, j) -> Optional[list]:
    """Every strategy's Aitken limit at level j, or None if one has none."""
    limits = [_aitken(sums) for sums in zip(*rows[j - 2:j + 1])]
    return None if None in limits else limits


# The stop rules, as the module docstring states them: each reads the rows so
# far (one sum per strategy) and gives (status, estimate, bound) or None.
def _stable_window(ctrl: ConvergenceController, rows):
    def settled(j):
        tol = _tolerance(ctrl, rows[j])
        return max(rows[j]) - min(rows[j]) <= tol and _still(rows, j, tol)

    return _last_level(Status.CONVERGED, rows) if _holds(ctrl, rows, settled) else None


def _growth(ctrl: ConvergenceController, rows):
    def grew(k, j):
        now, before = abs(float(rows[j][k])), abs(float(rows[j - 1][k]))
        return now >= ctrl.growth_factor * before and now > ctrl.tolerance_abs and before > 0

    if any(_holds(ctrl, rows, lambda j: grew(k, j)) for k in range(len(rows[-1]))):
        return Status.DIVERGED, None, None
    return None


def _extrapolated_stable(ctrl: ConvergenceController, rows):
    last = len(rows) - 1
    if last < ctrl.window + 2:  # E_{L - window} needs three sums
        return None
    newest = newer = _limits(rows, last)
    for j in range(last - 1, last - 1 - ctrl.window, -1):
        older = newer and _limits(rows, j)  # None once a level has none
        if older is None:
            return None
        tol = ctrl.tolerance_at(max(map(abs, newer)))
        spread = max(newer) - min(newer)
        moved = max(abs(e - p) for e, p in zip(newer, older))
        if not (spread <= tol and moved <= tol):
            return None
        if newer is newest:
            bound = spread + moved
        newer = older
    return Status.CONVERGED, sum(newest) / len(newest), bound


_PROBE_RULES = (_stable_window, _growth, _extrapolated_stable)


def _bracket(ctrl: ConvergenceController, rows):
    lo, hi = min(rows[-1]), max(rows[-1])
    if hi - lo <= _tolerance(ctrl, rows[-1]):
        return Status.CONVERGED, 0.5 * (hi + lo), 0.5 * (hi - lo)
    return None


def _decide(ctrl: ConvergenceController, rows, rules):
    """The decision of the first of `rules` that fires on `rows`, or None."""
    return next(filter(None, (rule(ctrl, rows) for rule in rules)), None)


def _undecided(ctrl: ConvergenceController, rows):
    """A probe's label when no rule fired by the end of the schedule."""

    def apart(j):
        tol = _tolerance(ctrl, rows[j])
        return _still(rows, j, tol) and max(rows[j]) - min(rows[j]) >= ctrl.oscillation_gap

    if _holds(ctrl, rows, apart):
        return Status.OSCILLATING, None, None
    recent = rows[-ctrl.window:]
    status, estimate, _ = _last_level(Status.INCONCLUSIVE, rows)
    return status, estimate, max(max(row) for row in recent) - min(min(row) for row in recent)


def _last_bracket(ctrl: ConvergenceController, rows):
    """Darboux's label when no level's U - L came within tolerance."""
    return _last_level(Status.INCONCLUSIVE, rows)


def _ladder(ctrl: ConvergenceController, names, sums_at, rules=_PROBE_RULES, undecided=_undecided):
    """The one refinement loop: `sums_at(level)` gives (n, {strategy: sum}),
    kept as a row in `names` order; the first rule to fire stops the run,
    and `undecided` labels it if none does.  A non-finite float sum raises,
    as infinity agrees with itself within any tolerance."""
    rows, trace, decision = [], [], None
    for level in ctrl.schedule.levels():
        n, sums = sums_at(level)
        for name, value in sums.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteSumError(name, level, value)
        rows.append(tuple(sums[name] for name in names))
        trace.append(TraceRow(level, n, min(rows[-1]), max(rows[-1])))
        decision = _decide(ctrl, rows, rules)
        if decision is not None:
            break
    status, estimate, error_bound = decision or undecided(ctrl, rows)
    return IntegralResult(status, estimate, tuple(trace), error_bound, dict(zip(names, zip(*rows))))


# --------------------------------------------------------------------------
# Extrema oracles and distribution functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremaOracle:
    """Supplies true (inf, sup) of a function over cells ]u, v].

    `bounds(us, vs)` maps arrays of left and right endpoints to arrays of
    infima and suprema, one pair per cell.  Darboux sums are only as honest
    as this oracle, which is why it must be derived from structure
    (monotonicity, breakpoints), never from sampling.
    """

    bounds: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]

    def __call__(self, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.bounds(us, vs)
        lo, hi, us, vs = np.broadcast_arrays(lo, hi, us, vs)
        bad = np.flatnonzero(~(lo <= hi))
        if bad.size:
            i = bad[0]
            raise ArgumentError(
                f"oracle returned inf > sup on ]{us.flat[i]}, {vs.flat[i]}]"
            )
        return lo, hi

    @classmethod
    def monotone(cls, f: Callable, breakpoints: Sequence = ()) -> "ExtremaOracle":
        """Oracle for an elementwise f monotone between the given breakpoints
        (on the whole domain of use when there are none).

        Valid for continuous pieces and for jump functions whose one-sided
        limits are attained at the breakpoints themselves.
        """
        pts = tuple(sorted(breakpoints))

        def bounds(us, vs):
            fu, fv = f(us), f(vs)
            lo, hi = np.minimum(fu, fv), np.maximum(fu, fv)
            for p in pts:
                inside = (us < p) & (p < vs)
                fp = f(p)
                lo = np.where(inside, np.minimum(lo, fp), lo)
                hi = np.where(inside, np.maximum(hi, fp), hi)
            return lo, hi

        return cls(bounds)


@dataclass(frozen=True)
class DistributionFunction:
    """Monotone integrator g on [c, d], optionally with declared jumps.

    `evaluate` is elementwise.  Only increments of g matter, so g is
    normalized to g(c) = 0; a point mass sitting exactly at c is folded into
    the first increment, which the half-open cells would otherwise never see.
    [c, d] must be a domain divisions take: c < d, and float ends inside
    +-2**1023.
    """

    name: str
    c: float
    d: float
    evaluate: Callable[[float], float]
    jumps: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        _check_domain(self.c, self.d)
        for pos, mass in self.jumps:
            if not (self.c <= pos <= self.d):
                raise ArgumentError(f"jump at {pos} outside [{self.c}, {self.d}]")
            if not mass > 0:
                raise ArgumentError(f"jump mass at {pos} must be positive")

    def spot_check_monotone(self):
        grid = np.linspace(self.c, self.d, 129)
        vals = np.broadcast_to(np.asarray(self.evaluate(grid), dtype=float), grid.shape)
        if not np.all(np.isfinite(vals)):
            raise MonotonicityError(f"{self.name} is not finite on [{self.c}, {self.d}]")
        drops = np.diff(vals) < -1e-12 * max(1.0, float(np.max(np.abs(vals))))
        if np.any(drops):
            i = int(np.argmax(drops))
            raise MonotonicityError(
                f"{self.name} decreases between u={grid[i]} and u={grid[i+1]}"
            )

    def increments(self) -> IntervalFactor:
        return increments_of(self.evaluate, name=f"d({self.name})")


def identity_distribution(c: float = 0.0, d: float = 1.0) -> DistributionFunction:
    return DistributionFunction(name="identity", c=c, d=d, evaluate=lambda u: u)


def square_distribution(c: float = 0.0, d: float = 1.0) -> DistributionFunction:
    if c < 0:
        raise ArgumentError("square distribution needs c >= 0 to stay monotone")
    return DistributionFunction(name="square", c=c, d=d, evaluate=lambda u: u * u)


def step_distribution(
    masses: Sequence[Tuple[float, float]], c: float, d: float, name: str = "step"
) -> DistributionFunction:
    """Pure point-mass distribution function on [c, d].

    g(u) accumulates every mass at positions <= u, with g(c) = 0 so that a
    mass at c itself lands in the first cell's increment.
    """
    masses = tuple(sorted((float(p), float(m)) for p, m in masses))
    positions = np.array([p for p, _ in masses])
    cumulative = np.concatenate(([0.0], np.cumsum([m for _, m in masses])))

    def evaluate(u):
        return np.where(u <= c, 0.0, cumulative[np.searchsorted(positions, u, side="right")])

    return DistributionFunction(name=name, c=c, d=d, evaluate=evaluate, jumps=masses)


# --------------------------------------------------------------------------
# Gauges for special occasions
# --------------------------------------------------------------------------


def jump_anchoring_gauge(jumps: Sequence[float], ceiling: float) -> Gauge:
    """Gauge that forces every declared jump to appear as a tag.

    Away from the jumps the width is the distance to the nearest jump (so no
    cell straddles one untagged); at a jump it is the ceiling, so cells
    tagged there can close over it.
    """
    pts = np.array(sorted(float(p) for p in jumps))
    if len(pts) == 0:
        raise ArgumentError("anchoring gauge needs at least one jump point")
    if not ceiling > 0:
        raise ArgumentError("ceiling must be positive")

    def fn(s):
        dist = np.min(np.abs(np.subtract.outer(s, pts)), axis=-1)
        return np.where(dist == 0.0, ceiling, np.minimum(dist, ceiling))

    return Gauge.from_function(fn, name=f"anchor({len(pts)} jumps)")


def singularity_gauge(ceiling: float, at_origin: float, origin: float = 0.0) -> Gauge:
    """Gauge delta(s) = min((s - origin)/2, ceiling) with a positive floor at
    the origin itself; forces the origin to tag its own shrinking first cell."""
    if not ceiling > 0 or not at_origin > 0:
        raise ArgumentError("gauge widths must be positive")

    def fn(s):
        return np.where(s <= origin, at_origin, np.minimum((s - origin) / 2.0, ceiling))

    return Gauge.from_function(fn, name="singularity")


# --------------------------------------------------------------------------
# Integrators
# --------------------------------------------------------------------------


# Cells per batch of a level: a level's cells are checked, evaluated and
# summed at most this many at a time (a larger division alone), so their
# columns and values stay cache-sized.
_BLOCK_CELLS = 2 ** 16

# numpy adds up to this many float64 values in one unrolled loop, so its
# pairwise summation never splits a run this short.
_PAIRWISE_LEAF = 128


def _pairwise(lo: int, hi: int, block_sum):
    """block_sum(lo', hi') over blocks of the cells lo..hi - 1, left to
    right, added up the way numpy's pairwise summation adds the cells'
    values: a run of more than max(_BLOCK_CELLS, _PAIRWISE_LEAF) cells
    splits after n // 2 cells rounded down to a multiple of 8, and the
    halves' sums are added.  So block sums from np.sum add up to np.sum over
    all the cells, bit for bit."""
    n = hi - lo
    if n <= max(_BLOCK_CELLS, _PAIRWISE_LEAF):
        return block_sum(lo, hi)
    half = n // 2 - n // 2 % 8
    return _pairwise(lo, lo + half, block_sum) + _pairwise(lo + half, hi, block_sum)


class _Sums(tuple):
    """A group's sums on one piece before the level is evaluated: one tree
    per strategy, a segment id or a pair (x, y) that reads x + y.  Adding
    two adds them elementwise, so they add up as the sums they stand for
    would."""

    def __add__(self, other):
        return _Sums(zip(self, other))


def _total(tree, sums):
    """The sum a tree stands for, added as it pairs the segments' sums.  A
    tree is one piece's: _pairwise's blocks or a split's two sides, a few
    levels deep."""
    if isinstance(tree, tuple):
        return _total(tree[0], sums) + _total(tree[1], sums)
    return sums[tree]


# The grid cuts, by name: cut points lo..hi of an n-cell grid over ]a, b].
_GRID_EDGES = {"uniform": _uniform_edges, "shifted-uniform": _shifted_edges}


# The bisection cuts, by name.
_BISECTION_CUTS = ("delta-fine", "split-delta-fine")


def _shared_build(strat: Strategy):
    """Consecutive strategies of one key share their divisions: a grid's
    edges do not depend on its tag rule, and a bisection's cells (or its
    grid's under the default gauge) depend only on its cuts and the
    selector set."""
    if strat.cuts in _GRID_EDGES:
        return strat.cuts
    return strat.cuts, frozenset(strat.selectors)


def _split_point(lo, hi):
    """lo + theta * (hi - lo), theta the irrational shift of the shifted
    grids: IRRATIONAL_SHIFT on exact bounds, FLOAT_SHIFT on floats."""
    if is_exact_scalar(lo) and is_exact_scalar(hi):
        return lo + IRRATIONAL_SHIFT * (hi - lo)
    return lo + FLOAT_SHIFT * (hi - lo)


# gauge_integrate's default gauge at level L is the constant (b - a) * 2**-L,
# and under a constant gauge a bisection accepts every cell of a side at the
# least depth at which a selector of the set is fine: its division is the
# side's uniform grid of that depth, each order tagging it with its first
# fine selector.  An endpoint tag is fine on cells shorter than the gauge,
# a midpoint tag on cells shorter than twice it, a depth sooner (but not
# before depth 0).  So the default run cuts grid rows (_default_rows): by
# their cuts, each side's least depth for endpoint tags, less L.  On the
# whole piece it is L + 1; the split point lies FLOAT_SHIFT ~ 0.207 of the
# way along, so on its two sides it is L - 2 and L (at least 0).
_DEFAULT_GRIDS = {"delta-fine grid": (1,), "split-delta-fine grid": (-2, 0)}


def _default_rows(strategies: Sequence[Strategy], a, b):
    """The gauge strategies as grid rows over ]a, b] under the default
    gauge.  A float split point is rounded, and on a domain of a few floats
    it can fall outside the eighth to a quarter of the way along that
    _DEFAULT_GRIDS needs; such a domain is refused."""
    _check_domain(a, b)
    rows = [Strategy(s.name, f"{s.cuts} grid", s.selectors) for s in strategies]
    if any(s.cuts == "split-delta-fine" for s in strategies) and not (
            is_exact_scalar(a) and is_exact_scalar(b)):
        u, m, v = (Fraction(float(x)) for x in (a, _split_point(a, b), b))
        if not (v - u) / 8 < m - u < (v - u) / 4:
            raise ArgumentError(f"float domain ]{_plain(a)!r}, {_plain(b)!r}] is too "
                                f"narrow to split at {FLOAT_SHIFT!r} of the way along")
    return rows


def _grids(cuts: str, orders, lo, hi, mesh):
    """((cut points, lo', hi', cells), each order's tag rule) of each grid
    that a row of grid cuts `cuts` cuts the piece ]lo, hi] into.  A
    "uniform" or "shifted-uniform" row cuts it into `mesh` cells; a
    _DEFAULT_GRIDS row, mesh = 2**L, cuts each side as its bisection under
    the gauge (hi - lo) / mesh would, which refuses a side deeper than
    divisions.MAX_LEVEL once it reaches it."""
    if cuts in _GRID_EDGES:
        yield (_GRID_EDGES[cuts], lo, hi, mesh), [order[0] for order in orders]
        return
    offsets, level = _DEFAULT_GRIDS[cuts], mesh.bit_length() - 1
    ends = (lo, hi) if len(offsets) == 1 else (lo, _split_point(lo, hi), hi)
    for u, v, offset in zip(ends, ends[1:], offsets):
        endpoint = max(level + offset, 0)
        depth = max(endpoint - ("midpoint" in orders[0]), 0)
        if depth > divisions.MAX_LEVEL:
            raise GaugeTooDemandingError(u, v, divisions.MAX_LEVEL)
        rules = [order[0] if depth == endpoint else "midpoint" for order in orders]
        yield (_uniform_edges, u, v, 2 ** depth), rules


class _Level:
    """One level's segments, checked, evaluated and summed a batch at a
    time.  A segment is the cells of one division, or of one block of it,
    with the tags one strategy (its owner) sums it over; `sums[i]` is
    segment i's sum once its batch has run.

    Segments are added in build order and batched end to end, at most
    _BLOCK_CELLS cells a batch (a larger segment alone), and a batch is one
    cell check and one call of h over the concatenated columns
    (_batch_sums).  `fault` is (strategy, error, refused) for the earliest
    strategy in order known to fault, at its first faulting segment, or at
    a build refused after its segments so far (`refused`), which one of
    those segments still pre-empts.  A strategy at or after it no longer
    decides the level's fault: its segments are dropped, and a batch that
    faults runs again without them."""

    def __init__(self, h: BurkillIntegrand):
        self.h = h
        self.sums = []
        self.pending = []  # (owner, tags, edges, segment id), in build order
        self.cells = 0
        self.fault = None

    def alive(self, s: int) -> bool:
        f = self.fault
        return f is None or s < f[0] or (s == f[0] and f[2])

    def known(self, value) -> int:
        """A segment whose sum is known without evaluating h."""
        self.sums.append(value)
        return len(self.sums) - 1

    def segment(self, owner: int, tags, edges) -> int:
        cells = len(edges) - 1
        if self.pending and self.cells + cells > _BLOCK_CELLS:
            self.flush()
        self.sums.append(None)
        self.pending.append((owner, tags, edges, len(self.sums) - 1))
        self.cells += cells
        return len(self.sums) - 1

    def refuse(self, owner: int, error: Exception):
        """`owner`'s next build raised `error`, after every segment it
        added so far."""
        if self.alive(owner):
            self.fault = owner, error, True

    def flush(self):
        batch, self.pending, self.cells = self.pending, [], 0
        while batch := [seg for seg in batch if self.alive(seg[0])]:
            sums, fault = _batch_sums(self.h, batch)
            if fault is None:
                for seg, value in zip(batch, sums):
                    self.sums[seg[3]] = value
                return
            k, error = fault
            self.fault = batch[k][0], error, False


def _batch_sums(h: BurkillIntegrand, batch):
    """(each segment's sum, None), or (None, (k, error)) for the first
    segment k of the batch that faults and what summing it on its own as a
    TaggedDivision raises: the refusal of an invalid division
    (cells._refused), or h's fault at the first cell whose own evaluation
    fails (divisions._named_fault).  h is called once, on the segments
    before the first invalid one."""
    bounds = [0]
    for _, _, edges, _ in batch:
        bounds.append(bounds[-1] + len(edges) - 1)
    is_exact = not isinstance(batch[0][2], np.ndarray)
    if len(batch) == 1:
        (_, tags, edges, _), = batch
        columns = tags, edges[:-1], edges[1:]
    else:
        # the three columns as thirds of one concatenation
        join = exact.concatenate if is_exact else np.concatenate
        n = bounds[-1]
        joined = join([t for _, t, _, _ in batch] + [e[:-1] for _, _, e, _ in batch]
                      + [e[1:] for _, _, e, _ in batch])
        columns = joined[:n], joined[n:2 * n], joined[2 * n:]
    refused = _refused(*columns, is_exact, bounds)
    valid = len(batch) if refused is None else refused[0]
    if valid:
        end = bounds[valid]
        if refused is not None:
            columns = [c[:end] for c in columns]
        try:
            sums = _segment_sums(h, *columns, is_exact, bounds[:valid + 1])
        except Exception as exc:  # noqa: BLE001 - named, then raised by the caller
            i, error = _named_fault(h, *columns, exc)
            return None, (0 if i is None else bisect_right(bounds, i) - 1, error)
    return (sums, None) if refused is None else (None, refused)


def _level_sums(h: BurkillIntegrand, strategies: Sequence[Strategy], pieces, known: dict):
    """(cells, {strategy: sum}) of one level over the (lo, hi, mesh)
    pieces, the one driver of rs, gauge and Lebesgue sums.

    A grid strategy cuts a piece into the _grids of its cuts, `mesh` cells
    or, for a row of gauge_integrate's default gauge, the grid of each side
    that the bisection under that gauge would make, each in _pairwise
    blocks; a delta-fine strategy bisects a piece under the gauge `mesh`,
    one block per piece, and a split-delta-fine one bisects the two sides
    of the piece's _split_point, one block per side.  Each strategy adds
    its block sums as its tree pairs them, and its pieces' sums left to
    right.  Strategies of one _shared_build key form a group, and each
    block is built once per group: read-only edges and one tag column per
    strategy.

    The level is one pass: every group's blocks are built in order, and
    their segments (a block with one strategy's tags) are laid end to end
    in build order, checked, evaluated and summed a _Level batch
    at a time, so a level of up to _BLOCK_CELLS cells makes one cell check
    and one call of h.  A fault raises as summing each strategy on its own
    would: that of the first strategy in order that faults, at its first
    faulting block, a refused division or a failed build included.  A
    bisection under a gauge function is built only once the level so far
    is summed, so the gauge is called exactly where summing each strategy
    in turn calls it; a faulting level may build grids past the fault,
    which calls nothing of the caller's.

    A rule that ignores the tag (`h.reads_tag` False) sums alike over every
    tagging of one division, so it is summed once per distinct division:
    over the first strategy's tags of each block, and that sum is every
    strategy's of the group (rs's rational-left and rational-mid).  A grid
    block is summed once per level, and its sum goes into `known`, keyed by
    (edges, lo, hi, cells, first, last cut); a block in `known` is not
    built at all, so a caller that keeps `known` for the run, as
    gauge_integrate does, sums each grid once: gauge's right tags take the
    left tags' grid, its midpoint tags the grid the left tags summed a
    level before, and split-right the grids of split-left.  The other tags'
    check is skipped with the sum: every tag is valid on valid edges, as a
    domain that passes divisions._check_domain has only finite midpoints.
    A stored sum is one that raised nothing, so a fault still raises where
    summing each strategy on its own raises it first."""
    share = not h.reads_tag
    level = _Level(h)
    shared = {}  # grid key -> its tag-free segment, this level
    n, trees, first = 0, [], 0  # first: the index of the group's first strategy

    def segments(edges, columns):
        """The group's segments on one block: one per tag column, None for
        a strategy that no longer decides the level, or the first column's
        alone for a tag-free rule."""
        if share:
            return _Sums([level.segment(first, columns[0], edges)])
        return _Sums(level.segment(first + k, tags, edges) if level.alive(first + k) else None
                     for k, tags in enumerate(columns))

    def grid(key, rules):
        """The group's segments on the grid block `key`, tagged by `rules`."""
        if not level.alive(first):
            return _Sums([None] * width)
        if share and key in known:
            return _Sums([level.known(known[key])])
        if share and key in shared:
            return _Sums([shared[key]])
        edges = key[0](*key[1:])
        edges.setflags(write=False)
        sums = segments(edges, [_tag_points(rule, edges[:-1], edges[1:]) for rule in rules[:width]])
        if share:
            (shared[key],) = sums
        return sums

    for key, group in groupby(strategies, key=_shared_build):
        group = list(group)
        if not level.alive(first):
            break
        width = 1 if share else len(group)
        orders = tuple(strat.selectors for strat in group)
        cells = 0

        if group[0].cuts in _BISECTION_CUTS:
            def side(lo, hi, gauge):
                nonlocal cells
                # the gauge is called only where summing each strategy in
                # turn calls it: once the blocks before are summed and none
                # of them stops the level
                level.flush()
                if not level.alive(first):
                    return _Sums([None] * width)
                edges, columns = _delta_fine(lo, hi, gauge, orders, DEFAULT_DEPTH_CAP)
                cells += len(edges) - 1
                return segments(edges, columns)

            if group[0].cuts == "delta-fine":
                piece_trees = side
            else:
                def piece_trees(lo, hi, gauge):
                    m = _split_point(lo, hi)
                    return side(lo, m, gauge) + side(m, hi, gauge)
        else:
            def piece_trees(lo, hi, mesh):
                nonlocal cells
                sides = []
                for side, rules in _grids(group[0].cuts, orders, lo, hi, mesh):
                    cells += side[3]
                    sides.append(_pairwise(0, side[3], lambda i, j: grid((*side, i, j), rules)))
                return reduce(add, sides)

        try:
            piece_sums = list(starmap(piece_trees, pieces))
        except Exception as exc:  # noqa: BLE001 - an earlier strategy may fault first
            level.refuse(first, exc)
            break
        # each strategy's piece trees, in piece order
        group_trees = list(zip(*piece_sums))
        trees += group_trees * len(group) if share else group_trees
        n = max(n, cells)
        first += len(group)
    level.flush()
    if level.fault:
        raise level.fault[1]
    for key, i in shared.items():
        known[key] = level.sums[i]
    # pieces add left to right, a loop however many there are
    return n, {strat.name: reduce(add, (_total(tree, level.sums) for tree in parts))
               for strat, parts in zip(strategies, trees)}


def rs_integrate(
    h: BurkillIntegrand,
    a,
    b,
    ctrl: Optional[ConvergenceController] = None,
) -> IntegralResult:
    """Constant-mesh (Riemann-Stieltjes style) probe of lim sums of h.

    Each level builds one division per grid strategy in RS_STRATEGIES with
    the same cell count and compares the sums: left and midpoint tags on the
    uniform grid, left and right tags on the shifted one.  Strategies of one
    grid cuts share its edges, built once per level; one division is alive
    at a time.  Even sums that never depend on the division (telescoping
    ones) converge by a stop rule, never by one level's agreement.
    """
    ctrl = ctrl or ConvergenceController()

    def sums_at(level: int):
        return _level_sums(h, RS_STRATEGIES, [(a, b, ctrl.schedule.cells_for(level))], {})

    return _ladder(ctrl, [s.name for s in RS_STRATEGIES], sums_at)


def gauge_integrate(
    h: BurkillIntegrand,
    a,
    b,
    ctrl: Optional[ConvergenceController] = None,
    *,
    gauges: Optional[Callable[[int], Gauge]] = None,
    strategies: Sequence[Strategy] = GAUGE_STRATEGIES,
) -> IntegralResult:
    """Gauge-fine probe: sums over delta_k-fine divisions, delta_k shrinking.

    Strategies are tag-selector orders handed to the bisection builder,
    over the whole of ]a, b] ("delta-fine") or on each side of an
    irrational split point ("split-delta-fine"): bisecting only at dyadic
    points of ]a, b] never cuts a rational domain at an irrational point,
    so without the split rows a Dirichlet increment sums to 0 at every
    level.  A callable level -> Gauge sets delta_k (singularity-shrinking
    gauges, jump-anchoring gauges, ...), and each level bisects under it.

    By default delta_k is the constant (b - a) * 2**-k, under which the
    gauge integral is the Riemann integral and every bisection is a uniform
    grid, so the run is a mesh probe: each strategy becomes a grid row once
    (_DEFAULT_GRIDS).  On ]a, b] endpoint tags take 2**(k + 1) cells and
    midpoint tags 2**k; on the split sides endpoint tags take 2**(k - 2)
    and 2**k cells, midpoint tags half as many, and no side less than one.
    A rule that ignores the tag is summed once per distinct grid of the
    run: left and right tags share one, and midpoint tags take the one the
    endpoint tags summed a level before.
    """
    ctrl = ctrl or ConvergenceController()
    if not strategies:
        raise ArgumentError("need at least one tag-selector strategy")
    names = [strat.name for strat in strategies]
    if len(set(names)) < len(names):
        duplicates = sorted({name for name in names if names.count(name) > 1})
        raise ArgumentError(f"gauge strategies need distinct names, got {duplicates} twice or more")
    for strat in strategies:
        if strat.cuts not in _BISECTION_CUTS:
            raise ArgumentError(
                f"gauge strategy {strat.name!r} needs cuts 'delta-fine' or "
                f"'split-delta-fine', got {strat.cuts!r}"
            )
        _check_selectors(strat.selectors)
    rows = strategies if gauges else _default_rows(strategies, a, b)
    known = {}

    def sums_at(level: int):
        mesh = gauges(level) if gauges else 2 ** level
        return _level_sums(h, rows, [(a, b, mesh)], known)

    return _ladder(ctrl, names, sums_at)


def darboux_riemann(
    f: Callable,
    oracle: ExtremaOracle,
    a,
    b,
    ctrl: Optional[ConvergenceController] = None,
) -> IntegralResult:
    """Upper/lower (Darboux) sums over uniform partitions.

    Unlike the sampling probes this brackets the integral: convergence is
    declared exactly when U - L drops within tolerance, and the estimate
    (U + L) / 2 then carries a proven error bound of (U - L) / 2.  Each
    level calls the oracle once on the arrays of cell endpoints and the
    elementwise f once on the midpoint tags; a sampled value escaping its
    cell's [inf, sup] raises OracleInconsistencyError.
    """
    ctrl = ctrl or ConvergenceController()
    af, bf = float(a), float(b)

    def sums_at(level: int):
        n = ctrl.schedule.cells_for(level)
        division = make_uniform(af, bf, n, tag_rule="midpoint")
        tags, us, vs = division.tags, division.lefts, division.rights
        lo, hi = oracle(us, vs)
        sample = np.broadcast_to(f(tags), tags.shape)
        slack = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        bad = np.flatnonzero(~((lo - slack <= sample) & (sample <= hi + slack)))
        if bad.size:
            i = bad[0]
            raise OracleInconsistencyError(tags[i], sample[i], (lo[i], hi[i]))
        width = vs - us
        return n, {"lower": float(np.sum(lo * width)), "upper": float(np.sum(hi * width))}

    return _ladder(ctrl, ("lower", "upper"), sums_at, (_bracket,), _last_bracket)


def lebesgue_distribution_integrate(
    g: DistributionFunction,
    ctrl: Optional[ConvergenceController] = None,
) -> IntegralResult:
    """Integral of the identity against dg over [c, d], i.e. a mean of g.

    Runs the constant-mesh probe on u * dg first.  If that does not converge
    and g declares jumps, reruns under gauges that anchor tags at the jumps,
    where sums over anchored divisions become exact once cells separate the
    jumps.
    """
    ctrl = ctrl or ConvergenceController()
    g.spot_check_monotone()
    h = make_integrand(lambda u: u, g.increments(), convention="tag", name=f"u d({g.name})")
    result = rs_integrate(h, g.c, g.d, ctrl)
    if result.status is Status.CONVERGED or not g.jumps:
        return result

    jump_points = [p for p, _ in g.jumps]
    interior = {p for p in jump_points if g.c < p < g.d}
    pieces = []
    edges = [g.c] + sorted(interior) + [g.d]
    for lo, hi in zip(edges[:-1], edges[1:]):
        anchors = tuple(p for p in jump_points if lo <= p <= hi)
        pieces.append((lo, hi, anchors or (lo, hi)))

    span = g.d - g.c

    def sums_at(level: int):
        ceiling = span * 2.0 ** (-level)
        return _level_sums(h, ANCHORED_STRATEGIES, [
            (lo, hi, jump_anchoring_gauge(anchors, ceiling)) for lo, hi, anchors in pieces
        ], {})

    return _ladder(ctrl, [s.name for s in ANCHORED_STRATEGIES], sums_at)
