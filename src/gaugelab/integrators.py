"""Integral definitions driven by a shared finite-refinement controller.

"For every division finer than delta" is not something a program can check,
so every integrator here runs a ladder of refinement levels under several
independent division strategies and classifies what it sees:

* converged    - strategies agree with each other and with their own
                 previous level, for a window of consecutive levels;
* diverged     - some strategy's sums keep growing geometrically;
* oscillating  - each strategy is internally stable but they disagree by a
                 persistent gap (the signature of tag sensitivity);
* inconclusive - the schedule ended without any of the above.

The labels corroborate; only the Darboux integrator, whose upper and lower
sums genuinely bracket the integral, proves its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby, starmap
from operator import add, attrgetter
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cells import Gauge, TaggedDivision
from .divisions import (
    DEFAULT_DEPTH_CAP,
    RefinementSchedule,
    _delta_fine,
    _grid_columns,
    _shifted_edges,
    _uniform_edges,
    make_uniform,
    riemann_sum,
)
from .errors import (
    ArgumentError,
    MonotonicityError,
    NonFiniteSumError,
    OracleInconsistencyError,
)
from .integrand import BurkillIntegrand, IntervalFactor, increments_of, make_integrand
from .results import IntegralResult, Status, TraceRow


# --------------------------------------------------------------------------
# Division strategies
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridStrategy:
    """A family of divisions for constant-mesh probing: grid kind + tag rule."""

    name: str
    family: str  # "uniform" | "shifted-uniform"
    tag_rule: str

    def edges(self, a, b, n: int, lo: int, hi: int):
        """Cut points lo..hi of this family's n-cell grid over ]a, b]."""
        if self.family == "uniform":
            return _uniform_edges(a, b, n, lo, hi)
        return _shifted_edges(a, b, n, lo, hi)


RS_STRATEGIES = (
    GridStrategy("rational-left", "uniform", "left"),
    GridStrategy("rational-mid", "uniform", "midpoint"),
    GridStrategy("shifted-left", "shifted-uniform", "left"),
)


@dataclass(frozen=True)
class TagSelectorStrategy:
    """A tag-selector order injected into gauge-driven bisection."""

    name: str
    selectors: Tuple[str, ...]


GAUGE_STRATEGIES = (
    TagSelectorStrategy("left-tags", ("left",)),
    TagSelectorStrategy("mid-tags", ("midpoint",)),
    TagSelectorStrategy("right-tags", ("right",)),
)

# Selector orders that always include both endpoints; required when a gauge
# anchors tags at interval endpoints (each anchored cell accepts exactly one
# endpoint candidate).
ANCHORED_STRATEGIES = (
    TagSelectorStrategy("left-first", ("left", "midpoint", "right")),
    TagSelectorStrategy("right-first", ("right", "midpoint", "left")),
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
        if not self.tolerance_abs > 0 or not self.tolerance_rel >= 0:
            raise ArgumentError("tolerances must be positive")
        if self.window < 2:
            raise ArgumentError("stability window must be >= 2")
        if not self.growth_factor > 1:
            raise ArgumentError("growth factor must exceed 1")
        if not self.oscillation_gap > 0:
            raise ArgumentError("oscillation gap must be positive")

    def tolerance_at(self, scale: float) -> float:
        return self.tolerance_abs + self.tolerance_rel * abs(scale)


def _abs_value(x) -> float:
    return abs(float(x))


class _Classifier:
    """Incremental status tracking over one run's levels."""

    def __init__(self, ctrl: ConvergenceController, names: Sequence[str], *,
                 first_level_accept: bool = False):
        self.ctrl = ctrl
        self.names = list(names)
        self.first_level_accept = first_level_accept
        self.rows: list[TraceRow] = []
        self.history: dict[str, list] = {name: [] for name in self.names}
        self.stable_run = 0
        self.osc_run = 0
        self.growth_runs = {name: 0 for name in self.names}
        self.decided: Optional[Status] = None

    def _record(self, level: int, n: int, sums: dict):
        """Append the level's row and sums; return the row and its tolerance."""
        values = [sums[name] for name in self.names]
        row = TraceRow(level, n, min(values), max(values))
        self.rows.append(row)
        for name in self.names:
            self.history[name].append(sums[name])
        return row, self.ctrl.tolerance_at(max(_abs_value(v) for v in values))

    def observe(self, level: int, n: int, sums: dict) -> Optional[Status]:
        ctrl = self.ctrl
        row, tol = self._record(level, n, sums)
        spread = row.spread
        spread_small = spread <= tol
        if len(self.rows) == 1:
            if self.first_level_accept and spread_small:
                # Telescoping sums agree across grid families because they
                # do not depend on the division; at a loose tolerance other
                # integrands can agree here by coincidence.
                self.decided = Status.CONVERGED
            return self.decided
        deltas_small = all(abs(h[-1] - h[-2]) <= tol for h in self.history.values())

        # stability
        if spread_small and deltas_small:
            self.stable_run += 1
        else:
            self.stable_run = 0
        # geometric growth
        for name in self.names:
            cur = _abs_value(self.history[name][-1])
            prev = _abs_value(self.history[name][-2])
            if cur >= ctrl.growth_factor * prev and cur > ctrl.tolerance_abs and prev > 0:
                self.growth_runs[name] += 1
            else:
                self.growth_runs[name] = 0
        # per-strategy stable but mutually apart
        if deltas_small and spread >= ctrl.oscillation_gap:
            self.osc_run += 1
        else:
            self.osc_run = 0

        if self.stable_run >= ctrl.window:
            self.decided = Status.CONVERGED
            return self.decided
        if any(run >= ctrl.window for run in self.growth_runs.values()):
            self.decided = Status.DIVERGED
            return self.decided
        # Oscillation is a negative claim; never exit early for it, more
        # levels only strengthen the evidence.
        return None

    def _estimate(self, status: Status):
        if status not in (Status.CONVERGED, Status.INCONCLUSIVE):
            return None, None
        last = self.rows[-1]
        return last.midpoint, abs(last.spread)

    def result(self) -> IntegralResult:
        status = self.decided
        if status is None:
            if self.osc_run >= self.ctrl.window:
                status = Status.OSCILLATING
            else:
                status = Status.INCONCLUSIVE
        estimate, error_bound = self._estimate(status)
        return IntegralResult(
            status=status,
            estimate=estimate,
            trace=tuple(self.rows),
            error_bound=error_bound,
            strategy_sums={name: tuple(vals) for name, vals in self.history.items()},
        )


class _Bracket(_Classifier):
    """Darboux's rule: lower and upper sums bracket the integral, so the run
    converges at the first level, the coarsest included, where U - L is
    within tolerance, with the proven error bound (U - L) / 2."""

    def __init__(self, ctrl: ConvergenceController):
        super().__init__(ctrl, ("lower", "upper"))

    def observe(self, level: int, n: int, sums: dict) -> Optional[Status]:
        row, tol = self._record(level, n, sums)
        if row.spread <= tol:
            self.decided = Status.CONVERGED
        return self.decided

    def _estimate(self, status: Status):
        if status is not Status.CONVERGED:
            return super()._estimate(status)
        last = self.rows[-1]
        return 0.5 * (last.sum_max + last.sum_min), 0.5 * (last.sum_max - last.sum_min)


def _ladder(schedule: RefinementSchedule, sums_at_level, classifier):
    """The one refinement loop: `sums_at_level(level)` gives (n, {strategy:
    sum}), the classifier observes it, and a returned status stops early.
    A non-finite float sum raises before it is classified, as infinity agrees
    with itself within any tolerance; exact sums are not checked."""
    for level in schedule.levels():
        n, sums = sums_at_level(level)
        for name, value in sums.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteSumError(name, level, value)
        if classifier.observe(level, n, sums) is not None:
            break
    return classifier.result()


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
    """

    name: str
    c: float
    d: float
    evaluate: Callable[[float], float]
    jumps: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if not self.c < self.d:
            raise ArgumentError(f"domain needs c < d, got [{self.c}, {self.d}]")
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


# Cells per block of an rs level: a level is built and summed block by
# block, so its edges, tags and integrand values stay cache-sized.
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


def _level_sums(h: BurkillIntegrand, strategies, key, build, add_up):
    """(cells, {strategy: sum}) of one level, the one driver of rs, gauge
    and Lebesgue sums.

    Consecutive strategies with one `key` form a group that shares its
    divisions: `build(group, *block)` gives a block's read-only edges and
    one tag column per strategy of the group, and `add_up(block_sum)` adds
    up block_sum(*block) over the level's blocks.  Each strategy's division
    is made when that strategy is summed.  A fault raises as summing each
    strategy on its own would: that of the first strategy in order that
    faults, at its first faulting block, a refused division or a failed
    build included.  A group's first strategy is summed before the others,
    so its fault raises at once and nothing more is built."""
    n, sums = 0, {}
    kept = None  # the last block's edges
    for _, group in groupby(strategies, key=key):
        group = list(group)
        faults = {}  # index in the group -> that strategy's first fault
        cells = 0

        def block_sum(*block):
            nonlocal cells, kept
            edges, columns = build(group, *block)
            # A block's edges are freed only once the next block is built:
            # freed first, they let glibc's malloc trim the heap, and the
            # next block faults its pages in again.
            kept = edges
            cells += len(edges) - 1
            block_sums = np.zeros(len(group), dtype=object)
            for k, tags in enumerate(columns):
                if k in faults:
                    continue
                try:
                    block_sums[k] = riemann_sum(h, TaggedDivision(tags, edges))
                except Exception as exc:  # noqa: BLE001 - an earlier strategy may fault later
                    if k == 0:
                        raise
                    faults[k] = exc
            return block_sums

        group_sums = add_up(block_sum)
        if faults:
            raise faults[min(faults)]
        sums.update(zip((strat.name for strat in group), group_sums.tolist()))
        n = max(n, cells)
    return n, sums


def _fine_sums(h: BurkillIntegrand, strategies: Sequence[TagSelectorStrategy], pieces_at):
    """Level callback over delta-fine divisions of the (lo, hi, gauge)
    pieces `pieces_at(level)` lists; a strategy adds its pieces' sums left
    to right, and strategies of one selector set share each piece's
    division."""

    def build(group, lo, hi, gauge):
        orders = tuple(strat.selectors for strat in group)
        return _delta_fine(lo, hi, gauge, orders, DEFAULT_DEPTH_CAP)

    def sums_at(level: int):
        pieces = pieces_at(level)
        return _level_sums(h, strategies, lambda strat: frozenset(strat.selectors), build,
                           lambda block_sum: reduce(add, starmap(block_sum, pieces)))

    return sums_at


def rs_integrate(
    h: BurkillIntegrand,
    a,
    b,
    ctrl: Optional[ConvergenceController] = None,
) -> IntegralResult:
    """Constant-mesh (Riemann-Stieltjes style) probe of lim sums of h.

    Each level builds one division per grid strategy in RS_STRATEGIES with
    the same cell count and compares the sums.  Strategies of one grid
    family share its edges, built once per level; one division is alive at
    a time.  Agreement within
    `ctrl.tolerance_at` across the uniform and shifted grid families at the
    very first level is accepted at once: telescoping sums (constant point
    factors against additive interval factors) never depended on the
    division, but at a loose tolerance other integrands can agree there too.
    """
    ctrl = ctrl or ConvergenceController()

    def sums_at(level: int):
        n = ctrl.schedule.cells_for(level)

        def build(family, lo, hi):
            edges = family[0].edges(a, b, n, lo, hi)
            return _grid_columns(edges, [strat.tag_rule for strat in family])

        return _level_sums(h, RS_STRATEGIES, attrgetter("family"), build,
                           lambda block_sum: _pairwise(0, n, block_sum))

    classifier = _Classifier(
        ctrl, [s.name for s in RS_STRATEGIES], first_level_accept=True
    )
    return _ladder(ctrl.schedule, sums_at, classifier)


def gauge_integrate(
    h: BurkillIntegrand,
    a,
    b,
    ctrl: Optional[ConvergenceController] = None,
    *,
    gauges: Optional[Callable[[int], Gauge]] = None,
    strategies: Sequence[TagSelectorStrategy] = GAUGE_STRATEGIES,
) -> IntegralResult:
    """Gauge-fine probe: sums over delta_k-fine divisions, delta_k shrinking.

    By default delta_k is the constant (b - a) * 2**-level; a callable
    level -> Gauge can inject anything else (singularity-shrinking gauges,
    jump-anchoring gauges, ...).  Strategies are tag-selector orders handed
    to the bisection builder.
    """
    ctrl = ctrl or ConvergenceController()
    if not strategies:
        raise ArgumentError("need at least one tag-selector strategy")
    span = float(b) - float(a)

    def pieces_at(level: int):
        gauge = gauges(level) if gauges else Gauge.constant(span * 2.0 ** (-level))
        return [(a, b, gauge)]

    classifier = _Classifier(ctrl, [s.name for s in strategies])
    return _ladder(ctrl.schedule, _fine_sums(h, strategies, pieces_at), classifier)


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

    return _ladder(ctrl.schedule, sums_at, _Bracket(ctrl))


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
    interior = [p for p in jump_points if g.c < p < g.d]
    pieces = []
    edges = [g.c] + sorted(interior) + [g.d]
    for lo, hi in zip(edges[:-1], edges[1:]):
        anchors = tuple(p for p in jump_points if lo <= p <= hi)
        pieces.append((lo, hi, anchors or (lo, hi)))

    span = g.d - g.c

    def anchored_pieces(level: int):
        ceiling = span * 2.0 ** (-level)
        return [(lo, hi, jump_anchoring_gauge(anchors, ceiling)) for lo, hi, anchors in pieces]

    classifier = _Classifier(ctrl, [s.name for s in ANCHORED_STRATEGIES])
    return _ladder(ctrl.schedule, _fine_sums(h, ANCHORED_STRATEGIES, anchored_pieces), classifier)
