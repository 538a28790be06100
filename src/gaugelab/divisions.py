"""Construction, refinement, and summation of tagged divisions."""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

import numpy as np

from .cells import Gauge, TaggedDivision
from .errors import MAX_LEVEL, ArgumentError, GaugeTooDemandingError, IntegrandEvalError, _plain
from . import exact
from .exact import IRRATIONAL_SHIFT, is_exact_scalar
from .integrand import BurkillIntegrand, midpoint

# Tag rules of the grid builders, and the tag selectors of gauge-driven
# bisection in their default trial order.
TAG_RULES = ("left", "midpoint", "right")

DEFAULT_DEPTH_CAP = 60

FLOAT_SHIFT = (math.sqrt(2.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RefinementSchedule:
    """Level ladder for the controllers: level k has 2**k cells."""

    start: int = 4
    stop: int = 22

    def __post_init__(self):
        for name in ("start", "stop"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ArgumentError(
                    f"schedule {name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if self.start < 0 or self.stop < self.start:
            raise ArgumentError(
                f"schedule needs 0 <= start <= stop, got {self.start}..{self.stop}"
            )
        if self.stop > MAX_LEVEL:
            raise ArgumentError(
                f"schedule stop {self.stop} exceeds MAX_LEVEL={MAX_LEVEL}"
            )

    def levels(self) -> Iterable[int]:
        return range(self.start, self.stop + 1)

    def cells_for(self, level: int) -> int:
        return 2 ** level


def _float_column(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _regime(a, b):
    """(a, b, column) for a division of ]a, b]: exact bounds keep their
    exact scalars and `column` makes a QuadExtArray of a list or an int
    array; anything else runs in float64."""
    if is_exact_scalar(a) and is_exact_scalar(b):
        return a, b, exact.QuadExtArray
    return float(a), float(b), _float_column


def _tag_points(rule: str, u, v):
    """The tags a rule puts on the cells ]u, v]: the endpoint arrays
    themselves for "left" and "right", a fresh array for "midpoint"."""
    if rule == "left":
        return u
    if rule == "right":
        return v
    if rule == "midpoint":
        return midpoint(u, v)
    raise ArgumentError(f"unknown tag rule {rule!r}")


def _check_domain(a, b):
    """Refuse ]a, b] unless a < b, and a float domain unless both ends lie
    inside +-2**1023 (so no infinite end): then every width and every sum
    of two points in it is a finite float.  An exact domain takes any
    ends."""
    if not a < b:
        raise ArgumentError(f"domain needs a < b, got a={a!r}, b={b!r}")
    if not (is_exact_scalar(a) and is_exact_scalar(b) or max(abs(a), abs(b)) < 2.0 ** 1023):
        raise ArgumentError(
            f"float domain needs |a|, |b| < 2**1023, got a={_plain(a)!r}, b={_plain(b)!r}"
        )


_FLOAT64, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _float_rank(x) -> int:
    """x's place among the floats: consecutive floats have consecutive
    ranks, and -0.0 and 0.0 the same one."""
    (bits,) = _INT64.unpack(_FLOAT64.pack(x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _check_grid(a, b, n) -> int:
    """The cell count n as an int, once ]a, b] is a valid domain, n is in
    1..2**MAX_LEVEL, and a float grid's n cut points after a can be distinct
    floats: its cell width (b - a) / n does not underflow to 0, and ]a, b]
    holds at least n floats.  Checked before any array is made."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ArgumentError(f"cell count must be an integer, got {n!r}") from None
    if not 1 <= n <= 2 ** MAX_LEVEL:
        raise ArgumentError(f"cell count must be in 1..2**{MAX_LEVEL}, got {n}")
    _check_domain(a, b)
    if is_exact_scalar(a) and is_exact_scalar(b):
        return n
    if (float(b) - float(a)) / n == 0:
        raise ArgumentError(
            f"cell width (b - a) / {n} underflows to 0, got a={_plain(a)!r}, b={_plain(b)!r}"
        )
    if (floats := _float_rank(b) - _float_rank(a)) < n:
        raise ArgumentError(f"{n} cells need {n} floats in ]a, b], which holds {floats}, "
                            f"got a={_plain(a)!r}, b={_plain(b)!r}")
    return n


def _grid_columns(edges, tag_rules):
    """(edges, the tag column of each rule) of grid `edges`.  The edges
    become read-only, so left and right tags can be views of them."""
    edges.setflags(write=False)
    return edges, [_tag_points(rule, edges[:-1], edges[1:]) for rule in tag_rules]


def _grid_division(edges, tag_rule: str) -> TaggedDivision:
    """The division of grid `edges` tagged by tag_rule."""
    edges, (tags,) = _grid_columns(edges, (tag_rule,))
    return TaggedDivision(tags, edges)


def _uniform_edges(a, b, n: int, lo: int, hi: int) -> np.ndarray:
    """Cut points lo..hi of the uniform n-cell grid over ]a, b]; (0, n) is
    the whole grid.  The float points are np.linspace(a, b, n + 1)[lo:hi + 1]
    bit for bit: j * ((b - a) / n) + a, with the last point set to b (a step
    that underflows to 0 is refused).  They are made as floats j = lo..hi,
    exact below 2**53, and scaled in place; the exact points come from an
    integer column."""
    n = _check_grid(a, b, n)
    a, b, column = _regime(a, b)
    if column is not _float_column:
        edges = a + (b - a) * (column(np.arange(lo, hi + 1)) * Fraction(1, n))
    else:
        edges = np.arange(lo, hi + 1, dtype=float)
        edges *= (b - a) / n
        edges += a
    if hi == n:
        edges[-1] = b
    return edges


def _shifted_edges(a, b, n: int, lo: int, hi: int) -> np.ndarray:
    """Cut points lo..hi of make_shifted_uniform's n-cell grid over ]a, b];
    (0, n) is the whole grid; the float points are made as _uniform_edges
    makes them."""
    n = _check_grid(a, b, n)
    a, b, column = _regime(a, b)
    if column is not _float_column:
        j = column(np.arange(lo, hi + 1))
        edges = a + (b - a) * ((j + IRRATIONAL_SHIFT) * Fraction(1, n))
    else:
        # a + (b - a) * ((j + FLOAT_SHIFT) / n), evaluated in place
        edges = np.arange(lo, hi + 1, dtype=float)
        edges += FLOAT_SHIFT
        edges /= n
        edges *= b - a
        edges += a
    if lo == 0:
        edges[0] = a
    if hi == n:
        edges[-1] = b
    return edges


def make_uniform(a, b, n: int, tag_rule: str = "midpoint") -> TaggedDivision:
    """Uniform division of ]a, b] into n cells with tags chosen by
    tag_rule: "left", "midpoint" or "right"."""
    return _grid_division(_uniform_edges(a, b, n, 0, n), tag_rule)


def make_shifted_uniform(a, b, n: int, tag_rule: str = "left") -> TaggedDivision:
    """Uniform-width division with interior cut points displaced by a fixed
    irrational fraction of a cell: cuts at a + (b-a)(j + theta)/n with
    theta = (sqrt(2)-1)/2.

    Over rational endpoints every interior cut point is irrational, the
    counterpoint to the all-rational cuts of make_uniform.
    """
    return _grid_division(_shifted_edges(a, b, n, 0, n), tag_rule)


def _delta_fine_batched(a, b, gauge: Gauge, orders, depth_cap: int):
    """(edges, one tag column per selector order) of the bisection shared by
    `orders`, selector orders of one selector set.

    A cell is accepted at a depth exactly when some selector of the set gives
    a fine tag there, so the orders accept the same cells and share the
    edges; each order keeps the tag of its first fine selector.  A selector
    is tried at a depth only when some order still has an open cell that
    tries it, and then on every open cell.

    Each point's width comes from one gauge.evaluate_batch call and is
    reused from then on, so `fn` must be elementwise and deterministic.  A
    cell that splits has tried every selector of the set: its end widths
    pass to its halves, and it splits at its midpoint tag, whose width is
    known when the set holds "midpoint".  So depth 0, which knows no width,
    makes one call per selector it tries, and every later depth at most one:
    on its cells' midpoints, or, for a set without "midpoint", on the cut
    points new at that depth.  The points evaluated are the ones a
    selector-by-selector bisection evaluates, each once, and a refused width
    is the first one that bisection refuses."""
    # Iterative bisection over the open cells only.  `us`, `vs` and `index`
    # hold them left to right, `index` numbering cells of width
    # (b - a) / 2**depth from a; `known` holds the widths at `us` ("left")
    # and at `vs` ("right") where the set uses them.  Each open cell either
    # is accepted and set aside, or splits at its midpoint into two open
    # cells.
    a, b, column = _regime(a, b)
    ends = column([a, b])
    us, vs = ends[:1], ends[1:]
    known = {}
    # the position key index << (depth_cap - depth) must fit in the dtype
    index = np.zeros(1, dtype=np.int64 if depth_cap < 63 else object)
    accepted = []  # (key, left, tags of each order) arrays, one per depth
    for depth in range(depth_cap + 1):
        # "left" and "right" hand the gauge these arrays themselves
        us.setflags(write=False)
        vs.setflags(write=False)
        candidates = {}  # selector -> (tag points, widths, fine mask)
        columns = []
        for order in orders:
            # cells that stay undecided keep any tag: they are dropped
            for k, selector in enumerate(order):
                if selector not in candidates:
                    cand = _tag_points(selector, us, vs)
                    widths = known.get(selector)
                    if widths is None:
                        cand.setflags(write=False)
                        widths = gauge.evaluate_batch(cand)
                    if selector == "midpoint":
                        fine = (cand - us < widths) & (vs - cand < widths)
                    else:
                        # an endpoint tag is 0 from its own end, and widths
                        # are positive (evaluate_batch refuses others): it
                        # is fine exactly when its cell is shorter
                        fine = vs - us < widths
                    candidates[selector] = cand, widths, fine
                cand, _, fine = candidates[selector]
                if k == 0:
                    tags, undecided = cand, ~fine
                else:
                    fine = fine & undecided
                    tags = np.where(fine, cand, tags)
                    undecided &= ~fine
                if not undecided.any():
                    break
            columns.append(tags)
        # every order leaves open the cells no selector of the set accepts
        fine = ~undecided
        accepted.append((index[fine] << (depth_cap - depth), us[fine],
                         *(tags[fine] for tags in columns)))
        still_open = np.count_nonzero(undecided)
        if not still_open:
            return _assemble(accepted, ends[1:], column)
        # the next depth's open cells must not outgrow a MAX_LEVEL grid
        if depth == depth_cap or 2 * still_open > 2 ** MAX_LEVEL:
            i = int(np.argmax(undecided))
            raise GaugeTooDemandingError(us[i], vs[i], depth)
        # every selector of the set was tried on the open cells: their halves
        # take the end widths, and the midpoints' widths are the new ones
        if "midpoint" in candidates:
            mids, mid_widths, _ = candidates["midpoint"]
            mids, mid_widths = mids[undecided], mid_widths[undecided]
        else:
            mids = midpoint(us[undecided], vs[undecided])
            mids.setflags(write=False)
            mid_widths = gauge.evaluate_batch(mids)
        known = {}
        if "left" in candidates:
            known["left"] = _interleave(candidates["left"][1][undecided], mid_widths)
        if "right" in candidates:
            known["right"] = _interleave(mid_widths, candidates["right"][1][undecided])
        us, vs = _interleave(us[undecided], mids), _interleave(mids, vs[undecided])
        # cell i splits into cells 2i and 2i + 1 of the next depth
        parents = index[undecided]
        index = np.empty(2 * len(parents), parents.dtype)
        np.left_shift(parents, 1, out=index[0::2])
        np.add(index[0::2], 1, out=index[1::2])


def _interleave(x, y):
    """x[0], y[0], x[1], y[1], ..., for len(y) == len(x) or len(x) - 1: the
    halves of split cells in order, as an array of x's type.  An exact
    column is filled through a copy of its own first element; beside an
    `object` array (exact widths that a float left the exact regime), it
    is read as one too."""
    n = len(x) + len(y)
    if isinstance(y, np.ndarray) and not isinstance(x, np.ndarray):
        x = np.asarray(x)
    out = np.empty(n, x.dtype) if isinstance(x, np.ndarray) else x[np.zeros(n, np.intp)]
    out[0::2], out[1::2] = x, y
    return out


def _assemble(accepted, end, column):
    """(read-only edges, tag columns) of the accepted cells, put in order by
    position key and closed by `end`, the right end as a 1-element array."""
    keys, lefts, *columns = map(_concatenate, zip(*accepted))
    # each depth adds an ascending run of keys, which a stable sort merges
    order = np.argsort(keys, kind="stable")
    edges = column(_concatenate((lefts[order], end)))
    edges.setflags(write=False)
    return edges, [column(tags[order]) for tags in columns]


def _concatenate(parts):
    """The arrays end to end: exact columns on their integer numerators
    (exact.concatenate); numpy arrays, or exact columns beside an `object`
    array (tags np.where picked), through np.concatenate, whose `object`
    result `column` makes a column again."""
    if any(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts)
    return exact.concatenate(parts)


def _check_orders(a, b, orders, depth_cap: int):
    _check_domain(a, b)
    if depth_cap < 0:
        raise ArgumentError(f"depth cap must be >= 0, got {depth_cap}")
    for selectors in orders:
        if not selectors:
            raise ArgumentError("need at least one tag selector")
        for selector in selectors:
            if selector not in TAG_RULES:
                raise ArgumentError(f"unknown tag selector {selector!r}")
    if len({frozenset(selectors) for selectors in orders}) > 1:
        raise ArgumentError("shared bisection needs selector orders of one selector set")


def _delta_fine(a, b, gauge: Gauge, orders, depth_cap: int):
    """(read-only edges, one tag column per order) of the delta-fine
    division of ]a, b] shared by `orders`, selector orders of one selector
    set.  A constant-gauge grid deeper than MAX_LEVEL, or a bisection that
    would keep more than 2**MAX_LEVEL cells open, raises
    GaugeTooDemandingError before it is allocated."""
    if not gauge.is_constant:
        _check_orders(a, b, orders, depth_cap)
        return _delta_fine_batched(a, b, gauge, orders, depth_cap)
    cells, rules = _constant_grid(a, b, gauge, orders, depth_cap)
    return _grid_columns(_uniform_edges(a, b, cells, 0, cells), rules)


def _constant_grid(a, b, gauge: Gauge, orders, depth_cap: int):
    """(cells, the tag rule of each order) of the uniform grid that is the
    delta-fine division of ]a, b] under the constant `gauge`, found without
    building it.  Refuses what _delta_fine refuses, in the same order.  The
    depth is found by trying k = 0, 1, ... up to min(depth_cap, MAX_LEVEL) + 1,
    at most MAX_LEVEL + 2 comparisons."""
    _check_orders(a, b, orders, depth_cap)
    # Bisection would accept every cell at the smallest depth at which some
    # selector is fine, so that uniform grid is the division; each order
    # tags it with its first selector fine there.  A midpoint tag needs half
    # a cell shorter than delta, an endpoint tag a whole one: an endpoint
    # tag is fine from the least k with below(k), a midpoint tag one depth
    # earlier.  Scaling by 2**-k is exact in the exact regime and correctly
    # rounded in floats, where float * Fraction(1, 2**k) is span * 2.0**-k:
    # ldexp gives the same float without building the Fraction.
    depth_cap = min(depth_cap, MAX_LEVEL)
    span, delta = b - a, gauge.constant_value
    if isinstance(span, float) and isinstance(delta, float):
        def below(k):
            return math.ldexp(span, -k) < delta
    else:
        def below(k):
            return span * Fraction(1, 1 << k) < delta
    k = next((k for k in range(depth_cap + 2) if below(k)), depth_cap + 2)
    depth = max(k - ("midpoint" in orders[0]), 0)
    if depth > depth_cap:
        raise GaugeTooDemandingError(a, b, depth_cap)
    fine = {s for s in orders[0] if below(depth + (s == "midpoint"))}
    return 2 ** depth, [next(s for s in order if s in fine) for order in orders]


def delta_fine_division(
    a,
    b,
    gauge: Gauge,
    selectors: Tuple[str, ...] = TAG_RULES,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TaggedDivision:
    """A delta-fine tagged division of ]a, b] built by recursive bisection.

    Each cell is accepted as soon as some selector (tried in the given
    order) produces a fine tag, otherwise it splits at its midpoint.  The
    trial order is fixed, so the output is deterministic; alternative
    selector orders can be injected to probe tag sensitivity.  Exceeding
    `depth_cap`, or outgrowing a MAX_LEVEL grid, raises
    GaugeTooDemandingError carrying the stuck subinterval.
    """
    edges, (tags,) = _delta_fine(a, b, gauge, (selectors,), depth_cap)
    return TaggedDivision(tags, edges)


def bisect_refine(division: TaggedDivision, tag_rule: str = "left") -> TaggedDivision:
    """Split every cell at its midpoint; tags reassigned by tag_rule.  The
    doubled cell count must stay within 2**MAX_LEVEL."""
    edges = division.edges
    _check_grid(edges[0], edges[-1], 2 * (len(edges) - 1))
    return _grid_division(_interleave(edges, midpoint(edges[:-1], edges[1:])), tag_rule)


def riemann_sum(h: BurkillIntegrand, division: TaggedDivision) -> object:
    """Sum h over the division's cells: _segment_sums of its one segment.

    h is evaluated once on the whole (tags, lefts, rights) arrays.  A float
    division sums the values pairwise into a float; an exact one sums their
    integer numerators, so the sum is exact and of the type Python's sum()
    of the values from 0 gives (a float if a float value left the exact
    regime).  A fault raises IntegrandEvalError naming the first cell whose
    own evaluation fails.  Deterministic for identical inputs.
    """
    columns = division.tags, division.lefts, division.rights
    try:
        (total,) = _segment_sums(h, *columns, division.exact, (0, division.n))
    except Exception as exc:
        raise _named_fault(h, *columns, exc)[1]
    return total


def _segment_sums(h: BurkillIntegrand, tags, lefts, rights, is_exact: bool, bounds) -> list:
    """Each segment's sum of h, where segment k is the cells
    bounds[k]..bounds[k+1] - 1 of the columns: the divisions of a level
    laid end to end, or one division's cells.

    h is called once, on the whole columns, and each segment adds its slice
    of the values as riemann_sum adds a division's: np.sum of a contiguous
    slice is np.sum of its copy, bit for bit, and exact sums are exact.
    Raises what h raises; _named_fault names the cell."""
    values = h(tags, lefts, rights)
    values = exact.exact_or_objects(values) if is_exact else np.asarray(values, dtype=float)
    if values.shape != tags.shape:
        values = np.broadcast_to(values, tags.shape)
    segments = zip(bounds, bounds[1:])
    if not is_exact:
        return [float(np.add.reduce(values[i:j])) for i, j in segments]
    # float values that left the exact regime add as Python's sum from 0
    if isinstance(values, np.ndarray):
        return [sum(values[i:j].tolist()) for i, j in segments]
    return [values[i:j].sum() for i, j in segments]


def _named_fault(h: BurkillIntegrand, tags, lefts, rights, exc: Exception):
    """(i, error) for the fault `exc` of h on whole columns: i the first
    cell whose own evaluation fails and error the IntegrandEvalError naming
    it, caused by that cell's exception; (None, exc) if no cell fails on
    its own."""
    i, cell_exc = _first_failing_cell(h, tags, lefts, rights)
    if cell_exc is None:
        return None, exc
    error = IntegrandEvalError(tags[i], lefts[i], rights[i], cell_exc)
    error.__cause__ = cell_exc
    return i, error


def _first_failing_cell(h: BurkillIntegrand, tags, lefts, rights):
    """(i, exception) for the first cell i whose own evaluation of h raises,
    or (None, None).  Only the error path calls this: it bisects over
    prefixes of the cell arrays, about log2(n) calls of h."""

    def fails(k: int) -> bool:
        try:
            h(tags[:k], lefts[:k], rights[:k])
        except Exception:  # noqa: BLE001 - any fault marks the prefix
            return True
        return False

    lo, hi = 0, len(tags)  # the prefix of length hi fails, as a whole
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid
    i = hi - 1
    try:
        h(tags[i:i + 1], lefts[i:i + 1], rights[i:i + 1])
    except Exception as exc:  # noqa: BLE001 - returned to name the cell
        return i, exc
    return None, None
