"""Construction, refinement, and summation of tagged divisions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Tuple, Union

import numpy as np

from .cells import Gauge, Interval, TaggedDivision
from .errors import ArgumentError, GaugeTooDemandingError, IntegrandEvalError
from .exact import IRRATIONAL_SHIFT, is_exact_scalar
from .integrand import BurkillIntegrand, midpoint

TAG_RULES = ("left", "midpoint", "right")

# Tag selectors used by gauge-driven bisection, in the default trial order.
DEFAULT_SELECTORS = ("left", "midpoint", "right")

DEFAULT_DEPTH_CAP = 60

FLOAT_SHIFT = (math.sqrt(2.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RefinementSchedule:
    """Level ladder for the controllers; cell counts double by default."""

    start: int = 4
    stop: int = 22
    cells_rule: Callable[[int], int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.start < 0 or self.stop < self.start:
            raise ArgumentError(
                f"schedule needs 0 <= start <= stop, got {self.start}..{self.stop}"
            )
        if self.cells_rule is None:
            object.__setattr__(self, "cells_rule", lambda level: 2 ** level)
        prev = 0
        for level in range(self.start, min(self.stop, self.start + 4) + 1):
            n = self.cells_rule(level)
            if n <= prev:
                raise ArgumentError("cell counts must increase strictly with level")
            prev = n

    def levels(self) -> Iterable[int]:
        return range(self.start, self.stop + 1)

    def cells_for(self, level: int) -> int:
        return self.cells_rule(level)


def _is_exact_run(a, b, tag_rule) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return False
    if is_exact_scalar(a) and is_exact_scalar(b):
        if isinstance(tag_rule, str):
            return True
        return all(is_exact_scalar(t) for t in tag_rule)
    return False


def _tags_from_edges_exact(lefts, rights, tag_rule):
    if isinstance(tag_rule, str):
        if tag_rule == "left":
            return list(lefts)
        if tag_rule == "right":
            return list(rights)
        if tag_rule == "midpoint":
            return [midpoint(u, v) for u, v in zip(lefts, rights)]
        raise ArgumentError(f"unknown tag rule {tag_rule!r}")
    offsets = list(tag_rule)
    if len(offsets) != len(lefts):
        raise ArgumentError("offset list length must equal the cell count")
    for off in offsets:
        if not (0 <= off <= 1):
            raise ArgumentError(f"tag offset {off!r} outside [0, 1]")
    return [u + (v - u) * off for u, v, off in zip(lefts, rights, offsets)]


def _tags_from_edges_float(lefts, rights, tag_rule):
    if isinstance(tag_rule, str):
        if tag_rule == "left":
            return lefts.copy()
        if tag_rule == "right":
            return rights.copy()
        if tag_rule == "midpoint":
            return 0.5 * (lefts + rights)
        raise ArgumentError(f"unknown tag rule {tag_rule!r}")
    offsets = np.asarray(list(tag_rule), dtype=float)
    if offsets.shape != lefts.shape:
        raise ArgumentError("offset list length must equal the cell count")
    if np.any(offsets < 0) or np.any(offsets > 1):
        raise ArgumentError("tag offsets must lie in [0, 1]")
    return lefts + (rights - lefts) * offsets


def make_uniform(a, b, n: int, tag_rule: Union[str, Sequence] = "midpoint") -> TaggedDivision:
    """Uniform division of ]a, b] into n cells with rule-chosen tags.

    tag_rule is "left", "midpoint", "right", or a sequence of per-cell
    fractional offsets in [0, 1].
    """
    if n < 1:
        raise ArgumentError(f"cell count must be >= 1, got {n}")
    if not a < b:
        raise ArgumentError(f"domain needs a < b, got a={a!r}, b={b!r}")
    if _is_exact_run(a, b, tag_rule):
        span = b - a
        edges = [a + span * Fraction(j, n) for j in range(n + 1)]
        edges[-1] = b
        lefts, rights = edges[:-1], edges[1:]
        tags = _tags_from_edges_exact(lefts, rights, tag_rule)
        return TaggedDivision(Interval(a, b), tags, lefts, rights)
    af, bf = float(a), float(b)
    edges = np.linspace(af, bf, n + 1)
    lefts, rights = edges[:-1], edges[1:]
    tags = _tags_from_edges_float(lefts, rights, tag_rule)
    return TaggedDivision(Interval(af, bf), tags, lefts, rights)


def make_shifted_uniform(
    a, b, n: int, tag_rule: Union[str, Sequence] = "left", shift=None
) -> TaggedDivision:
    """Uniform-width division with interior cut points displaced by a fixed
    irrational fraction of a cell: cuts at a + (b-a)(j + shift)/n.

    Over rational endpoints with the default shift (sqrt(2)-1)/2 every
    interior cut point is irrational, the counterpoint to the all-rational
    cuts of make_uniform.
    """
    if n < 1:
        raise ArgumentError(f"cell count must be >= 1, got {n}")
    if not a < b:
        raise ArgumentError(f"domain needs a < b, got a={a!r}, b={b!r}")
    exact = _is_exact_run(a, b, tag_rule) and not isinstance(shift, float)
    if exact:
        theta = IRRATIONAL_SHIFT if shift is None else shift
        span = b - a
        edges = [a]
        for j in range(1, n):
            edges.append(a + span * ((j + theta) * Fraction(1, n)))
        edges.append(b)
        lefts, rights = edges[:-1], edges[1:]
        tags = _tags_from_edges_exact(lefts, rights, tag_rule)
        return TaggedDivision(Interval(a, b), tags, lefts, rights)
    theta = FLOAT_SHIFT if shift is None else float(shift)
    if not (0 < theta < 1):
        raise ArgumentError(f"shift must lie in (0, 1), got {theta}")
    af, bf = float(a), float(b)
    span = bf - af
    edges = np.empty(n + 1)
    edges[0] = af
    edges[-1] = bf
    if n > 1:
        j = np.arange(1, n, dtype=float)
        edges[1:-1] = af + span * ((j + theta) / n)
    lefts, rights = edges[:-1], edges[1:]
    tags = _tags_from_edges_float(lefts, rights, tag_rule)
    return TaggedDivision(Interval(af, bf), tags, lefts, rights)


def is_fine(division: TaggedDivision, gauge: Gauge) -> bool:
    """Whether every cell satisfies s - u < delta(s) and v - s < delta(s).

    Both inequalities are strict.  A gauge that evaluates non-positive
    raises GaugeContractError rather than returning False.
    """
    arrays = division.as_float_arrays()
    if arrays is not None and (gauge.is_constant or gauge._batch is not None):
        tags, lefts, rights = arrays
        widths = gauge.evaluate_batch(tags)
        return bool(np.all(tags - lefts < widths) and np.all(rights - tags < widths))
    for s, u, v in zip(division.tags, division.lefts, division.rights):
        width = gauge(s)
        if not (s - u < width and v - s < width):
            return False
    return True


def _candidate(selector: str, u, v):
    if selector == "left":
        return u
    if selector == "right":
        return v
    if selector == "midpoint":
        return midpoint(u, v)
    raise ArgumentError(f"unknown tag selector {selector!r}")


def _selector_uniform_depth(selector: str, span, delta, depth_cap: int):
    """Smallest depth at which a uniform cell accepts this selector, or None."""
    length = span
    for depth in range(depth_cap + 1):
        if selector == "midpoint":
            half = 0.5 * length if isinstance(length, float) else length * Fraction(1, 2)
            if half < delta:
                return depth
        else:
            if length < delta:
                return depth
        length = 0.5 * length if isinstance(length, float) else length * Fraction(1, 2)
    return None


def _delta_fine_constant(a, b, gauge: Gauge, selectors, depth_cap: int) -> TaggedDivision:
    # Constant gauge: recursive bisection would accept every cell at the same
    # depth with the same selector, i.e. produce a uniform division.  Build it
    # directly.
    delta = gauge.constant_value
    span = b - a
    best = None
    for selector in selectors:
        depth = _selector_uniform_depth(selector, span, delta, depth_cap)
        if depth is not None and (best is None or depth < best[0]):
            best = (depth, selector)
    if best is None:
        raise GaugeTooDemandingError(a, b, depth_cap)
    depth, selector = best
    rule = {"left": "left", "midpoint": "midpoint", "right": "right"}[selector]
    return make_uniform(a, b, 2 ** depth, tag_rule=rule)


def _delta_fine_recursive(a, b, gauge: Gauge, selectors, depth_cap: int) -> TaggedDivision:
    tags, lefts, rights = [], [], []

    def visit(u, v, depth):
        for selector in selectors:
            s = _candidate(selector, u, v)
            width = gauge(s)
            if s - u < width and v - s < width:
                tags.append(s)
                lefts.append(u)
                rights.append(v)
                return
        if depth >= depth_cap:
            raise GaugeTooDemandingError(u, v, depth)
        m = midpoint(u, v)
        visit(u, m, depth + 1)
        visit(m, v, depth + 1)

    visit(a, b, 0)
    return TaggedDivision(Interval(a, b), tags, lefts, rights)


def _delta_fine_batched(a, b, gauge: Gauge, selectors, depth_cap: int) -> TaggedDivision:
    # Iterative bisection over whole arrays.  Cells either accept a selector
    # tag or split at their midpoint; np.repeat keeps the ascending order.
    us = np.array([float(a)])
    vs = np.array([float(b)])
    tags = np.full(1, np.nan)
    done = np.zeros(1, dtype=bool)
    for depth in range(depth_cap + 1):
        active = ~done
        if not np.any(active):
            break
        au, av = us[active], vs[active]
        atags = np.full(au.shape, np.nan)
        undecided = np.ones(au.shape, dtype=bool)
        for selector in selectors:
            if not np.any(undecided):
                break
            if selector == "left":
                cand = au
            elif selector == "right":
                cand = av
            else:
                cand = 0.5 * (au + av)
            widths = gauge.evaluate_batch(cand)
            fine = (cand - au < widths) & (av - cand < widths) & undecided
            atags[fine] = cand[fine]
            undecided &= ~fine
        accepted = ~undecided
        new_done = done.copy()
        new_done[active] = accepted
        new_tags = tags.copy()
        idx = np.flatnonzero(active)
        new_tags[idx[accepted]] = atags[accepted]
        if not np.any(undecided):
            done, tags = new_done, new_tags
            break
        if depth >= depth_cap:
            bad = int(np.argmax(undecided))
            raise GaugeTooDemandingError(au[bad], av[bad], depth)
        # split undecided cells in place, preserving order
        repeats = np.ones(len(us), dtype=np.int64)
        repeats[idx[undecided]] = 2
        split_mask = np.zeros(len(us), dtype=bool)
        split_mask[idx[undecided]] = True
        next_us = np.repeat(us, repeats)
        next_vs = np.repeat(vs, repeats)
        next_tags = np.repeat(new_tags, repeats)
        next_done = np.repeat(new_done, repeats)
        first_of_pair = np.repeat(split_mask, repeats)
        pair_pos = np.flatnonzero(first_of_pair)
        mids = 0.5 * (next_us[pair_pos[0::2]] + next_vs[pair_pos[0::2]])
        next_vs[pair_pos[0::2]] = mids
        next_us[pair_pos[1::2]] = mids
        us, vs, tags, done = next_us, next_vs, next_tags, next_done
    if not np.all(done):
        bad = int(np.argmax(~done))
        raise GaugeTooDemandingError(us[bad], vs[bad], depth_cap)
    return TaggedDivision(Interval(float(a), float(b)), tags, us, vs)


def delta_fine_division(
    a,
    b,
    gauge: Gauge,
    selectors: Tuple[str, ...] = DEFAULT_SELECTORS,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> TaggedDivision:
    """A delta-fine tagged division of ]a, b] built by recursive bisection.

    Each cell is accepted as soon as some selector (tried in the given
    order) produces a fine tag, otherwise it splits at its midpoint.  The
    trial order is fixed, so the output is deterministic; alternative
    selector orders can be injected to probe tag sensitivity.  Exceeding
    `depth_cap` raises GaugeTooDemandingError carrying the stuck subinterval.
    """
    if not a < b:
        raise ArgumentError(f"domain needs a < b, got a={a!r}, b={b!r}")
    if not selectors:
        raise ArgumentError("need at least one tag selector")
    for selector in selectors:
        if selector not in TAG_RULES:
            raise ArgumentError(f"unknown tag selector {selector!r}")
    if gauge.is_constant:
        return _delta_fine_constant(a, b, gauge, selectors, depth_cap)
    float_run = isinstance(a, float) or isinstance(b, float) or not (
        is_exact_scalar(a) and is_exact_scalar(b)
    )
    if float_run:
        return _delta_fine_batched(float(a), float(b), gauge, selectors, depth_cap)
    return _delta_fine_recursive(a, b, gauge, selectors, depth_cap)


def bisect_refine(division: TaggedDivision, tag_rule: str = "left") -> TaggedDivision:
    """Split every cell at its midpoint; tags reassigned by tag_rule."""
    if tag_rule not in TAG_RULES:
        raise ArgumentError(f"unknown tag rule {tag_rule!r}")
    arrays = division.as_float_arrays()
    if arrays is not None:
        _, lefts, rights = arrays
        mids = 0.5 * (lefts + rights)
        new_lefts = np.empty(2 * len(lefts))
        new_rights = np.empty_like(new_lefts)
        new_lefts[0::2], new_lefts[1::2] = lefts, mids
        new_rights[0::2], new_rights[1::2] = mids, rights
        tags = _tags_from_edges_float(new_lefts, new_rights, tag_rule)
        return TaggedDivision(division.domain, tags, new_lefts, new_rights)
    new_lefts, new_rights = [], []
    for u, v in zip(division.lefts, division.rights):
        m = midpoint(u, v)
        new_lefts.extend((u, m))
        new_rights.extend((m, v))
    tags = _tags_from_edges_exact(new_lefts, new_rights, tag_rule)
    return TaggedDivision(division.domain, tags, new_lefts, new_rights)


def riemann_sum(h: BurkillIntegrand, division: TaggedDivision) -> object:
    """Sum h over the division's cells in ascending order.

    Deterministic for identical inputs.
    """
    arrays = division.as_float_arrays()
    if arrays is not None and h.batch is not None:
        values = np.asarray(h.batch(*arrays), dtype=float)
        return float(np.sum(values))
    total = 0
    for tagged in division.iter_cells():
        s, cell = tagged.tag, tagged.cell
        try:
            value = h(s, cell)
        except Exception as exc:  # noqa: BLE001 - re-raised with cell context
            raise IntegrandEvalError(s, cell.u, cell.v, exc) from exc
        total = total + value
    return total
