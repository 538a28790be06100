"""Tagged divisions of half-open intervals, and gauges."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import exact
from .errors import ArgumentError, GaugeContractError, ScalarRegimeError, _plain

_FLOAT64 = np.dtype(float)


def _column(values):
    """A division column of the values' regime: a float64 array for binary
    floats, a QuadExtArray for exact scalars (int, Fraction, QuadExtScalar).
    A binary float among exact scalars is refused: it would pass as exact."""
    if isinstance(values, (list, tuple, float, np.floating)):
        values = np.asarray(values)
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return values.astype(float, copy=False)
    try:
        return exact.QuadExtArray(values)
    except ScalarRegimeError:
        raise ScalarRegimeError("division mixes binary floats with exact scalars") from None


def _is_end_view(t: np.ndarray, e: np.ndarray) -> bool:
    """Whether the float64 column t is e[:-1] or e[1:] (t has len(e) - 1
    elements): the same buffer, offset and strides.  Constant time; a column
    that is no view is turned down by its base alone."""
    base = t.base
    if base is None or (base is not e and base is not e.base) or t.strides != e.strides:
        return False
    offset = t.__array_interface__["data"][0] - e.__array_interface__["data"][0]
    return offset == 0 or offset == e.strides[0]


def _refused(t, lo, hi, exact: bool, bounds=None, tags_inside: bool = False):
    """None when the cells (t, lo, hi) make valid divisions, else (k, the
    ArgumentError that TaggedDivision refuses segment k's division with) for
    the first segment k that is refused.

    Segment k is the cells bounds[k]..bounds[k+1] - 1 of one division, in
    order, with lo its edges[:-1] and hi its edges[1:]; bounds None is one
    segment of every cell.  Strictly increasing edges between finite ends
    are finite, and so are tags inside their cells: a check of each
    segment's two ends and three passes over all the cells prove every
    division valid, and `tags_inside` (tags known to lie in their cells)
    skips the two tag passes.  Only a refusal is scanned segment by
    segment, and for non-finite values, so that each division is refused
    for the first reason in the order of _refusal."""
    segments = [(0, len(t))] if bounds is None else list(zip(bounds, bounds[1:]))
    ends_finite = exact or all(math.isfinite(lo[i]) and math.isfinite(hi[j - 1])
                               for i, j in segments)
    if ends_finite and (lo < hi).all() and (
        tags_inside or ((lo <= t).all() and (t <= hi).all())
    ):
        return None
    for k, (i, j) in enumerate(segments):
        message = _refusal(t[i:j], lo[i:j], hi[i:j], exact)
        if message:
            return k, ArgumentError(message)
    return None


def _refusal(t, lo, hi, exact: bool) -> Optional[str]:
    """Why the division of these cells is refused, or None."""
    if not exact and not (np.all(np.isfinite(t)) and np.all(np.isfinite(lo))
                          and np.all(np.isfinite(hi))):
        return "division contains non-finite values"
    if not np.all(lo < hi):
        i = int(np.argmin(lo < hi))
        return f"degenerate cell ]{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
    if not (np.all(lo <= t) and np.all(t <= hi)):
        i = int(np.argmin((lo <= t) & (t <= hi)))
        return f"tag {_plain(t[i])!r} outside cell closure [{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
    return None


class TaggedDivision:
    """A tagged division of ]a, b]: cut points a = x0 < x1 < ... < xn = b
    and one tag per cell.

    `edges` holds the n + 1 cut points and `tags` the n tags.  Cell i is the
    half-open ]edges[i], edges[i + 1]] with the tag tags[i] anywhere in its
    closure, the excluded left endpoint included, which is what lets a gauge
    force specific tags.  `lefts` and `rights` are views of `edges`.  Both
    columns are float64 arrays in the float regime and QuadExtArray columns
    of exact values in the exact one, so every layer runs one array body for
    both.  Adjacent cells may share a tag: a point can legally tag the cell
    on each side of itself, and sums are indifferent to the duplication.

    The constructor proves the division valid: n >= 1 tags and n + 1 edges,
    edges strictly increasing between two finite ends (so every value is
    finite), and each tag inside the closure of its cell.  A float tag
    column that is `lefts` or `rights` itself (the same buffer, offset and
    strides, as a grid's left and right tags are) is inside its cells once
    the edges increase, so those two comparisons are skipped for it.
    Plain float64 arrays are stored as given, other columns are converted.
    """

    __slots__ = ("tags", "edges", "exact")

    def __init__(self, tags, edges):
        if (type(tags) is np.ndarray and type(edges) is np.ndarray
                and tags.dtype == _FLOAT64 and edges.dtype == _FLOAT64):
            # what the grid and bisection builders hand over: stored as is
            self.exact = False
        else:
            # A column of binary floats makes the division float, lists
            # included; int, Fraction and QuadExtScalar columns stay exact.
            tags, edges = _column(tags), _column(edges)
            self.exact = not (isinstance(tags, np.ndarray) or isinstance(edges, np.ndarray))
            if not self.exact:
                tags, edges = np.asarray(tags, dtype=float), np.asarray(edges, dtype=float)
        self.tags, self.edges = tags, edges
        self._validate()

    @property
    def n(self) -> int:
        return len(self.tags)

    @property
    def lefts(self) -> np.ndarray:
        return self.edges[:-1]

    @property
    def rights(self) -> np.ndarray:
        return self.edges[1:]

    def _validate(self):
        t, e = self.tags, self.edges
        if t.ndim != 1 or len(t) == 0 or e.shape != (len(t) + 1,):
            raise ArgumentError(
                f"division needs n >= 1 tags and n + 1 edges, got shapes {t.shape} and {e.shape}"
            )
        # A tag column that is lo or hi itself needs only the edge pass: its
        # two tag comparisons then read lo <= lo and lo <= hi (or lo <= hi
        # and hi <= hi), true wherever lo < hi is, NaN excluded.
        refused = _refused(t, e[:-1], e[1:], self.exact,
                           tags_inside=not self.exact and _is_end_view(t, e))
        if refused:
            raise refused[1]

    def __repr__(self) -> str:
        a, b = self.edges[[0, -1]].tolist()
        return f"TaggedDivision(n={self.n}, domain=]{a}, {b}])"


class Gauge:
    """Strictly positive cell-width control delta(s).

    Constant gauges reproduce plain mesh-size control; functional gauges can
    shrink near awkward points (or refuse to shrink at an isolated point,
    forcing it to appear as a tag).  Evaluating to a non-positive width is a
    contract violation and raises, distinct from a cell merely failing to be
    fine.
    """

    __slots__ = ("name", "_constant", "_fn")

    def __init__(self, *, constant=None, fn=None, name: str = "gauge"):
        if (constant is None) == (fn is None):
            raise ArgumentError("a gauge is either constant or functional")
        self.name = name
        self._constant = constant
        self._fn = fn

    @classmethod
    def constant(cls, delta, name: Optional[str] = None) -> "Gauge":
        if not delta > 0:
            raise GaugeContractError("(everywhere)", delta)
        return cls(constant=delta, name=name or f"constant({delta})")

    @classmethod
    def from_function(cls, fn: Callable, name: str = "gauge") -> "Gauge":
        """A functional gauge.  `fn` is elementwise and deterministic:
        divisions hand it whole arrays of points in both scalar regimes, and
        a bisection evaluates each point once and reuses its width."""
        return cls(fn=fn, name=name)

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Widths at an array of points in one call; a scalar width
        broadcasts, widths of any other shape than the points' raise
        ArgumentError.  Exact points (a QuadExtArray or an `object` array)
        keep exact widths in a QuadExtArray, any other points are read as
        float64 and get float64 widths.  A width that is not positive raises
        GaugeContractError naming the first such point."""
        if getattr(points, "dtype", None) != object:
            points = np.asarray(points)
        exact_points = points.dtype == object
        if exact_points:
            points = exact.exact_or_objects(points)
        else:
            points = points.astype(float, copy=False)
        if self._constant is not None:
            widths = np.full(points.shape, self._constant, points.dtype)
            return exact.exact_or_objects(widths) if exact_points else widths
        widths = self._fn(points)
        shape = np.shape(widths)
        if shape != points.shape:
            if shape:
                raise ArgumentError(
                    f"gauge {self.name!r} gave widths of shape {shape} "
                    f"for points of shape {points.shape}"
                )
            widths = np.broadcast_to(widths, points.shape)
        if exact_points:
            widths = exact.exact_or_objects(widths)
        else:
            widths = np.asarray(widths, dtype=float)
        positive = widths > 0
        if not positive.all():
            i = int(np.argmin(positive))
            raise GaugeContractError(points[i], widths[i])
        return widths

    def __repr__(self) -> str:
        return f"Gauge({self.name})"
