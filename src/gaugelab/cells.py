"""Half-open intervals, tagged divisions, and gauges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GaugeContractError, ScalarRegimeError, _plain


@dataclass(frozen=True)
class Interval:
    """Half-open interval ]u, v] with u < v.

    The left endpoint is excluded.  Cells of a division abut without
    overlapping, and the length |I| = v - u is positive by construction.
    """

    u: object
    v: object

    def __post_init__(self):
        if not self.u < self.v:
            raise ArgumentError(f"interval needs u < v, got u={self.u!r}, v={self.v!r}")

    def __str__(self) -> str:
        return f"]{self.u}, {self.v}]"


class TaggedDivision:
    """A tagged division of ]a, b]: cut points a = x0 < x1 < ... < xn = b
    and one tag per cell.

    `edges` holds the n + 1 cut points and `tags` the n tags.  Cell i is the
    half-open ]edges[i], edges[i + 1]] with the tag tags[i] anywhere in its
    closure, the excluded left endpoint included, which is what lets a gauge
    force specific tags.  `lefts`, `rights` and `domain` are views derived
    from `edges`.  Both columns are numpy arrays: float64 in the float
    regime, `object` arrays of exact scalars (int, Fraction, QuadExtScalar)
    in the exact one, so every layer runs one array body for both.  Adjacent
    cells may share a tag: a point can legally tag the cell on each side of
    itself, and sums are indifferent to the duplication.
    """

    __slots__ = ("tags", "edges", "exact")

    def __init__(self, tags, edges):
        columns = [np.asarray(c) for c in (tags, edges)]
        # A column of binary floats makes the division float, lists included;
        # int, Fraction and QuadExtScalar columns stay exact.  A binary float
        # among exact scalars is refused: it would pass as exact.
        for c in columns:
            if c.dtype == object and any(
                issubclass(t, (float, np.floating)) for t in set(map(type, c.flat))
            ):
                raise ScalarRegimeError("division mixes binary floats with exact scalars")
        self.exact = all(c.dtype.kind != "f" for c in columns)
        dtype = object if self.exact else float
        self.tags, self.edges = (c.astype(dtype, copy=False) for c in columns)
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

    @property
    def domain(self) -> Interval:
        return Interval(*self.edges[[0, -1]].tolist())

    def _validate(self):
        t, e = self.tags, self.edges
        if t.ndim != 1 or len(t) == 0 or e.shape != (len(t) + 1,):
            raise ArgumentError(
                f"division needs n >= 1 tags and n + 1 edges, got shapes {t.shape} and {e.shape}"
            )
        if not self.exact and not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
            raise ArgumentError("division contains non-finite values")
        lo, hi = e[:-1], e[1:]
        if not np.all(lo < hi):
            i = int(np.argmin(lo < hi))
            raise ArgumentError(f"degenerate cell ]{_plain(lo[i])!r}, {_plain(hi[i])!r}]")
        if not (np.all(lo <= t) and np.all(t <= hi)):
            i = int(np.argmin((lo <= t) & (t <= hi)))
            raise ArgumentError(
                f"tag {_plain(t[i])!r} outside cell closure "
                f"[{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
            )

    def __repr__(self) -> str:
        return f"TaggedDivision(n={self.n}, domain={self.domain})"


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
        """A functional gauge; `fn` is elementwise, as divisions hand it
        whole arrays of points in both scalar regimes."""
        return cls(fn=fn, name=name)

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    @property
    def constant_value(self):
        return self._constant

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Widths at an array of points in one call; a scalar width
        broadcasts.  Exact points (an `object` array) keep exact widths,
        float points get float64 ones.  A width that is not positive raises
        GaugeContractError naming the first such point."""
        points = np.asarray(points)
        if points.dtype != object:
            points = points.astype(float, copy=False)
        if self._constant is not None:
            return np.full(points.shape, self._constant, dtype=points.dtype)
        widths = np.asarray(self._fn(points), dtype=points.dtype)
        if widths.shape != points.shape:
            widths = np.broadcast_to(widths, points.shape)
        bad = ~(widths > 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GaugeContractError(points[i], widths[i])
        return widths

    def __repr__(self) -> str:
        return f"Gauge({self.name})"
