"""Half-open intervals, tagged divisions, and gauges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GaugeContractError, _plain


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
    """Ordered tagged cells partitioning ]a, b].

    Cell i is the triple (tags[i], lefts[i], rights[i]): the half-open cell
    ]u, v] and a tag s anywhere in its closure [u, v], the excluded left
    endpoint included, which is what lets a gauge force specific tags.
    Stored as parallel numpy arrays: float64 in the float regime, `object`
    arrays of exact scalars (int, Fraction, QuadExtScalar) in the exact one,
    so every layer runs one array body for both.  Adjacent cells may share a
    tag: a point can legally tag the cell on each side of itself, and sums
    are indifferent to the duplication.
    """

    __slots__ = ("domain", "tags", "lefts", "rights", "exact")

    def __init__(self, domain: Interval, tags, lefts, rights):
        self.domain = domain
        columns = [np.asarray(c) for c in (tags, lefts, rights)]
        # A column of binary floats makes the division float, lists included;
        # int, Fraction and QuadExtScalar columns stay exact.
        self.exact = all(c.dtype.kind != "f" for c in columns)
        dtype = object if self.exact else float
        self.tags, self.lefts, self.rights = (c.astype(dtype, copy=False) for c in columns)
        self._validate()

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def n(self) -> int:
        return len(self.tags)

    def _validate(self):
        t, lo, hi = self.tags, self.lefts, self.rights
        n = len(t)
        if n == 0 or len(lo) != n or len(hi) != n:
            raise ArgumentError("division needs equal-length, non-empty cell data")
        if not self.exact and not (
            np.all(np.isfinite(t)) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        ):
            raise ArgumentError("division contains non-finite values")
        a, b = self.domain.u, self.domain.v
        if not (lo[0] == a and hi[-1] == b):
            raise ArgumentError("division does not span its domain")
        if not np.all(lo < hi):
            i = int(np.argmin(lo < hi))
            raise ArgumentError(f"degenerate cell ]{_plain(lo[i])!r}, {_plain(hi[i])!r}]")
        if n > 1 and not np.all(hi[:-1] == lo[1:]):
            raise ArgumentError("cells do not abut")
        if not (np.all(lo <= t) and np.all(t <= hi)):
            i = int(np.argmin((lo <= t) & (t <= hi)))
            raise ArgumentError(
                f"tag {_plain(t[i])!r} outside cell closure "
                f"[{_plain(lo[i])!r}, {_plain(hi[i])!r}]"
            )
        # Exact lengths must add up exactly; float ones within rounding.
        span = b - a
        slack = 0 if self.exact else 1e-12 * max(1.0, abs(span))
        if abs(np.sum(hi - lo) - span) > slack:
            raise ArgumentError("cell lengths do not sum to the domain length")

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
