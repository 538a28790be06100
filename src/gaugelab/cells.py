"""Half-open intervals, tagged divisions, and gauges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, GaugeContractError


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
    Stored as parallel sequences (numpy arrays in the float regime, tuples of
    exact scalars otherwise) so large uniform divisions stay cheap.  Adjacent
    cells may share a tag: a point can legally tag the cell on each side of
    itself, and sums are indifferent to the duplication.
    """

    __slots__ = ("domain", "tags", "lefts", "rights", "exact")

    def __init__(self, domain: Interval, tags, lefts, rights):
        self.domain = domain
        if isinstance(tags, np.ndarray):
            self.tags = np.asarray(tags, dtype=float)
            self.lefts = np.asarray(lefts, dtype=float)
            self.rights = np.asarray(rights, dtype=float)
            self.exact = False
        else:
            self.tags = tuple(tags)
            self.lefts = tuple(lefts)
            self.rights = tuple(rights)
            self.exact = True
        self._validate()

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def n(self) -> int:
        return len(self.tags)

    def _validate(self):
        n = len(self.tags)
        if n == 0 or len(self.lefts) != n or len(self.rights) != n:
            raise ArgumentError("division needs equal-length, non-empty cell data")
        a, b = self.domain.u, self.domain.v
        if self.exact:
            if not (self.lefts[0] == a and self.rights[-1] == b):
                raise ArgumentError("division does not span its domain")
            total = 0
            for i in range(n):
                u, v, s = self.lefts[i], self.rights[i], self.tags[i]
                if not u < v:
                    raise ArgumentError(f"degenerate cell ]{u!r}, {v!r}]")
                if not (u <= s <= v):
                    raise ArgumentError(f"tag {s!r} outside cell closure [{u!r}, {v!r}]")
                if i and not self.lefts[i] == self.rights[i - 1]:
                    raise ArgumentError("cells do not abut")
                total = total + (v - u)
            if not total == b - a:
                raise ArgumentError("cell lengths do not sum to the domain length")
        else:
            t, lo, hi = self.tags, self.lefts, self.rights
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ArgumentError("division contains non-finite values")
            if lo[0] != a or hi[-1] != b:
                raise ArgumentError("division does not span its domain")
            if not np.all(lo < hi):
                raise ArgumentError("degenerate cell in division")
            if n > 1 and not np.array_equal(hi[:-1], lo[1:]):
                raise ArgumentError("cells do not abut")
            if not (np.all(lo <= t) and np.all(t <= hi)):
                raise ArgumentError("tag outside cell closure")
            span = b - a
            if abs(float(np.sum(hi - lo)) - span) > 1e-12 * max(1.0, abs(span)):
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
        """A functional gauge; `fn` is elementwise, as float divisions hand
        it whole arrays of points."""
        return cls(fn=fn, name=name)

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    @property
    def constant_value(self):
        return self._constant

    def __call__(self, s):
        if self._constant is not None:
            return self._constant
        width = self._fn(s)
        if not width > 0:
            raise GaugeContractError(s, width)
        return width

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Widths at an array of points in one call, with the same
        positivity contract; a scalar width broadcasts."""
        points = np.asarray(points, dtype=float)
        if self._constant is not None:
            return np.full(points.shape, float(self._constant))
        widths = np.asarray(self._fn(points), dtype=float)
        if widths.shape != points.shape:
            widths = np.broadcast_to(widths, points.shape)
        bad = ~(widths > 0)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GaugeContractError(points[i], widths[i])
        return widths

    def __repr__(self) -> str:
        return f"Gauge({self.name})"
