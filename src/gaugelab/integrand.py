"""Interval-function integrands h(s, I) and their building blocks.

An integrand here is a pure rule assigning a number to a tagged cell, the
triple (s, u, v) of a tag and the endpoints of ]u, v].  The classical
f(s)|I| summand is one member of a wider family: the interval
factor can be any function of the cell (an increment of a point function, a
power of the length, ...) and the point factor can be sampled at the tag, at
the left endpoint, or at the midpoint.  Sums of such rules over tagged
divisions are what every integrator in this package drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError

CONVENTIONS = ("tag", "left-endpoint", "midpoint", "interval-only")

_HALF = Fraction(1, 2)


def _floating(x) -> bool:
    return isinstance(x, float) or (isinstance(x, np.ndarray) and x.dtype != object)


def midpoint(u, v):
    """Midpoint of [u, v], elementwise: halved in float64 when either side
    is a float or a float array, exactly for exact scalars and exact
    columns.  The float sum is halved in place, as 0.5 * (u + v)."""
    if _floating(u) or _floating(v):
        m = u + v
        m *= 0.5
        return m
    return u + (v - u) * _HALF


@dataclass(frozen=True)
class IntervalFactor:
    """A function of cells alone, g(I) = apply(u, v) for I = ]u, v].

    `apply` is elementwise: divisions hand it whole arrays of left and right
    endpoints, float64 arrays or QuadExtArray exact columns.
    """

    name: str
    apply: Callable[[object, object], object]

    def __call__(self, u, v):
        return self.apply(u, v)


def length_factor() -> IntervalFactor:
    """The plain length |I| = v - u."""
    return IntervalFactor(name="length", apply=lambda u, v: v - u)


def length_squared_factor() -> IntervalFactor:
    """|I|^2: the canonical non-additive interval factor."""
    return IntervalFactor(name="length^2", apply=lambda u, v: (v - u) * (v - u))


def increments_of(f: Callable, name: Optional[str] = None) -> IntervalFactor:
    """Interval factor I |-> f(v) - f(u) for an elementwise point function f.

    Increments are additive by construction, so constant point factors
    telescope against them no matter how the domain is divided.
    """
    return IntervalFactor(
        name=name or f"d({getattr(f, '__name__', 'f')})",
        apply=lambda u, v: f(v) - f(u),
    )


@dataclass(frozen=True)
class BurkillIntegrand:
    """Evaluation rule (s, u, v) |-> value.

    A cell is its tag s and its endpoints u < v.  The rule is elementwise:
    a division evaluates it once on its whole arrays, float64 ones or
    QuadExtArray exact columns.  It is already fully assembled: a
    rule built by make_integrand under a convention other than "tag"
    ignores the tag by construction, and only such a rule has `reads_tag`
    False.  A rule built here directly may read the tag, whatever it does,
    so the constructor takes no such flag.  The integrators sum a rule that
    ignores the tag once per distinct division and hand that sum to every
    strategy tagging it.
    """

    name: str
    rule: Callable[[object, object, object], object]
    reads_tag: bool = field(default=True, init=False, repr=False, compare=False)

    def __call__(self, s, u, v):
        return self.rule(s, u, v)

    @property
    def batch(self):
        # Read by the benchmark tracer (perfbench/tracer.py::_key_riemann),
        # which names riemann_sum's path by it; every rule is elementwise.
        return self.rule


def make_integrand(
    point: Optional[Callable],
    factor: IntervalFactor,
    convention: str = "tag",
    *,
    name: Optional[str] = None,
) -> BurkillIntegrand:
    """Assemble h(s, u, v) = point(x) * factor(u, v), with the point
    function sampled at an x the convention picks.

    With convention "interval-only" the point factor must be absent and the
    rule reduces to g alone.  "left-endpoint" samples f at u, "midpoint" at
    u + (v-u)/2, and "tag" at s itself.  Only the "tag" rule reads the tag:
    the others give bitwise the same value for every tag of a cell, so they
    are built with `reads_tag` False, and divisions that differ only in
    their tags share one sum.
    """
    if convention not in CONVENTIONS:
        raise ArgumentError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}"
        )
    g = factor.apply
    if convention == "interval-only":
        if point is not None:
            raise ArgumentError("interval-only integrands take no point factor")
        return _ignoring_tag(name or factor.name, lambda s, u, v: g(u, v))

    if point is None:
        raise ArgumentError(f"convention {convention!r} needs a point factor")
    pname = getattr(point, "__name__", "f")
    name = name or f"{pname}@{convention} * {factor.name}"
    if convention == "tag":
        return BurkillIntegrand(name=name, rule=lambda s, u, v: point(s) * g(u, v))
    if convention == "left-endpoint":
        return _ignoring_tag(name, lambda s, u, v: point(u) * g(u, v))
    return _ignoring_tag(name, lambda s, u, v: point(midpoint(u, v)) * g(u, v))


def _ignoring_tag(name: str, rule) -> BurkillIntegrand:
    """The integrand of a rule that never reads its first argument."""
    h = BurkillIntegrand(name=name, rule=rule)
    object.__setattr__(h, "reads_tag", False)  # frozen: set once, here
    return h
