"""Exact scalars of the form p + q*sqrt(2) with arbitrary-precision rational
p, q, and exact columns of them.

This tiny quadratic extension of the rationals is just big enough to hold
every grid the samplers build (uniform rational grids and their
irrational-shifted cousins) while keeping "is this point rational?"
decidable.  Addition, subtraction, multiplication, division, and
comparison are exact; floats are deliberately rejected as operands so the
exact regime cannot be contaminated silently.

A scalar is stored as three Python integers (a, b, d) with value
(a + b*sqrt(2)) / d, d > 0 and gcd(a, b, d) == 1, so every value has one
form and arithmetic and the sign test never build a Fraction; p = a/d and
q = b/d are derived on demand.

A column of exact values, `QuadExtArray`, holds the same numbers as two
integer numerator arrays over one common denominator, so exact divisions run
on integer arrays; each element reads back as the scalar the same Python
arithmetic would have produced (an int, a Fraction or a QuadExtScalar).  Its
code lives in `gaugelab._columns` and is loaded on first use, so a run that
never builds an exact division does not compile it at start-up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ScalarRegimeError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError


def _parts(x):
    """(a, b, d) of an exact operand; NotImplemented for bool and foreign
    types.  Arithmetic with floats would silently leave the exact regime."""
    if isinstance(x, QuadExtScalar):
        return x._abd
    if isinstance(x, int):
        return NotImplemented if isinstance(x, bool) else (x, 0, 1)
    if isinstance(x, Fraction):
        n, d = x.as_integer_ratio()
        return n, 0, d
    if isinstance(x, float):
        raise ScalarRegimeError(
            "cannot mix QuadExtScalar arithmetic with float operands"
        )
    return NotImplemented


def _sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2) for integers a, b."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # Opposite signs: compare a^2 against 2 b^2, exact in integers.
    n = a * a - 2 * b * b
    return sa * ((n > 0) - (n < 0))


def _combine(x, y, s: int) -> QuadExtScalar:
    """x + s*y for parts x, y and s = 1 or -1."""
    a, b, d = x
    c, e, f = y
    if d == f:
        return _make(a + s * c, b + s * e, d)
    return _make(a * f + s * c * d, b * f + s * e * d, d * f)


def _quotient(x, y) -> QuadExtScalar:
    """x / y for parts x, y: multiply through by the conjugate of y."""
    a, b, d = x
    c, e, f = y
    norm = c * c - 2 * e * e
    if norm == 0:
        raise ZeroDivisionError("division by zero in QuadExtScalar")
    if norm < 0:
        f, norm = -f, -norm
    return _make((a * c - 2 * b * e) * f, (b * c - a * e) * f, d * norm)


class QuadExtScalar:
    """Immutable exact number p + q*sqrt(2)."""

    __slots__ = ("_abd",)

    def __init__(self, p: Union[int, Fraction] = 0, q: Union[int, Fraction] = 0):
        if isinstance(p, float) or isinstance(q, float):
            raise ScalarRegimeError(
                "QuadExtScalar components must be int or Fraction, not float"
            )
        p, q = _as_fraction(p), _as_fraction(q)
        d = math.lcm(p.denominator, q.denominator)
        a, b = p.numerator * (d // p.denominator), q.numerator * (d // q.denominator)
        _set_abd(self, _make(a, b, d)._abd)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtScalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not slot state
        return QuadExtScalar, (self.p, self.q)

    @property
    def p(self) -> Fraction:
        """The rational part."""
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def q(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        _, b, d = self._abd
        return Fraction(b, d)

    # -- predicates ---------------------------------------------------------

    def is_rational(self) -> bool:
        """True exactly when the sqrt(2) coefficient vanishes."""
        return self._abd[1] == 0

    def __bool__(self) -> bool:
        # sqrt(2) is irrational: a + b*sqrt(2) == 0 only for a == b == 0
        a, b, _ = self._abd
        return a != 0 or b != 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        return NotImplemented if o is NotImplemented else _combine(self._abd, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        return NotImplemented if o is NotImplemented else _combine(self._abd, o, -1)

    def __rsub__(self, other):
        o = _parts(other)
        return NotImplemented if o is NotImplemented else _combine(o, self._abd, -1)

    def __mul__(self, other):
        o = _parts(other)
        if o is NotImplemented:
            return NotImplemented
        (a, b, d), (c, e, f) = self._abd, o
        return _make(a * c + 2 * b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is NotImplemented else _quotient(self._abd, o)

    def __rtruediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is NotImplemented else _quotient(o, self._abd)

    def __neg__(self):
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __pos__(self):
        return self

    def __abs__(self):
        a, b, _ = self._abd
        return -self if _sign(a, b) < 0 else self

    # -- comparison ---------------------------------------------------------
    # Comparisons accept floats (converted exactly to a ratio of integers);
    # arithmetic does not.  Comparing against a float threshold loses nothing.

    def _diff_sign(self, other):
        """Sign of self - other, or None when other is a foreign type."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return -1 if other > 0 else 1
            c, f = other.as_integer_ratio()
            e = 0
        else:
            o = _parts(other)
            if o is NotImplemented:
                return None
            c, e, f = o
        a, b, d = self._abd
        return _sign(a * f - c * d, b * f - e * d)

    def __eq__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s == 0

    def __lt__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._diff_sign(other)
        return NotImplemented if s is None else s >= 0

    def __hash__(self):
        if self.is_rational():
            return hash(self.p)
        return hash((self.p, self.q, "sqrt2"))

    # -- conversion and display ---------------------------------------------

    def __float__(self) -> float:
        # a / d rounds once, exactly as float(Fraction(a, d)) does.
        a, b, d = self._abd
        return a / d + b / d * math.sqrt(2.0)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"QuadExtScalar({self.p!r})"
        return f"QuadExtScalar({self.p!r}, {self.q!r})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.p)
        return f"{self.p} + {self.q}*sqrt(2)"


_new = object.__new__
_set_abd = QuadExtScalar._abd.__set__


def _make(a: int, b: int, d: int) -> QuadExtScalar:
    """(a + b*sqrt(2)) / d for d > 0, reduced to gcd(a, b, d) == 1, without
    the public constructor's checks."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(QuadExtScalar)
    _set_abd(x, (a, b, d))
    return x


# Shift used by irrational-shifted grids: (sqrt(2) - 1) / 2.  Exactly
# representable here, strictly between 0 and 1/2, and irrational, so interior
# cut points of a shifted grid over rational endpoints are never rational.
IRRATIONAL_SHIFT = QuadExtScalar(Fraction(-1, 2), Fraction(1, 2))


def is_exact_scalar(x) -> bool:
    """True for scalars that live in the exact regime (int, Fraction, QuadExtScalar)."""
    return isinstance(x, (int, Fraction, QuadExtScalar)) and not isinstance(x, bool)


_COLUMN_NAMES = ("QuadExtArray", "concatenate", "exact_or_objects")


def __getattr__(name):
    # the column names load with their module on first use, and are module
    # attributes from then on
    if name in _COLUMN_NAMES:
        from . import _columns

        globals().update({n: getattr(_columns, n) for n in _COLUMN_NAMES})
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
