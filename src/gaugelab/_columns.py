"""Exact columns: `QuadExtArray`, an array of values (a + b*sqrt(2)) / d held
as two integer numerator arrays over one common denominator.

Operators are numpy ufunc calls, which `__array_ufunc__` alone sends to the
integer bodies; other numpy calls read the `object` array of the elements.

Reached as `gaugelab.exact.QuadExtArray`; `gaugelab.exact` imports this
module on first use, so runs that never build an exact division do not
compile it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .errors import ScalarRegimeError
from .exact import QuadExtScalar, _make

_INT64_MAX = 2**63 - 1

# Kind codes: the scalar type Python arithmetic gives an element.  An
# operation's result has the larger code of its operands, as int op Fraction
# is a Fraction and anything op QuadExtScalar a QuadExtScalar.
_INT, _FRACTION, _QUAD = 0, 1, 2


def _element(a: int, b: int, d: int, kind: int):
    """(a + b*sqrt(2)) / d as the scalar type of its kind code."""
    if kind == _QUAD:
        return _make(a, b, d)
    if kind == _FRACTION:
        return Fraction(a, d)
    return a // d


def _scalar_parts(x):
    """(a, b, d, kind) of an exact scalar, None for a foreign one; a binary
    float raises, as it would silently leave the exact regime."""
    if isinstance(x, QuadExtScalar):
        return (*x._abd, _QUAD)
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, _FRACTION
    if isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_)):
        return int(x), 0, 1, _INT
    if isinstance(x, (float, np.floating)):
        raise ScalarRegimeError("exact columns refuse binary float values")
    return None


def _column(A, B, d: int, kind, m: int) -> "QuadExtArray":
    """The column (A + B*sqrt(2)) / d without checks; B is None when every
    element is rational, `kind` an int when every element has that code, and
    m bounds every |A| and |B|."""
    x = object.__new__(QuadExtArray)
    x.A, x.B, x.d, x.kind, x.m = A, B, d, kind, m
    return x


def _wide(X):
    """X as Python ints: an int64 array becomes an `object` array."""
    if isinstance(X, np.ndarray) and X.dtype != object:
        return X.astype(object)
    return X


def _fits(*bounds) -> bool:
    """True when int64 arithmetic bounded by these magnitudes cannot overflow."""
    return max(bounds) <= _INT64_MAX


def _from_values(values) -> "QuadExtArray":
    """The column of an int or bool array, or of a list or array of exact
    scalars."""
    # numpy would read a list of large ints as float64 or uint64
    arr = np.asarray(values, dtype=object if isinstance(values, (list, tuple)) else None)
    if arr.dtype.kind in "bi":
        A = arr.astype(np.int64)
        return _column(A, None, 1, _INT, int(np.abs(A).max(initial=0)))
    if arr.dtype.kind == "f":
        raise ScalarRegimeError("exact columns refuse binary float values")
    parts = [_scalar_parts(x) for x in arr.ravel().tolist()]
    if None in parts:
        raise TypeError(f"no exact column of {arr.dtype} values")
    d = math.lcm(*{p[2] for p in parts})
    A = [a * (d // e) for a, _, e, _ in parts]
    B = [b * (d // e) for _, b, e, _ in parts]
    kinds = [p[3] for p in parts]
    kind = kinds[0] if len(set(kinds)) == 1 else np.array(kinds, np.int8).reshape(arr.shape)
    m = max(map(abs, A + B), default=0)
    dtype = np.int64 if _fits(m) else object
    return _column(_owned(A, dtype, arr.shape), _owned(B, dtype, arr.shape) if any(B) else None,
                   d, kind, m)


def _owned(values: list, dtype, shape) -> np.ndarray:
    """A flat list as an array of this shape that owns its data: a reshaped
    array is a view, and `__setitem__` reads a column on a view as a view."""
    out = np.empty(shape, dtype)
    out.reshape(-1)[:] = values
    return out


def _operand(x):
    """(A, B, d, kind, m) of an exact operand: a column, an exact scalar, or
    an int, bool or `object` array or list of exact scalars.  None for
    anything else, binary floats included."""
    try:
        if isinstance(x, (np.ndarray, list, tuple)):
            x = _from_values(x)
        elif not isinstance(x, QuadExtArray):
            p = _scalar_parts(x)
            if p is None:
                return None
            a, b, d, kind = p
            return a, b or None, d, kind, max(abs(a), abs(b))
    except (ScalarRegimeError, TypeError):
        return None
    return x.A, x.B, x.d, x.kind, x.m


def _common(d1: int, d2: int):
    """(f1, f2, d): x1 * f1 and x2 * f2 share the denominator d."""
    if d1 == d2:
        return 1, 1, d1
    g = math.gcd(d1, d2)
    return d2 // g, d1 // g, d1 // g * d2


def _lin(X, f, Y, g, s):
    """X*f + s*Y*g with None read as 0; None when both are None."""
    if Y is None:
        return None if X is None else X * f
    if X is not None and f == g == 1:
        return X + Y if s > 0 else X - Y
    Y = Y * (g if s > 0 else -g)
    return Y if X is None else X * f + Y


def _kind_max(k1, k2):
    if isinstance(k1, int) and isinstance(k2, int):
        return max(k1, k2)
    return np.maximum(k1, k2)


def _array(X, shape, dtype) -> np.ndarray:
    """X as an array of this shape that owns its data: numpy gives a 0-d
    result as a scalar, and a scalar operand leaves a Python int, or an
    array smaller than the result, where a whole array belongs."""
    if isinstance(X, np.ndarray) and X.shape == shape:
        return X
    return np.broadcast_to(np.asarray(X, dtype), shape).copy()


def _finish(A, B, d, kind, m) -> "QuadExtArray":
    """The column of arithmetic results, each part an array of A's shape."""
    if not isinstance(A, np.ndarray):
        A = _array(A, (), np.int64 if _fits(m) else object)
    if B is not None:
        B = _array(B, A.shape, A.dtype)
    if not isinstance(kind, int):
        kind = _array(kind, A.shape, np.int8)
    return _column(A, B, d, kind, m)


def _add(x, y, s: int) -> "QuadExtArray":
    """x + s*y for operands x, y and s = 1 or -1."""
    A1, B1, d1, k1, m1 = x
    A2, B2, d2, k2, m2 = y
    f1, f2, d = _common(d1, d2)
    m = m1 * f1 + m2 * f2
    if not _fits(m, f1, f2):
        A1, B1, A2, B2 = map(_wide, (A1, B1, A2, B2))
    return _finish(_lin(A1, f1, A2, f2, s), _lin(B1, f1, B2, f2, s), d, _kind_max(k1, k2), m)


def _mul(x, y) -> "QuadExtArray":
    A1, B1, d1, k1, m1 = x
    A2, B2, d2, k2, m2 = y
    both = B1 is not None and B2 is not None
    m = m1 * m2 * (3 if both else 1)
    if not _fits(m, m1, m2):
        A1, B1, A2, B2 = map(_wide, (A1, B1, A2, B2))
    A = A1 * A2
    if both:
        A = A + 2 * B1 * B2
    B = _lin(None if B2 is None else A1 * B2, 1, None if B1 is None else B1 * A2, 1, 1)
    return _finish(A, B, d1 * d2, _kind_max(k1, k2), m)


def _signed(P, Q, m: int):
    """An integer array with the sign of each P + Q*sqrt(2), for integers
    bounded by m.  When P^2 - 2 Q^2 >= 0, |P| >= |Q|*sqrt(2) and the sum has
    P's sign; otherwise Q's.  sqrt(2) is irrational, so P^2 == 2 Q^2 only
    where P == Q == 0: the sign is 0 exactly there."""
    if Q is None:
        return P
    if not _fits(3 * m * m):
        P, Q = _wide(P), _wide(Q)
    return np.where(P * P - 2 * Q * Q >= 0, P, Q)


def _compare(x, y, ufunc):
    """ufunc(x, y) for a comparison ufunc, as a bool array: ufunc(x - y, 0)
    on the sign of x - y."""
    A1, B1, d1, _, m1 = x
    A2, B2, d2, _, m2 = y
    f1, f2, _ = _common(d1, d2)
    m = m1 * f1 + m2 * f2
    if not _fits(m, f1, f2):
        A1, B1, A2, B2 = map(_wide, (A1, B1, A2, B2))
    if B1 is None and B2 is None:
        return ufunc(A1 * f1 if f1 != 1 else A1, A2 * f2 if f2 != 1 else A2)
    return ufunc(_signed(_lin(A1, f1, A2, f2, -1), _lin(B1, f1, B2, f2, -1), m), 0)


def _abs(x) -> "QuadExtArray":
    """x times the sign of each element."""
    A, B, _, _, m = x
    return _mul(x, (np.sign(_signed(A, B, m)), None, 1, _INT, 1))


_UFUNCS = {
    np.add: lambda x, y: _add(x, y, 1),
    np.subtract: lambda x, y: _add(x, y, -1),
    np.multiply: _mul,
    np.negative: lambda x: _mul(x, (-1, None, 1, _INT, 1)),
    np.absolute: _abs,
    **{u: partial(_compare, ufunc=u)
       for u in (np.less, np.less_equal, np.greater, np.greater_equal,
                 np.equal, np.not_equal)},
}


def _objects(args):
    """args with every column replaced by its `object` array, inside tuples,
    lists and dicts too: the slow path of a numpy call."""
    if isinstance(args, QuadExtArray):
        return np.asarray(args)
    if isinstance(args, (tuple, list)):
        return type(args)(_objects(a) for a in args)
    if isinstance(args, dict):
        return {k: _objects(v) for k, v in args.items()}
    return args


class QuadExtArray(NDArrayOperatorsMixin):
    """An array of exact values (a + b*sqrt(2)) / d: the numerators as two
    integer arrays `A` and `B` over one common denominator `d`, a Python int.

    `A` and `B` are int64 wherever a bound on the magnitudes proves that no
    result can overflow, the a^2 - 2 b^2 sign test included, and `object`
    arrays of Python ints otherwise; `B` is None when every element is
    rational.  A kind code per element (an int when all share it) records
    the scalar type Python arithmetic would have given it, so an element,
    `tolist()` and `sum()` give an int, a Fraction or a QuadExtScalar
    exactly as the same arithmetic on scalars would.

    The operators are numpy ufunc calls (NDArrayOperatorsMixin), and
    `__array_ufunc__` runs np.add, np.subtract, np.multiply, np.negative,
    np.absolute and the six comparisons on the integers when every operand
    is exact: a column, an exact scalar, or an int, bool or `object` array
    of them.  Any other numpy call, division, powers, np.concatenate and
    np.where included, and any call with a binary float operand, sees the
    `object` array of the elements and returns what numpy returns for it:
    correct, only slow.  Indexing follows numpy: an integer gives the
    element, slices give views, boolean and fancy indexing give copies.  A
    column never holds a binary float: building one raises ScalarRegimeError.
    """

    __slots__ = ("A", "B", "d", "kind", "m")

    # np.asarray(column) is an array of Python scalars
    dtype = np.dtype(object)

    def __new__(cls, values):
        """The column of exact values: a column itself, an exact scalar (a
        0-d column), or an int, bool or `object` array or list of them."""
        if isinstance(values, QuadExtArray):
            return values
        p = _scalar_parts(values)
        if p is None:
            return _from_values(values)
        a, b, d, kind = p
        m = max(abs(a), abs(b))
        dtype = np.int64 if _fits(m) else object
        return _column(np.array(a, dtype), np.array(b, dtype) if b else None, d, kind, m)

    def __reduce__(self):
        return _column, (self.A, self.B, self.d, self.kind, self.m)

    # -- shape and elements -------------------------------------------------

    @property
    def shape(self):
        return self.A.shape

    @property
    def ndim(self) -> int:
        return self.A.ndim

    @property
    def size(self) -> int:
        return self.A.size

    @property
    def flags(self):
        return self.A.flags

    def setflags(self, write=None):
        for X in (self.A, self.B, self.kind):
            if isinstance(X, np.ndarray):
                X.setflags(write=write)

    def __len__(self) -> int:
        return len(self.A)

    def _elements(self) -> list:
        """The elements in C order, as a flat list of scalars."""
        A = self.A.ravel().tolist()
        B = [0] * len(A) if self.B is None else self.B.ravel().tolist()
        d, kind = self.d, self.kind
        if isinstance(kind, int):
            if kind == _FRACTION:
                return [Fraction(a, d) for a in A]
            if kind == _INT:
                return [a // d for a in A]
            return [_make(a, b, d) for a, b in zip(A, B)]
        return list(map(_element, A, B, [d] * len(A), kind.ravel().tolist()))

    def tolist(self):
        if self.ndim == 1:
            return self._elements()
        return np.asarray(self).tolist()

    def __iter__(self):
        return iter(self.tolist())

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.size, dtype=object)
        out[:] = self._elements()
        out = out.reshape(self.shape)
        return out if dtype is None else out.astype(dtype)

    def __getitem__(self, key):
        A = self.A[key]
        kind = self.kind if isinstance(self.kind, int) else self.kind[key]
        if not isinstance(A, np.ndarray):
            b = 0 if self.B is None else int(self.B[key])
            return _element(int(A), b, self.d, int(kind))
        return _column(A, None if self.B is None else self.B[key], self.d, kind, self.m)

    def __setitem__(self, key, value):
        """Assignment, as in numpy, while the values fit the column as it is:
        its denominator, its bound on the numerators, their int64 or
        Python-int arrays, its sqrt(2) part and its kind codes; views of the
        column then see the write.  Values that need more give the column
        new arrays, so its views keep the values they had; in a view, whose
        new arrays would not reach the column it views, they raise
        ValueError."""
        if not self.A.flags.writeable:
            raise ValueError("assignment destination is read-only")
        x = QuadExtArray(value)
        f1, f2, d = _common(self.d, x.d)
        m = max(self.m * f1, x.m * f2)
        wide = self.A.dtype == object or not _fits(m, f1, f2)
        kind = self.kind
        if isinstance(kind, int) and not (isinstance(x.kind, int) and x.kind == kind):
            kind = np.full(self.shape, kind, np.int8)
        if (f1 != 1 or m > self.m or wide != (self.A.dtype == object)
                or (x.B is not None and self.B is None) or kind is not self.kind):
            if self.A.base is not None:
                raise ValueError(
                    "a view cannot take values that need a new denominator, bound, "
                    "sqrt(2) part or kind codes; assign to the column it views"
                )
            B = np.zeros_like(self.A) if self.B is None and x.B is not None else self.B
            dtype = object if wide else np.int64
            self.A, self.B = (None if X is None else _array((_wide(X) if wide else X) * f1,
                                                            self.shape, dtype)
                              for X in (self.A, B))
            if kind is self.kind and not isinstance(kind, int):
                kind = kind.copy()
            self.kind = kind
        A, B = (_wide(X) if wide else X for X in (x.A, x.B))
        self.A[key] = A * f2
        if self.B is not None:
            self.B[key] = 0 if B is None else B * f2
        if not isinstance(self.kind, int):
            self.kind[key] = x.kind
        self.d, self.m = d, m

    # -- predicates and sums --------------------------------------------------

    def is_rational(self) -> np.ndarray:
        """True where the sqrt(2) coefficient vanishes."""
        if self.B is None:
            return np.ones(self.shape, dtype=bool)
        return self.B == 0

    def __bool__(self) -> bool:
        return bool(np.asarray(self))

    def sum(self, axis=None, out=None, **kwargs):
        """The exact sum of the elements, of the type Python's sum() of
        them from 0 gives; np.sum(column) calls this.  Given any argument,
        numpy sums the `object` array."""
        if axis is not None or out is not None or kwargs:
            return np.sum(np.asarray(self), axis=axis, out=out, **kwargs)
        kind = self.kind if isinstance(self.kind, int) else int(self.kind.max(initial=_INT))

        def total(X):
            if X is None:
                return 0
            if X.dtype != object and not _fits(self.m * X.size):
                X = X.astype(object)
            return int(X.sum())

        return _element(total(self.A), total(self.B), self.d, kind)

    # -- arithmetic and comparison -------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # `x += y` passes out=(x,) and rebinds x to what this returns: a new
        # column, as the sum may need a new denominator or wider integers
        if kwargs and kwargs.get("out", (None,))[0] is self:
            del kwargs["out"]
        body = _UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        if body is not None:
            operands = tuple(map(_operand, inputs))
            if None not in operands:
                return body(*operands)
        return getattr(ufunc, method)(*_objects(inputs), **_objects(kwargs))

    def __repr__(self) -> str:
        return f"QuadExtArray({self.tolist()!r})"


def concatenate(columns) -> QuadExtArray:
    """1-d columns end to end, over their common denominator: each column's
    numerators are scaled to it and joined as integer arrays, and every
    element keeps its value and kind."""
    d = math.lcm(*(x.d for x in columns))
    m = max(x.m * (d // x.d) for x in columns)
    wide = not _fits(m, d) or any(x.A.dtype == object for x in columns)

    def join(parts):
        out = []
        for X, x in zip(parts, columns):
            if X is None:
                X = np.zeros(x.A.shape, x.A.dtype)
            X = _wide(X) if wide else X
            out.append(X if x.d == d else X * (d // x.d))
        return np.concatenate(out)

    kinds = [x.kind for x in columns]
    if all(isinstance(k, int) and k == kinds[0] for k in kinds):
        kind = kinds[0]
    else:
        kind = np.concatenate([np.full(x.shape, k, np.int8) if isinstance(k, int) else k
                               for x, k in zip(columns, kinds)])
    B = None if all(x.B is None for x in columns) else join([x.B for x in columns])
    return _column(join([x.A for x in columns]), B, d, kind, m)


def exact_or_objects(values):
    """The QuadExtArray of exact values, or the `object` array of values that
    Python arithmetic took out of the exact regime (a binary float times an
    exact increment, say), which only the slow path handles."""
    try:
        return QuadExtArray(values)
    except ScalarRegimeError:
        return np.asarray(values, dtype=object)
