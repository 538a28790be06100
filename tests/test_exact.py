"""Exact scalar field Q(sqrt(2)): arithmetic, ordering, regime fences."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from gaugelab.divisions import make_shifted_uniform
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtScalar, is_exact_scalar
from gaugelab.errors import ScalarRegimeError

SQRT2 = QuadExtScalar(0, 1)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == 2
    assert not SQRT2.is_rational()


def test_field_arithmetic():
    x = QuadExtScalar(Fraction(1, 2), Fraction(3, 4))
    y = QuadExtScalar(2, Fraction(-1, 3))
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert -x + x == 0
    assert x / x == 1
    assert abs(QuadExtScalar(1, -1)) == QuadExtScalar(-1, 1)  # 1-sqrt2 < 0


def test_rational_detection():
    assert QuadExtScalar(Fraction(7, 3), 0).is_rational()
    assert not QuadExtScalar(0, Fraction(1, 10**12)).is_rational()
    # q*sqrt2 can never cancel a rational p exactly
    z = QuadExtScalar(1, 1) - QuadExtScalar(0, 1)
    assert z.is_rational() and z == 1


def test_irrational_shift_in_unit_interval():
    assert not IRRATIONAL_SHIFT.is_rational()
    assert 0 < IRRATIONAL_SHIFT < 1
    assert float(IRRATIONAL_SHIFT) == pytest.approx((math.sqrt(2) - 1) / 2)


def test_float_arithmetic_rejected():
    x = QuadExtScalar(1, 1)
    for bad in (0.5, 1.0):
        with pytest.raises(ScalarRegimeError):
            x + bad
        with pytest.raises(ScalarRegimeError):
            bad * x
        with pytest.raises(ScalarRegimeError):
            x / bad


def test_float_comparisons_allowed():
    # ordering against floats is exact: the float is a rational number
    assert QuadExtScalar(0, 1) > 1.4142135623730950
    assert QuadExtScalar(0, 1) < 1.4142135623730952
    assert QuadExtScalar(Fraction(1, 2), 0) == 0.5
    assert not QuadExtScalar(Fraction(1, 3), 0) == 1 / 3


def test_exact_sign_no_float_roundoff():
    # p chosen so float(p) == float(sqrt2) yet p != sqrt2
    p = Fraction(math.sqrt(2))  # exact value of the nearest double
    x = QuadExtScalar(p, 0)
    y = QuadExtScalar(0, 1)
    assert float(x) == float(y)
    assert x != y and (x > y or x < y)


def test_hash_consistent_with_rational_equality():
    assert hash(QuadExtScalar(Fraction(3, 2), 0)) == hash(Fraction(3, 2))
    d = {QuadExtScalar(2, 0): "two"}
    assert d[QuadExtScalar(2, 0)] == "two"


def test_is_exact_scalar():
    assert is_exact_scalar(3)
    assert is_exact_scalar(Fraction(1, 3))
    assert is_exact_scalar(SQRT2)
    assert not is_exact_scalar(0.5)
    assert not is_exact_scalar(True)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_keep_the_value(clone):
    for x in (SQRT2, IRRATIONAL_SHIFT, QuadExtScalar(Fraction(-7, 3)), QuadExtScalar()):
        y = clone(x)
        assert type(y) is QuadExtScalar and y == x and repr(y) == repr(x)
        assert (y.p, y.q) == (x.p, x.q)


def test_deepcopy_of_an_exact_division():
    d = make_shifted_uniform(Fraction(0), Fraction(1), 4, "midpoint")
    c = copy.deepcopy(d)
    assert c.exact and c.n == d.n
    assert c.tags.tolist() == d.tags.tolist() and c.edges.tolist() == d.edges.tolist()
    assert [type(x) for x in c.edges.tolist()] == [type(x) for x in d.edges.tolist()]


def test_only_zero_is_false():
    zero = QuadExtScalar(1, 1) - QuadExtScalar(1, 1)
    assert not zero and not QuadExtScalar() and not SQRT2 * 0
    assert SQRT2 and QuadExtScalar(Fraction(-1, 3)) and QuadExtScalar(1, -1)
    column = np.array([zero, SQRT2, QuadExtScalar(0), QuadExtScalar(1, -1)], dtype=object)
    assert np.count_nonzero(column) == 2


_small = hst.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(p1=_small, q1=_small, p2=_small, q2=_small)
def test_matches_float_arithmetic_closely(p1, q1, p2, q2):
    x = QuadExtScalar(p1, q1)
    y = QuadExtScalar(p2, q2)
    fx, fy = float(x), float(y)
    scale = max(1.0, abs(fx), abs(fy))
    assert abs(float(x + y) - (fx + fy)) <= 1e-12 * scale
    assert abs(float(x - y) - (fx - fy)) <= 1e-12 * scale
    assert abs(float(x * y) - fx * fy) <= 1e-12 * max(1.0, abs(fx * fy), scale)


@given(p=_small, q=_small)
def test_truth_is_nonzero(p, q):
    x = QuadExtScalar(p, q)
    assert bool(x) == (x != 0) == (p != 0 or q != 0)


@given(p=_small, q=_small)
def test_negation_and_abs_roundtrip(p, q):
    x = QuadExtScalar(p, q)
    assert -(-x) == x
    assert abs(x) >= 0
    assert abs(x) == x or abs(x) == -x


# -- differential check against a two-Fraction reference --------------------
# _TwoFractionScalar is the same field with p and q held as Fractions and
# every operation done in Fraction arithmetic.  The integer-backed
# QuadExtScalar must match it in value, text, hash, float bits and errors.


class _TwoFractionScalar:
    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        if isinstance(p, float) or isinstance(q, float):
            raise ScalarRegimeError("components must be int or Fraction")
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, _TwoFractionScalar):
            return other
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return cls(other, 0)
        if isinstance(other, float):
            raise ScalarRegimeError("float operand")
        return NotImplemented

    def _sign(self):
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        d = p * p - 2 * q * q
        mag = (d > 0) - (d < 0)
        return mag if p > 0 else -mag

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _TwoFractionScalar(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _TwoFractionScalar(self.p - o.p, self.q - o.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _TwoFractionScalar(o.p - self.p, o.q - self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _TwoFractionScalar(
            self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.p * o.p - 2 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in QuadExtScalar")
        return self * _TwoFractionScalar(o.p / norm, -o.q / norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o / self

    def __neg__(self):
        return _TwoFractionScalar(-self.p, -self.q)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def _diff_sign(self, other):
        if isinstance(other, float):
            if not math.isfinite(other):
                return -1 if other > 0 else 1
            other = Fraction(other)
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError("not comparable")
        return _TwoFractionScalar(self.p - o.p, self.q - o.q)._sign()

    def __eq__(self, other):
        try:
            return self._diff_sign(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._diff_sign(other) < 0

    def __le__(self, other):
        return self._diff_sign(other) <= 0

    def __gt__(self, other):
        return self._diff_sign(other) > 0

    def __ge__(self, other):
        return self._diff_sign(other) >= 0

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, "sqrt2"))

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def __repr__(self):
        if self.q == 0:
            return f"QuadExtScalar({self.p!r})"
        return f"QuadExtScalar({self.p!r}, {self.q!r})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        return f"{self.p} + {self.q}*sqrt(2)"


_rationals = hst.one_of(
    hst.integers(-50, 50),
    hst.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
# A value in Q(sqrt 2), a plain int or a plain Fraction, as the pair
# (QuadExtScalar or rational, _TwoFractionScalar or the same rational).
_operands = hst.one_of(
    hst.tuples(_rationals, _rationals).map(
        lambda pq: (QuadExtScalar(*pq), _TwoFractionScalar(*pq))
    ),
    _rationals.map(lambda r: (r, r)),
)
_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
_COMPARISONS = (
    operator.lt, operator.le, operator.eq, operator.ne, operator.ge, operator.gt
)


def _outcome(fn, *args):
    """repr of fn's result, or the type of the exception it raised."""
    try:
        result = fn(*args)
    except (ZeroDivisionError, ScalarRegimeError) as exc:
        return type(exc)
    if isinstance(result, QuadExtScalar):
        # one stored form per value: (a + b*sqrt(2)) / d in lowest terms
        a, b, d = result._abd
        assert d > 0 and math.gcd(a, b, d) == 1
    return repr(result)


@given(x=_operands, y=_operands)
def test_same_arithmetic_as_two_fraction_scalar(x, y):
    (new_x, ref_x), (new_y, ref_y) = x, y
    for op in _ARITHMETIC:
        new, ref = _outcome(op, new_x, new_y), _outcome(op, ref_x, ref_y)
        assert new == ref
    assert _outcome(abs, new_x) == _outcome(abs, ref_x)


@given(x=_operands, y=hst.one_of(_operands, hst.floats().map(lambda f: (f, f))))
def test_same_ordering_as_two_fraction_scalar(x, y):
    (new_x, ref_x), (new_y, ref_y) = x, y
    for op in _COMPARISONS:
        assert op(new_x, new_y) == op(ref_x, ref_y)
        assert op(new_y, new_x) == op(ref_y, ref_x)
    for bound in (math.inf, -math.inf):
        assert [op(new_x, bound) for op in _COMPARISONS] == [
            op(ref_x, bound) for op in _COMPARISONS
        ]


@given(pq=hst.tuples(_rationals, _rationals))
def test_same_text_hash_and_float_as_two_fraction_scalar(pq):
    new, ref = QuadExtScalar(*pq), _TwoFractionScalar(*pq)
    assert (new.p, new.q) == (ref.p, ref.q)
    assert repr(new) == repr(ref) and str(new) == str(ref)
    assert hash(new) == hash(ref)
    assert float(new).hex() == float(ref).hex()
    assert new.is_rational() == (ref.q == 0)


@given(pq=hst.tuples(_rationals, _rationals), f=hst.floats())
def test_float_operands_raise_like_two_fraction_scalar(pq, f):
    new, ref = QuadExtScalar(*pq), _TwoFractionScalar(*pq)
    for op in _ARITHMETIC:
        assert _outcome(op, new, f) == _outcome(op, ref, f) == ScalarRegimeError
        assert _outcome(op, f, new) == _outcome(op, f, ref) == ScalarRegimeError
