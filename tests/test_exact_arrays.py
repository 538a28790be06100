"""QuadExtArray, the exact column type, against QuadExtScalar element by element."""

import copy
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import gaugelab
from gaugelab.errors import ScalarRegimeError
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtArray, QuadExtScalar

SQRT2 = QuadExtScalar(0, 1)

_COMPARISONS = (
    operator.lt, operator.le, operator.eq, operator.ne, operator.ge, operator.gt
)
_ARITHMETIC = (operator.add, operator.sub, operator.mul)

# Magnitudes around the int64 limits: squares of numerators near 2**31 and
# sums near 2**62 overflow int64, and numerators past 2**63 do not fit it.
_magnitudes = hst.sampled_from([1, 7, 2**31 - 1, 2**31 + 11, 2**62 - 5, 2**63 + 3, 2**70])
_numerators = hst.builds(operator.mul, hst.integers(-3, 3), _magnitudes) | hst.integers(-50, 50)
_denominators = hst.sampled_from([1, 2, 3, 8, 12, 2**40, 2**61 + 1, 2**66])

# Pell pairs: a - b*sqrt(2) with a**2 - 2*b**2 = +-1 is within 1/(2b) of 0,
# the hardest case for the sign test; the last pair overflows int64 squares.
_PELL = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (665857, 470832),
         (318281039, 225058681), (5964153172084899, 4217293152016490)]


@hst.composite
def _scalars(draw):
    """An int, a Fraction or a QuadExtScalar, sign test boundaries included."""
    kind = draw(hst.sampled_from(["int", "fraction", "quad", "pell", "zero"]))
    if kind == "int":
        return draw(_numerators)
    if kind == "fraction":
        return Fraction(draw(_numerators), draw(_denominators))
    if kind == "zero":
        return draw(hst.sampled_from([0, Fraction(0), QuadExtScalar(0)]))
    if kind == "pell":
        a, b = draw(hst.sampled_from(_PELL))
        sign = draw(hst.sampled_from([1, -1]))
        scale = Fraction(draw(hst.sampled_from([1, 3, 2**40])), draw(_denominators))
        return QuadExtScalar(sign * a * scale, -sign * b * scale)
    return QuadExtScalar(Fraction(draw(_numerators), draw(_denominators)),
                         Fraction(draw(_numerators), draw(_denominators)))


def _same(got, want):
    """got and want hold equal values of the same types, element by element."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g == w
        if isinstance(w, QuadExtScalar):
            assert g._abd == w._abd  # one stored form per value


_int64s = (hst.builds(operator.mul, hst.integers(-1, 1),
                      hst.sampled_from([1, 7, 2**31 + 11, 2**62 - 5, 2**63 - 1]))
           | hst.integers(-50, 50))


def _other_operands(data, n):
    """Operands that are not columns, each with the scalars its n elements
    meet: int64 and bool arrays, as `step_at`'s `s > c` makes them (a bool
    array reads as its 0/1 ints), a Fraction and a QuadExtScalar."""
    ints = data.draw(hst.lists(_int64s, min_size=n, max_size=n))
    bools = data.draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    f = Fraction(data.draw(_numerators), data.draw(_denominators))
    q = QuadExtScalar(f, Fraction(data.draw(_numerators), data.draw(_denominators)))
    return [(np.array(ints, dtype=np.int64), ints), (np.array(bools), [int(b) for b in bools]),
            (f, [f] * n), (q, [q] * n)]


_pairs = hst.integers(1, 6).flatmap(
    lambda n: hst.tuples(hst.lists(_scalars(), min_size=n, max_size=n),
                         hst.lists(_scalars(), min_size=n, max_size=n)))


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(pair=_pairs, data=hst.data())
    def test_elementwise_arithmetic(self, pair, data):
        xs, ys = pair
        x, y = QuadExtArray(xs), QuadExtArray(ys)
        _same(x.tolist(), xs)
        others = _other_operands(data, len(xs))
        for op in _ARITHMETIC:
            _same(op(x, y).tolist(), [op(a, b) for a, b in zip(xs, ys)])
            # a scalar operand on either side broadcasts
            _same(op(x, ys[0]).tolist(), [op(a, ys[0]) for a in xs])
            _same(op(ys[0], x).tolist(), [op(ys[0], a) for a in xs])
            for other, scalars in others:
                for got, want in ((op(x, other), map(op, xs, scalars)),
                                  (op(other, x), map(op, scalars, xs))):
                    assert isinstance(got, QuadExtArray)
                    _same(got.tolist(), list(want))
        _same((-x).tolist(), [-a for a in xs])
        _same(abs(x).tolist(), [abs(a) for a in xs])
        # x += y rebinds x to the column x + y, as Python does without +=
        z = x
        z += y
        assert isinstance(z, QuadExtArray) and z is not x
        _same(x.tolist(), xs)

    @settings(max_examples=300, deadline=None)
    @given(pair=_pairs, data=hst.data())
    def test_elementwise_comparisons(self, pair, data):
        xs, ys = pair
        x, y = QuadExtArray(xs), QuadExtArray(ys)
        others = _other_operands(data, len(xs))
        for op in _COMPARISONS:
            got = op(x, y)
            assert isinstance(got, np.ndarray) and got.dtype == bool
            assert got.tolist() == [op(a, b) for a, b in zip(xs, ys)]
            assert op(x, ys[0]).tolist() == [op(a, ys[0]) for a in xs]
            assert op(ys[0], x).tolist() == [op(ys[0], a) for a in xs]
            # the sign test: comparisons against 0
            assert op(x, 0).tolist() == [op(a, 0) for a in xs]
            for other, scalars in others:
                _same(op(x, other).tolist(), list(map(op, xs, scalars)))
                _same(op(other, x).tolist(), list(map(op, scalars, xs)))
        assert x.is_rational().tolist() == [
            not isinstance(a, QuadExtScalar) or a.is_rational() for a in xs
        ]

    @settings(max_examples=100, deadline=None)
    @given(xs=hst.lists(_scalars(), min_size=1, max_size=6),
           f=hst.floats(allow_nan=False, allow_infinity=False))
    def test_float_comparisons_are_exact(self, xs, f):
        x = QuadExtArray(xs)
        for op in _COMPARISONS:
            assert op(x, f).tolist() == [op(a, f) for a in xs]

    @settings(max_examples=200, deadline=None)
    @given(xs=hst.lists(_scalars(), min_size=1, max_size=8))
    def test_sum_value_and_type(self, xs):
        got, want = QuadExtArray(xs).sum(), sum(xs)
        assert type(got) is type(want) and got == want

    @settings(max_examples=100, deadline=None)
    @given(pair=_pairs, data=hst.data())
    def test_indexing_concatenate_and_where(self, pair, data):
        xs, ys = pair
        x, y = QuadExtArray(xs), QuadExtArray(ys)
        i = data.draw(hst.integers(0, len(xs) - 1))
        assert type(x[i]) is type(xs[i]) and x[i] == xs[i]
        _same(x[i:].tolist(), xs[i:])
        mask = np.array(data.draw(hst.lists(hst.booleans(), min_size=len(xs),
                                            max_size=len(xs))))
        _same(x[mask].tolist(), [a for a, keep in zip(xs, mask) if keep])
        _same(x[[i, 0]].tolist(), [xs[i], xs[0]])
        _same(np.concatenate((x, y)).tolist(), xs + ys)
        _same(np.where(mask, x, y).tolist(),
              [a if keep else b for a, b, keep in zip(xs, ys, mask)])
        z = np.empty_like(x, shape=2 * len(xs))
        z[0::2], z[1::2] = x, y
        _same(z.tolist(), [v for ab in zip(xs, ys) for v in ab])
        z[i] = ys[0]
        _same([z[i]], [ys[0]])


class TestColumn:
    def test_int64_where_the_bound_allows_and_python_ints_past_it(self):
        small = QuadExtArray([Fraction(1, 3), 2])
        assert small.A.dtype == np.int64 and small.B is None
        big = QuadExtArray([Fraction(1, 3), 2**70])
        assert big.A.dtype == object
        assert (small * big).tolist() == [Fraction(1, 9), 2**71]
        # int64 squares of these numerators would overflow in the sign test
        scalar = QuadExtScalar(2**31 + 1, -(2**31))
        x = QuadExtArray([scalar])
        assert x.A.dtype == np.int64 and (x < 0).tolist() == [scalar < 0] == [True]

    def test_floats_are_refused(self):
        for values in ([Fraction(1, 2), 0.5], np.array([0.5]), 0.5, [np.float32(1)]):
            with pytest.raises(ScalarRegimeError):
                QuadExtArray(values)

    def test_float_operands_act_as_on_scalars(self):
        # an int or a Fraction times a float is a float; a QuadExtScalar refuses it
        x = QuadExtArray([2, Fraction(1, 2)])
        assert (x * 0.5).tolist() == [1.0, 0.25]
        with pytest.raises(ScalarRegimeError):
            QuadExtArray([SQRT2]) * 0.5

    def test_other_numpy_calls_see_the_object_array(self):
        x = QuadExtArray([Fraction(1, 4), IRRATIONAL_SHIFT, 3])
        objects = np.asarray(x)
        assert objects.dtype == object and objects.tolist() == x.tolist()
        assert np.maximum(x, Fraction(1, 3)).tolist() == [Fraction(1, 3), Fraction(1, 3), 3]
        assert np.array_equal(x, objects)
        # np.sum calls the column's exact sum, or sums the object array
        assert np.sum(x) == x.sum() and type(np.sum(x)) is QuadExtScalar
        assert np.sum(x, keepdims=True).tolist() == [x.sum()]

    def test_results_own_their_arrays(self):
        # numpy gives a 0-d result as a scalar; a column keeps it an array
        for x in (QuadExtArray(Fraction(1, 2)) + 1, -QuadExtArray(SQRT2),
                  abs(QuadExtArray(-3)) * Fraction(1, 3)):
            x[()] = 3
            assert type(x[()]) is int and x[()] == 3
        x = QuadExtArray([Fraction(1, 2), SQRT2])
        for y in (-x, abs(x), x + 0, x * 1):
            y[0], y[1] = Fraction(1, 3), 7
        _same(x.tolist(), [Fraction(1, 2), SQRT2])

    def test_read_only_columns_refuse_writes(self):
        x = QuadExtArray([1, 2, 3])
        x.setflags(write=False)
        assert not x.flags.writeable and not x[1:].flags.writeable
        with pytest.raises(ValueError):
            x[0] = 5

    def test_writes_through_views_and_rescaling(self):
        x = QuadExtArray([Fraction(1, 2), Fraction(3, 2)])
        view = x[1:]
        x[1] = Fraction(-1, 2)  # fits the column: written in place
        assert view.tolist() == [Fraction(-1, 2)]
        view[0] = Fraction(3, 2)  # and through the view
        assert x.tolist() == [Fraction(1, 2), Fraction(3, 2)]
        x[0] = Fraction(1, 3)  # a new common denominator: new arrays
        assert x.tolist() == [Fraction(1, 3), Fraction(3, 2)]
        assert view.tolist() == [Fraction(3, 2)]
        x[0] = SQRT2
        assert [type(v) for v in x] == [QuadExtScalar, Fraction]

    @pytest.mark.parametrize("value", [SQRT2, 1, Fraction(1, 3), Fraction(7, 2), 2**70],
                             ids=["sqrt2-part", "int-kind", "denominator", "bound", "python-int"])
    def test_views_refuse_values_that_do_not_fit(self, value):
        x = QuadExtArray([Fraction(1, 2), Fraction(3, 2)])
        with pytest.raises(ValueError, match="view"):
            x[1:][0] = value
        _same(x.tolist(), [Fraction(1, 2), Fraction(3, 2)])

    def test_a_write_past_the_bound_leaves_views_their_values(self):
        # a view's bound on its numerators stays true: int64 products of the
        # view cannot overflow on a value written into the column it views
        x = QuadExtArray([1, 2])
        view = x[1:]
        x[1] = 2**40
        assert (view * view).tolist() == [4]
        assert (x * x).tolist() == [1, 2**80]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))])
    def test_copy_and_pickle_keep_values_and_types(self, clone):
        x = QuadExtArray([1, Fraction(1, 2), IRRATIONAL_SHIFT])
        _same(clone(x).tolist(), x.tolist())

    def test_division_and_powers_act_as_on_scalars(self):
        x = QuadExtArray([1, Fraction(1, 2), SQRT2])
        assert (x / Fraction(2)).tolist() == [a / Fraction(2) for a in x.tolist()]
        assert (Fraction(1) / x).tolist() == [Fraction(1) / a for a in x.tolist()]
        with pytest.raises(ZeroDivisionError):
            x / Fraction(0)
        # int / int is a float in Python, and so it is here
        assert (QuadExtArray([1, 3]) / 2).tolist() == [0.5, 1.5]
        assert (QuadExtArray([2, Fraction(1, 2)]) ** 2).tolist() == [4, Fraction(1, 4)]


def test_column_code_loads_on_first_exact_use():
    # float runs never compile the column module; the first exact one does
    src = str(Path(gaugelab.__file__).resolve().parents[1])
    probe = (
        "import sys, gaugelab.cli\n"
        "from gaugelab.catalog import get_entry, run_entry\n"
        "run_entry(get_entry('h3'))\n"
        "print('gaugelab._columns' in sys.modules)\n"
        "run_entry(get_entry('const_dD'))\n"
        "print('gaugelab._columns' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


@settings(max_examples=80, deadline=None)
@given(columns=hst.lists(hst.tuples(hst.lists(_scalars(), min_size=2, max_size=6),
                                    hst.sampled_from([slice(None), slice(1, None),
                                                      slice(None, -1)])),
                         min_size=1, max_size=4))
def test_concatenate_keeps_every_element(columns):
    # columns, or the edge slices a level batch joins, end to end on their
    # integer numerators over a common denominator: each element keeps its
    # value and type, as the columns' own elements read
    from gaugelab import exact

    parts = [QuadExtArray(values)[cut] for values, cut in columns]
    got = exact.concatenate(parts)
    assert isinstance(got, QuadExtArray)
    _same(got.tolist(), [x for part in parts for x in part.tolist()])
