"""Half-open intervals, tagged divisions, and gauge contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gaugelab.cells import Gauge, Interval, TaggedDivision
from gaugelab.errors import ArgumentError, GaugeContractError


class TestInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(ArgumentError):
            Interval(1.0, 1.0)
        with pytest.raises(ArgumentError):
            Interval(2.0, 1.0)


def _division(*triples, domain=None):
    """A float division from (tag, left, right) triples."""
    tags, lefts, rights = (np.array(col, dtype=float) for col in zip(*triples))
    domain = domain or Interval(float(lefts[0]), float(rights[-1]))
    return TaggedDivision(domain, tags, lefts, rights)


class TestTaggedDivision:
    def test_tag_anywhere_in_closure(self):
        for tag in (0.0, 0.5, 1.0):  # the left endpoint is a legal tag
            d = _division((tag, 0.0, 1.0))
            assert d.n == 1 and d.tags[0] == tag

    def test_tag_outside_rejected(self):
        for tag in (1.5, -0.1):
            with pytest.raises(ArgumentError):
                _division((tag, 0.0, 1.0))
        with pytest.raises(ArgumentError):
            TaggedDivision(Interval(0, 1), [Fraction(3, 2)], [0], [1])

    def test_gap_rejected(self):
        with pytest.raises(ArgumentError):
            _division((0.1, 0.0, 0.4), (0.8, 0.6, 1.0))

    def test_overlap_rejected(self):
        with pytest.raises(ArgumentError):
            _division((0.1, 0.0, 0.6), (0.8, 0.4, 1.0))

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            _division((0.5, 0.0, 1.0), domain=Interval(0.0, 2.0))

    def test_exact_regime_uses_object_arrays(self):
        half = Fraction(1, 2)
        d = TaggedDivision(Interval(0, 1), [Fraction(1, 4), half], [0, half], [half, 1])
        assert d.exact
        for column in (d.tags, d.lefts, d.rights):
            assert isinstance(column, np.ndarray) and column.dtype == object
        assert d.tags.tolist() == [Fraction(1, 4), half]
        assert type(d.lefts[0]) is int

    def test_exact_checks_name_the_cell(self):
        half = Fraction(1, 2)
        with pytest.raises(ArgumentError, match=r"degenerate cell \]Fraction\(1, 2\)"):
            TaggedDivision(Interval(0, 1), [0, half, 1], [0, half, half], [half, half, 1])
        with pytest.raises(ArgumentError, match="do not abut"):
            TaggedDivision(Interval(0, 1), [0, 1], [0, Fraction(2, 3)], [half, 1])
        with pytest.raises(ArgumentError, match="span"):
            TaggedDivision(Interval(0, 2), [0], [0], [1])

    def test_float_lists_make_a_float_division(self):
        # lists of binary floats get the float checks, as float64 arrays do
        with pytest.raises(ArgumentError, match="non-finite"):
            TaggedDivision(Interval(0.0, math.inf), [1.0], [0.0], [math.inf])
        d = TaggedDivision(Interval(0.0, 1.0), [0.5], [0.0], [1.0])
        assert not d.exact and d.tags.dtype == float

    def test_float_regime_uses_arrays(self):
        d = _division((0.5, 0.0, 1.0))
        assert not d.exact
        assert isinstance(d.tags, np.ndarray) and isinstance(d.lefts, np.ndarray)
        assert d.lefts[0] == 0.0 and d.rights[-1] == 1.0


class TestGauge:
    def test_constant(self):
        g = Gauge.constant(0.25)
        assert g.is_constant and g.constant_value == 0.25
        assert g.evaluate_batch(np.array([0.7])).tolist() == [0.25]

    def test_function_gauge(self):
        g = Gauge.from_function(lambda s: s / 2 + 0.1)
        assert not g.is_constant
        assert g.evaluate_batch(np.array([0.4]))[0] == pytest.approx(0.3)

    def test_nonpositive_width_raises(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.25]))
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.5]))

    def test_exact_points_keep_exact_widths(self):
        points = np.array([Fraction(1, 4), Fraction(3, 4)], dtype=object)
        widths = Gauge.constant(Fraction(1, 3)).evaluate_batch(points)
        assert widths.dtype == object and widths.tolist() == [Fraction(1, 3)] * 2
        widths = Gauge.from_function(lambda s: s / 2).evaluate_batch(points)
        assert widths.dtype == object and widths.tolist() == [Fraction(1, 8), Fraction(3, 8)]
        with pytest.raises(GaugeContractError) as err:
            Gauge.from_function(lambda s: s - Fraction(1, 2)).evaluate_batch(points)
        assert err.value.point == Fraction(1, 4)
        assert err.value.value == Fraction(-1, 4)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises((ArgumentError, GaugeContractError)):
            Gauge.constant(0.0)

    def test_batch_evaluation_checks_positivity(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.6, 0.2]))
        out = g.evaluate_batch(np.array([0.6, 0.9]))
        assert np.allclose(out, [0.1, 0.4])
