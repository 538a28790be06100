"""Half-open intervals, tagged divisions, and gauge contracts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gaugelab.cells import Gauge, Interval, TaggedDivision
from gaugelab.errors import ArgumentError, GaugeContractError, ScalarRegimeError


class TestInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(ArgumentError):
            Interval(1.0, 1.0)
        with pytest.raises(ArgumentError):
            Interval(2.0, 1.0)


class TestTaggedDivision:
    def test_tag_anywhere_in_closure(self):
        for tag in (0.0, 0.5, 1.0):  # the left endpoint is a legal tag
            d = TaggedDivision([tag], [0.0, 1.0])
            assert d.n == 1 and d.tags[0] == tag

    def test_tag_outside_rejected(self):
        for tag in (1.5, -0.1):
            with pytest.raises(ArgumentError):
                TaggedDivision([tag], [0.0, 1.0])
        with pytest.raises(ArgumentError):
            TaggedDivision([Fraction(3, 2)], [0, 1])

    @pytest.mark.parametrize(
        "tags, edges",
        [([0.5], [0.0]), ([0.5], [0.0, 0.5, 1.0]), ([], [0.0]), ([0.25, 0.75], [0.0, 1.0])],
    )
    def test_edges_are_one_more_than_tags(self, tags, edges):
        with pytest.raises(ArgumentError, match=r"n \+ 1 edges"):
            TaggedDivision(tags, edges)

    def test_edges_must_increase(self):
        with pytest.raises(ArgumentError, match=r"degenerate cell \]1.0, 0.5\]"):
            TaggedDivision([0.5, 0.5], [0.0, 1.0, 0.5])
        with pytest.raises(ArgumentError, match=r"degenerate cell \]0.5, 0.5\]"):
            TaggedDivision([0.25, 0.5, 0.75], [0.0, 0.5, 0.5, 1.0])

    def test_lefts_rights_and_domain_derive_from_edges(self):
        d = TaggedDivision([0.1, 0.6], [0.0, 0.5, 1.0])
        assert d.lefts.tolist() == [0.0, 0.5] and d.rights.tolist() == [0.5, 1.0]
        assert np.shares_memory(d.lefts, d.edges) and np.shares_memory(d.rights, d.edges)
        assert d.domain == Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            d.lefts = d.edges[:-1]
        exact = TaggedDivision([Fraction(1, 3)], [0, Fraction(1, 2)])
        assert exact.domain == Interval(0, Fraction(1, 2))
        assert type(exact.domain.u) is int and type(exact.domain.v) is Fraction

    @pytest.mark.parametrize(
        "tags, edges",
        [
            ([Fraction(0), Fraction(1)], [Fraction(0), Fraction(1, 2), math.inf]),
            ([Fraction(1, 4)], [Fraction(0), 0.5]),
            ([np.float32(0.25), Fraction(3, 4)], [0, Fraction(1, 2), 1]),
        ],
        ids=["inf-edge", "float-edge", "numpy-float-tag"],
    )
    def test_binary_float_among_exact_scalars_rejected(self, tags, edges):
        # an object column would otherwise pass as exact: with the inf edge,
        # a Riemann sum of s * length came out as inf
        with pytest.raises(ScalarRegimeError):
            TaggedDivision(tags, edges)

    def test_exact_regime_uses_object_arrays(self):
        half = Fraction(1, 2)
        d = TaggedDivision([Fraction(1, 4), half], [0, half, 1])
        assert d.exact
        for column in (d.tags, d.edges, d.lefts, d.rights):
            assert isinstance(column, np.ndarray) and column.dtype == object
        assert d.tags.tolist() == [Fraction(1, 4), half]
        assert type(d.lefts[0]) is int

    def test_exact_checks_name_the_cell(self):
        half = Fraction(1, 2)
        with pytest.raises(ArgumentError, match=r"degenerate cell \]Fraction\(1, 2\)"):
            TaggedDivision([0, half, 1], [0, half, half, 1])
        outside = r"tag 1 outside cell closure \[0, Fraction\(1, 2\)\]"
        with pytest.raises(ArgumentError, match=outside):
            TaggedDivision([1, 1], [0, half, 1])

    def test_float_lists_make_a_float_division(self):
        # lists of binary floats get the float checks, as float64 arrays do
        with pytest.raises(ArgumentError, match="non-finite"):
            TaggedDivision([1.0], [0.0, math.inf])
        d = TaggedDivision([0.5], [0.0, 1.0])
        assert not d.exact and d.tags.dtype == float

    def test_float_regime_uses_arrays(self):
        d = TaggedDivision(np.array([0.5]), np.array([0.0, 1.0]))
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
