"""Half-open intervals, tagged divisions, and gauge contracts."""

from fractions import Fraction

import numpy as np
import pytest

from gaugelab.cells import Gauge, Interval, TaggedDivision
from gaugelab.errors import ArgumentError, GaugeContractError


class TestInterval:
    def test_half_open_membership(self):
        cell = Interval(0.0, 1.0)
        assert 1.0 in cell
        assert 0.5 in cell
        assert 0.0 not in cell
        assert 1.5 not in cell

    def test_degenerate_rejected(self):
        with pytest.raises(ArgumentError):
            Interval(1.0, 1.0)
        with pytest.raises(ArgumentError):
            Interval(2.0, 1.0)

    def test_length(self):
        assert Interval(Fraction(1, 3), Fraction(1, 2)).length == Fraction(1, 6)
        assert Interval(0.0, 0.25).length == 0.25


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

    def test_exact_regime_uses_tuples(self):
        half = Fraction(1, 2)
        d = TaggedDivision(Interval(0, 1), [Fraction(1, 4), half], [0, half], [half, 1])
        assert d.exact
        assert isinstance(d.tags, tuple) and isinstance(d.lefts, tuple)

    def test_float_regime_uses_arrays(self):
        d = _division((0.5, 0.0, 1.0))
        assert not d.exact
        assert isinstance(d.tags, np.ndarray) and isinstance(d.lefts, np.ndarray)
        assert d.lefts[0] == 0.0 and d.rights[-1] == 1.0


class TestGauge:
    def test_constant(self):
        g = Gauge.constant(0.25)
        assert g.is_constant and g.constant_value == 0.25
        assert g(0.7) == 0.25

    def test_function_gauge(self):
        g = Gauge.from_function(lambda s: s / 2 + 0.1)
        assert not g.is_constant
        assert g(0.4) == pytest.approx(0.3)

    def test_nonpositive_width_raises(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError):
            g(0.25)
        with pytest.raises(GaugeContractError):
            g(0.5)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises((ArgumentError, GaugeContractError)):
            Gauge.constant(0.0)

    def test_batch_evaluation_checks_positivity(self):
        g = Gauge.from_function(lambda s: s - 0.5)
        with pytest.raises(GaugeContractError):
            g.evaluate_batch(np.array([0.6, 0.2]))
        out = g.evaluate_batch(np.array([0.6, 0.9]))
        assert np.allclose(out, [0.1, 0.4])
