"""Interval factors, point-times-factor integrands, sampling conventions."""

from fractions import Fraction

import numpy as np
import pytest

from gaugelab.errors import ArgumentError
from gaugelab.integrand import (
    CONVENTIONS,
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
    midpoint,
)


def test_midpoint_both_regimes():
    assert midpoint(0.0, 1.0) == 0.5
    m = midpoint(Fraction(1, 3), Fraction(1, 2))
    assert m == Fraction(5, 12)
    assert isinstance(m, Fraction)
    np.testing.assert_array_equal(
        midpoint(np.array([0.0, 0.5]), np.array([0.5, 1.0])), [0.25, 0.75]
    )


def test_length_factor_values():
    f = length_factor()
    assert f(0.0, 0.25) == 0.25
    assert f(0.0, 0.25) + f(0.25, 1.0) == f(0.0, 1.0)

    f2 = length_squared_factor()
    assert f2(0.0, 0.25) == 0.0625


def test_length_squared_not_additive_across_split():
    f2 = length_squared_factor()
    whole = f2(0.0, 1.0)
    halves = f2(0.0, 0.5) + f2(0.5, 1.0)
    assert whole == 1.0 and halves == 0.5


def test_increments_of_telescopes():
    g = increments_of(lambda u: u * u, name="d(s^2)")
    # increment over ]1, 2] is 4 - 1 = 3
    assert g(1.0, 2.0) == 3.0
    parts = g(0.0, 0.3) + g(0.3, 1.0)
    assert parts == pytest.approx(g(0.0, 1.0))


def test_interval_only_integrand():
    h4 = make_integrand(None, length_squared_factor(), "interval-only", name="h4")
    assert h4(0.1, 0.0, 0.25) == 0.0625
    # tag independence
    assert h4(0.25, 0.0, 0.25) == h4(0.0, 0.0, 0.25)


def test_tag_convention_samples_tag():
    h3 = make_integrand(lambda s: s * s, length_factor(), "tag", name="h3")
    assert h3(0.5, 0.25, 0.5) == pytest.approx(1 / 16)


def test_left_endpoint_convention_ignores_tag():
    h5 = make_integrand(lambda u: u * u, length_factor(), "left-endpoint", name="h5")
    assert h5(1.7, 1.0, 2.0) == 1.0
    assert h5(2.0, 1.0, 2.0) == 1.0


def test_midpoint_convention():
    h = make_integrand(lambda s: s, length_factor(), "midpoint")
    assert h(0.9, 0.0, 1.0) == 0.5


def test_point_function_required_unless_interval_only():
    with pytest.raises(ArgumentError):
        make_integrand(None, length_factor(), "tag")
    with pytest.raises(ArgumentError):
        make_integrand(lambda s: s, length_factor(), "interval-only")


def test_unknown_convention_rejected():
    with pytest.raises(ArgumentError):
        make_integrand(lambda s: s, length_factor(), "right-endpoint")
    assert "interval-only" in CONVENTIONS


def test_batch_respects_convention():
    factor = length_factor()
    tags = np.array([0.9, 0.9])
    us = np.array([0.0, 0.5])
    vs = np.array([0.5, 1.0])
    h_tag = make_integrand(lambda s: s, factor, "tag")
    np.testing.assert_allclose(h_tag(tags, us, vs), [0.45, 0.45])
    h_left = make_integrand(lambda s: s, factor, "left-endpoint")
    np.testing.assert_allclose(h_left(tags, us, vs), [0.0, 0.25])
    h_mid = make_integrand(lambda s: s, factor, "midpoint")
    np.testing.assert_allclose(h_mid(tags, us, vs), [0.125, 0.375])


def test_exact_regime_integrand():
    g = increments_of(lambda u: u * u, name="d(s^2)")
    h = make_integrand(lambda s: s, g, "tag", name="s d(s^2)")
    val = h(Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert val == Fraction(1, 8)
    assert isinstance(val, Fraction)
