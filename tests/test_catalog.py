"""The named oracle set: every entry must land where its note says."""

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from gaugelab.catalog import (
    Expected,
    conditional_series,
    dirichlet_point,
    entry_names,
    get_entry,
    run_entry,
    step_at,
    zigzag,
)
from gaugelab.divisions import RefinementSchedule
from gaugelab.errors import ArgumentError, ScalarRegimeError
from gaugelab.exact import IRRATIONAL_SHIFT, SQRT2
from gaugelab.integrators import ConvergenceController
from gaugelab.results import Status


class TestDirichletPoint:
    def test_rational_scalars(self):
        assert dirichlet_point(Fraction(1, 3)) == 1
        assert dirichlet_point(2) == 1
        assert dirichlet_point(SQRT2 - SQRT2) == 1

    def test_irrational_quadext(self):
        assert dirichlet_point(SQRT2) == 0
        assert dirichlet_point(IRRATIONAL_SHIFT) == 0

    def test_floats_rejected_loudly(self):
        with pytest.raises(ScalarRegimeError, match="rational"):
            dirichlet_point(0.5)

    def test_bool_rejected(self):
        with pytest.raises(ScalarRegimeError):
            dirichlet_point(True)

    def test_elementwise_on_object_arrays(self):
        points = np.array([Fraction(1, 3), SQRT2, 2, IRRATIONAL_SHIFT], dtype=object)
        out = dirichlet_point(points)
        assert out.dtype == object and out.tolist() == [1, 0, 1, 0]
        assert all(type(x) is int for x in out.tolist())

    def test_float_arrays_rejected_loudly(self):
        with pytest.raises(ScalarRegimeError, match="rational"):
            dirichlet_point(np.array([0.5, 1.0]))
        with pytest.raises(ScalarRegimeError, match="rational"):
            dirichlet_point(np.array([Fraction(1, 2), 0.5], dtype=object))


class TestStepAt:
    def test_float_regime(self):
        f = step_at(0.5)
        assert f(0.25) == 0.0 and f(0.5) == 0.0 and f(0.75) == 1.0

    def test_exact_regime(self):
        f = step_at(Fraction(1, 2))
        assert f(Fraction(1, 2)) == 0
        assert f(IRRATIONAL_SHIFT + Fraction(1, 2)) == 1

    def test_custom_levels(self):
        f = step_at(0.0, low=-1.0, high=2.0)
        assert f(-0.5) == -1.0 and f(0.5) == 2.0


def test_zigzag_shape():
    assert zigzag(0.0) == pytest.approx(0.0)
    assert zigzag(0.25) == pytest.approx(0.5)
    assert zigzag(0.5) == pytest.approx(0.0)
    assert zigzag(0.75) == pytest.approx(0.5)
    assert zigzag(1.0) == pytest.approx(0.0)


class TestEntryTable:
    def test_names_stable(self):
        names = entry_names()
        assert "h1" in names and "step_dD" in names and "inv_sqrt" in names
        assert len(names) == len(set(names))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ArgumentError, match="h1"):
            get_entry("nonsense")

    def test_every_entry_has_note_and_expectation(self):
        for name in entry_names():
            e = get_entry(name)
            assert e.note
            assert isinstance(e.expected, Expected)

    @pytest.mark.parametrize("name", [n for n in entry_names()])
    def test_entry_meets_expectation(self, name):
        e = get_entry(name)
        out = run_entry(e)
        if e.kind == "path":
            assert out == e.expected.value
            return
        assert out.status is e.expected.status
        if e.expected.value is not None:
            err = abs(float(out.estimate) - float(e.expected.value))
            assert err <= e.expected.tolerance

    def test_kind_and_regime_follow_method_and_bounds(self):
        groups = {}
        for name in entry_names():
            e = get_entry(name)
            groups.setdefault((e.kind, e.regime), []).append(name)
        assert groups == {
            ("integrand", "float"): ["h1", "h2", "h3", "h4", "h5", "s_dsquare", "inv_sqrt"],
            ("integrand", "exact"): ["const_dD", "step_dD"],
            ("point-function", "float"): [
                "square_darboux", "const_darboux", "identity_darboux", "step_darboux"
            ],
            ("distribution", "float"): ["identity_dist", "square_dist", "twomass_step"],
            ("path", "float"): ["const_path", "linear_path", "zigzag_path"],
        }

    def test_exact_entries_stay_exact(self):
        out = run_entry(get_entry("const_dD"))
        assert out.estimate == 0
        assert not isinstance(out.estimate, float)

    def test_exact_estimate_is_not_a_float(self):
        # integer sums 0 and 1 used to be averaged into the float 0.5
        ctrl = ConvergenceController(tolerance_abs=1e-9, schedule=RefinementSchedule(1, 2))
        out = run_entry(get_entry("step_dD"), ctrl)
        assert out.status is Status.INCONCLUSIVE
        assert out.estimate == Fraction(1, 2) and type(out.estimate) is Fraction

    def test_oscillating_spread_is_exactly_one(self):
        out = run_entry(get_entry("step_dD"))
        assert out.status is Status.OSCILLATING
        assert len(out.trace) >= 8
        for row in out.trace:
            assert row.sum_max - row.sum_min == 1


class IntegratorFunction(NamedTuple):
    """A function g usable as the increment factor in beta * dg probes."""

    name: str
    a: object
    b: object
    fn: Callable
    exact: bool
    range_value: object  # g(b) - g(a), the telescoping oracle


def integrator_functions():
    """The four integrators acceptance criterion 02 telescopes over."""
    twomass = get_entry("twomass_step").build().evaluate
    return (
        IntegratorFunction("identity", 0.0, 1.0, lambda u: u, False, 1.0),
        IntegratorFunction("square", 0.0, 1.0, lambda u: u * u, False, 1.0),
        IntegratorFunction("twomass", 2.0, 5.0, twomass, False, 1.0),
        IntegratorFunction("dirichlet", Fraction(0), Fraction(1), dirichlet_point, True, 0),
    )


class TestIntegratorFunctions:
    def test_catalog_of_four(self):
        gs = {g.name: g for g in integrator_functions()}
        assert set(gs) == {"identity", "square", "twomass", "dirichlet"}
        assert gs["identity"].range_value == 1.0
        assert gs["dirichlet"].exact
        assert gs["dirichlet"].range_value == 0

    def test_range_matches_endpoint_values(self):
        for g in integrator_functions():
            assert g.fn(g.b) - g.fn(g.a) == g.range_value


class TestConditionalSeries:
    def test_first_terms(self):
        assert conditional_series(1) == (-1.0, 0.0, -1.0)
        assert conditional_series(2) == (-0.5, 0.5, -1.0)

    def test_partial_approaches_minus_log_two(self):
        partial, _, _ = conditional_series(100000)
        assert partial == pytest.approx(-math.log(2.0), abs=1e-4)

    def test_split_reconstructs_partial(self):
        for n in (1, 2, 7, 100, 12345):
            partial, pos, neg = conditional_series(n)
            assert pos + neg == pytest.approx(partial, abs=1e-12)
            assert pos >= 0.0 and neg <= 0.0

    def test_positive_and_negative_halves_diverge(self):
        _, pos_small, neg_small = conditional_series(100)
        _, pos_big, neg_big = conditional_series(100000)
        assert pos_big > pos_small + 2.0
        assert neg_big < neg_small - 2.0

    def test_invalid_n(self):
        with pytest.raises(ArgumentError):
            conditional_series(0)
