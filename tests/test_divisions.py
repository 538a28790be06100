"""Division builders, delta-fineness, bisection, Riemann sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gaugelab.cells import Gauge
from gaugelab.divisions import (
    FLOAT_SHIFT,
    RefinementSchedule,
    bisect_refine,
    delta_fine_division,
    is_fine,
    make_shifted_uniform,
    make_uniform,
    riemann_sum,
)
from gaugelab.errors import (
    ArgumentError,
    GaugeTooDemandingError,
    IntegrandEvalError,
)
from gaugelab.exact import QuadExtScalar
from gaugelab.integrand import (
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
)


class TestRefinementSchedule:
    def test_default_levels_and_cells(self):
        sched = RefinementSchedule()
        levels = list(sched.levels())
        assert levels[0] == 4 and levels[-1] == 22
        assert sched.cells_for(4) == 16
        assert sched.cells_for(10) == 1024

    def test_custom_rule_must_strictly_increase(self):
        with pytest.raises(ArgumentError):
            RefinementSchedule(1, 8, cells_rule=lambda level: 7)

    def test_bounds_validated(self):
        with pytest.raises(ArgumentError):
            RefinementSchedule(5, 4)


class TestMakeUniform:
    def test_midpoint_tags_exact(self):
        d = make_uniform(0, 1, 4, "midpoint")
        assert d.exact
        assert list(d.tags) == [Fraction(k, 8) for k in (1, 3, 5, 7)]
        assert d.lefts[0] == 0 and d.rights[-1] == 1

    def test_right_tags(self):
        d = make_uniform(2, 5, 3, "right")
        assert list(d.tags) == [3, 4, 5]

    def test_left_tags_include_a(self):
        d = make_uniform(0.0, 1.0, 4, "left")
        assert d.tags[0] == 0.0  # tag at closure of first cell

    def test_float_regime_linspace(self):
        d = make_uniform(0.0, 1.0, 8)
        assert not d.exact
        assert d.rights[-1] == 1.0
        np.testing.assert_allclose(np.diff(d.lefts), 0.125)

    def test_offset_sequence_rule(self):
        d = make_uniform(0.0, 1.0, 2, [0.25, 0.75])
        np.testing.assert_allclose(d.tags, [0.125, 0.875])

    def test_bad_inputs(self):
        with pytest.raises(ArgumentError):
            make_uniform(1.0, 0.0, 4)
        with pytest.raises(ArgumentError):
            make_uniform(0.0, 1.0, 0)
        with pytest.raises(ArgumentError):
            make_uniform(0.0, 1.0, 2, "nonsense")


class TestMakeShiftedUniform:
    def test_exact_interior_cuts_are_irrational(self):
        d = make_shifted_uniform(0, 1, 4)
        assert d.exact
        for cut in d.lefts[1:]:
            assert isinstance(cut, QuadExtScalar)
            assert not cut.is_rational()
        assert d.lefts[0] == 0 and d.rights[-1] == 1

    def test_endpoints_never_shifted(self):
        d = make_shifted_uniform(0.0, 1.0, 4)
        assert d.lefts[0] == 0.0 and d.rights[-1] == 1.0
        assert d.lefts[1] == pytest.approx((1 + FLOAT_SHIFT) / 4)

    def test_cell_count_matches(self):
        assert make_shifted_uniform(0, 1, 7).n == 7


class TestIsFine:
    def test_constant_gauge_cases(self):
        d = make_uniform(0.0, 1.0, 4, "midpoint")  # cell half-width 0.125 around mid tags
        assert is_fine(d, Gauge.constant(0.3))
        assert is_fine(d, Gauge.constant(0.2))  # worst one-sided gap is 0.125
        assert not is_fine(d, Gauge.constant(0.1))

    def test_strictness_at_boundary(self):
        # left tags: v - s equals the full cell width, so width == delta fails
        d = make_uniform(0.0, 1.0, 4, "left")
        assert not is_fine(d, Gauge.constant(0.25))
        assert is_fine(d, Gauge.constant(0.2500001))

    def test_exact_division(self):
        d = make_uniform(0, 1, 4, "midpoint")
        assert is_fine(d, Gauge.constant(Fraction(3, 10)))
        assert not is_fine(d, Gauge.constant(Fraction(1, 10)))


class TestDeltaFineDivision:
    def test_constant_gauge_uses_few_cells(self):
        d = delta_fine_division(0.0, 1.0, Gauge.constant(0.3))
        assert is_fine(d, Gauge.constant(0.3))
        assert d.n <= 8

    def test_shrinking_gauge_anchors_origin(self):
        # delta(s) = s/2 off the origin: no cell ]u, v] with u > 0 can hold a
        # fine tag near 0, so the first cell must be tagged at 0 itself
        def width(s):
            return 0.1 if s <= 0.0 else min(s / 2.0, 0.1)

        gauge = Gauge.from_function(width)
        d = delta_fine_division(0.0, 1.0, gauge)
        assert is_fine(d, gauge)
        assert d.tags[0] == 0.0

    def test_output_deterministic(self):
        gauge = Gauge.from_function(lambda s: 0.05 + s / 10.0)
        d1 = delta_fine_division(0.0, 1.0, gauge)
        d2 = delta_fine_division(0.0, 1.0, gauge)
        assert np.array_equal(d1.tags, d2.tags)
        assert np.array_equal(d1.lefts, d2.lefts)

    def test_depth_cap_raises(self):
        # every tag in [0.5, 1] demands width 1e-12, so cells inside that
        # region keep splitting past any depth cap
        gauge = Gauge.from_function(lambda s: 1e-12 if s >= 0.5 else 1.0)
        with pytest.raises(GaugeTooDemandingError) as err:
            delta_fine_division(0.0, 1.0, gauge, depth_cap=8)
        assert err.value.depth == 8

    def test_selector_order_changes_tags(self):
        gauge = Gauge.constant(0.25)
        d_left = delta_fine_division(0.0, 1.0, gauge, selectors=("left",))
        d_right = delta_fine_division(0.0, 1.0, gauge, selectors=("right",))
        assert d_left.tags[0] == d_left.lefts[0]
        assert d_right.tags[-1] == d_right.rights[-1]

    def test_exact_regime(self):
        d = delta_fine_division(Fraction(0), Fraction(1), Gauge.constant(Fraction(3, 10)))
        assert d.exact
        assert is_fine(d, Gauge.constant(Fraction(3, 10)))

    @settings(max_examples=40, deadline=None)
    @given(
        delta=hst.floats(min_value=1e-3, max_value=2.0),
        slope=hst.floats(min_value=0.0, max_value=0.5),
    )
    def test_property_output_is_fine(self, delta, slope):
        # constant floor plus Lipschitz ramp, always positive
        gauge = Gauge.from_function(lambda s, d0=delta, m=slope: d0 + m * s)
        division = delta_fine_division(0.0, 1.0, gauge)
        assert is_fine(division, gauge)

    @settings(max_examples=20, deadline=None)
    @given(delta=hst.floats(min_value=5e-3, max_value=0.5))
    def test_property_constant_gauge_fine(self, delta):
        gauge = Gauge.constant(delta)
        division = delta_fine_division(0.0, 1.0, gauge)
        assert is_fine(division, gauge)


class TestBisectRefine:
    def test_doubles_cell_count(self):
        d = make_uniform(0.0, 1.0, 4, "left")
        r = bisect_refine(d)
        assert r.n == 8
        assert r.domain == d.domain
        np.testing.assert_allclose(np.diff(r.lefts), 0.125)

    def test_exact_regime_halves_exactly(self):
        d = make_uniform(0, 1, 2, "left")
        r = bisect_refine(d, "midpoint")
        assert r.exact and r.n == 4
        assert list(r.lefts) == [Fraction(k, 4) for k in range(4)]

    @settings(max_examples=25, deadline=None)
    @given(n=hst.integers(min_value=1, max_value=32))
    def test_property_refinement_spans(self, n):
        d = make_uniform(0.0, 1.0, n, "midpoint")
        r = bisect_refine(d, "right")
        assert r.n == 2 * n
        assert r.lefts[0] == 0.0 and r.rights[-1] == 1.0


class TestRiemannSum:
    def test_h3_on_two_midpoint_cells(self):
        h3 = make_integrand(
            lambda s: s * s, length_factor(), "tag",
            point_batch=lambda xs: xs * xs, name="h3",
        )
        d = make_uniform(0.0, 1.0, 2, "midpoint")
        assert riemann_sum(h3, d) == pytest.approx(0.3125)

    def test_exact_sum_is_a_fraction(self):
        h3 = make_integrand(lambda s: s * s, length_factor(), "tag", name="h3")
        d = make_uniform(0, 1, 2, "midpoint")
        total = riemann_sum(h3, d)
        assert total == Fraction(5, 16)

    def test_batch_and_scalar_paths_agree(self):
        h3_batched = make_integrand(
            lambda s: s * s, length_factor(), "tag",
            point_batch=lambda xs: xs * xs,
        )
        h3_scalar = make_integrand(lambda s: s * s, length_factor(), "tag")
        d = make_uniform(0.0, 1.0, 64, "midpoint")
        assert riemann_sum(h3_batched, d) == pytest.approx(
            riemann_sum(h3_scalar, d), abs=1e-14
        )

    def test_eval_failure_wrapped_with_cell_context(self):
        h = make_integrand(lambda s: 1.0 / s, length_factor(), "left-endpoint")
        d = make_uniform(0.0, 1.0, 4, "left")
        with pytest.raises(IntegrandEvalError) as err:
            riemann_sum(h, d)
        assert err.value.tag == 0.0

    def test_telescoping_additivity(self):
        g = increments_of(lambda u: math.sin(u), name="d(sin)")
        h = make_integrand(None, g, "interval-only")
        coarse = make_uniform(0.0, 2.0, 1, "left")
        fine = make_uniform(0.0, 2.0, 64, "left")
        assert riemann_sum(h, coarse) == pytest.approx(riemann_sum(h, fine))

    def test_non_additive_square_length(self):
        h4 = make_integrand(None, length_squared_factor(), "interval-only")
        coarse = make_uniform(0.0, 1.0, 1, "left")
        refined = bisect_refine(coarse)
        assert riemann_sum(h4, coarse) == 1.0
        assert riemann_sum(h4, refined) == 0.5

    @settings(max_examples=25, deadline=None)
    @given(
        n_left=hst.integers(min_value=1, max_value=12),
        n_right=hst.integers(min_value=1, max_value=12),
        cut=hst.floats(min_value=0.2, max_value=0.8),
    )
    def test_property_additive_over_domain_split(self, n_left, n_right, cut):
        h = make_integrand(None, increments_of(lambda u: u * u * u), "interval-only")
        whole = riemann_sum(h, make_uniform(0.0, 1.0, n_left + n_right, "left"))
        left = riemann_sum(h, make_uniform(0.0, cut, n_left, "left"))
        right = riemann_sum(h, make_uniform(cut, 1.0, n_right, "left"))
        assert left + right == pytest.approx(whole, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=hst.integers(min_value=1, max_value=64))
    def test_property_tag_independent_for_interval_only(self, n):
        h = make_integrand(None, length_squared_factor(), "interval-only")
        sums = {
            rule: riemann_sum(h, make_uniform(0.0, 1.0, n, rule))
            for rule in ("left", "midpoint", "right")
        }
        assert sums["left"] == sums["midpoint"] == sums["right"]
