"""Division builders, delta-fineness, bisection, Riemann sums."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gaugelab.catalog import dirichlet_factor, step_at
from gaugelab.cells import Gauge, Interval
from gaugelab.divisions import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_SELECTORS,
    FLOAT_SHIFT,
    MAX_LEVEL,
    TAG_RULES,
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
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtScalar
from gaugelab.expr import as_function, parse
from gaugelab.integrand import (
    BurkillIntegrand,
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

    def test_bounds_validated(self):
        with pytest.raises(ArgumentError):
            RefinementSchedule(5, 4)

    def test_stop_bounded_by_max_level(self):
        assert list(RefinementSchedule(0, MAX_LEVEL).levels())[-1] == MAX_LEVEL
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            RefinementSchedule(4, MAX_LEVEL + 1)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            RefinementSchedule(4, 40)


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
            return np.where(s <= 0.0, 0.1, np.minimum(s / 2.0, 0.1))

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
        gauge = Gauge.from_function(lambda s: np.where(s >= 0.5, 1e-12, 1.0))
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
        h3 = make_integrand(lambda s: s * s, length_factor(), "tag", name="h3")
        d = make_uniform(0.0, 1.0, 2, "midpoint")
        assert riemann_sum(h3, d) == pytest.approx(0.3125)

    def test_exact_sum_is_a_fraction(self):
        h3 = make_integrand(lambda s: s * s, length_factor(), "tag", name="h3")
        d = make_uniform(0, 1, 2, "midpoint")
        total = riemann_sum(h3, d)
        assert total == Fraction(5, 16)

    def test_eval_failure_wrapped_with_cell_context(self):
        h = make_integrand(as_function(parse("1/s"), "s"), length_factor(), "left-endpoint")
        d = make_uniform(0.0, 1.0, 4, "left")
        with pytest.raises(IntegrandEvalError) as err:
            riemann_sum(h, d)
        assert err.value.tag == 0.0

    def test_array_fault_names_first_failing_cell(self):
        # left tags 0, 1/8, ..., 7/8: the cell tagged 1/2 is the fifth of eight
        h = make_integrand(as_function(parse("1/(s - 0.5)"), "s"), length_factor(), "tag")
        with pytest.raises(IntegrandEvalError) as err:
            riemann_sum(h, make_uniform(0.0, 1.0, 8, "left"))
        assert (err.value.tag, err.value.lo, err.value.hi) == (0.5, 0.5, 0.625)
        assert "]0.5, 0.625]" in str(err.value)

    def test_fault_of_no_single_cell_is_reraised(self):
        def rule(s, u, v):
            if len(s) > 1:
                raise RuntimeError("needs one cell at a time")
            return v - u

        h = BurkillIntegrand("one-at-a-time", rule)
        with pytest.raises(RuntimeError, match="one cell at a time"):
            riemann_sum(h, make_uniform(0.0, 1.0, 8, "left"))

    def test_telescoping_additivity(self):
        g = increments_of(lambda u: np.sin(u), name="d(sin)")
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


# --------------------------------------------------------------------------
# The exact regime against per-cell references
# --------------------------------------------------------------------------
#
# Exact divisions are object arrays that every layer handles with the same
# array body as float ones.  The references below are the per-cell loops
# the exact regime used to run, kept here to pin the array bodies to them
# in value and in Python type.

HALF = Fraction(1, 2)


def _cells(division):
    return zip(division.tags.tolist(), division.lefts.tolist(), division.rights.tolist())


def _per_cell_sum(h, division):
    total = 0
    for s, u, v in _cells(division):
        total = total + h(s, u, v)
    return total


def _per_cell_fine(division, width):
    return all(s - u < width(s) and v - s < width(s) for s, u, v in _cells(division))


def _dfs_division(a, b, width, selectors, depth_cap):
    """Depth-first bisection on exact scalars, one gauge call per candidate:
    (tags, lefts, rights) lists, or GaugeTooDemandingError for the first
    cell left unresolved at the depth cap."""
    tags, lefts, rights = [], [], []

    def visit(u, v, depth):
        for selector in selectors:
            s = {"left": u, "right": v, "midpoint": u + (v - u) * HALF}[selector]
            w = width(s)
            if s - u < w and v - s < w:
                tags.append(s)
                lefts.append(u)
                rights.append(v)
                return
        if depth >= depth_cap:
            raise GaugeTooDemandingError(u, v, depth)
        m = u + (v - u) * HALF
        visit(u, m, depth + 1)
        visit(m, v, depth + 1)

    visit(a, b, 0)
    return tags, lefts, rights


_fractions = hst.fractions(min_value=-2, max_value=2, max_denominator=12)
_widths = hst.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=12)


@hst.composite
def _exact_bounds(draw):
    a = draw(_fractions)
    if draw(hst.booleans()):
        a = a + IRRATIONAL_SHIFT
    return a, a + draw(_widths)


_EXACT_INTEGRANDS = (
    make_integrand(step_at(HALF), dirichlet_factor(), "tag"),
    make_integrand(lambda s: Fraction(2), dirichlet_factor(), "tag"),
    make_integrand(lambda s: s, length_factor(), "tag"),
)
_BUILDERS = (make_uniform, make_shifted_uniform)


class TestExactRegimeMatchesPerCell:
    @settings(max_examples=60, deadline=None)
    @given(
        bounds=_exact_bounds(),
        n=hst.integers(min_value=1, max_value=64),
        build=hst.sampled_from(_BUILDERS),
        rule=hst.sampled_from(TAG_RULES),
    )
    def test_riemann_sum_value_and_type(self, bounds, n, build, rule):
        division = build(*bounds, n, rule)
        assert division.exact and division.tags.dtype == object
        for h in _EXACT_INTEGRANDS:
            got, want = riemann_sum(h, division), _per_cell_sum(h, division)
            assert got == want and type(got) is type(want)

    @settings(max_examples=60, deadline=None)
    @given(
        bounds=_exact_bounds(),
        n=hst.integers(min_value=1, max_value=64),
        build=hst.sampled_from(_BUILDERS),
        rule=hst.sampled_from(TAG_RULES),
        # half a cell and a whole cell put widths on the strict boundary
        scale=hst.sampled_from([HALF, Fraction(1)])
        | hst.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=8),
        slope=hst.fractions(min_value=0, max_value=2, max_denominator=8),
    )
    def test_is_fine(self, bounds, n, build, rule, scale, slope):
        a, b = bounds
        division = build(a, b, n, rule)
        delta = (b - a) * Fraction(1, n) * scale
        constant = lambda s: delta
        assert is_fine(division, Gauge.constant(delta)) == _per_cell_fine(division, constant)
        width = lambda s: delta + slope * abs(s - a)
        assert is_fine(division, Gauge.from_function(width)) == _per_cell_fine(division, width)


class TestExactFunctionalGauge:
    @settings(max_examples=40, deadline=None)
    @given(
        bounds=_exact_bounds(),
        floor=hst.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64),
        slope=hst.fractions(min_value=0, max_value=2, max_denominator=8),
        at=hst.fractions(min_value=0, max_value=1, max_denominator=16),
        selectors=hst.permutations(TAG_RULES).flatmap(
            lambda p: hst.integers(1, 3).map(lambda k: tuple(p[:k]))
        ),
    )
    def test_same_cells_as_depth_first_bisection(self, bounds, floor, slope, at, selectors):
        # the gauge narrows toward the point `at` of the domain
        a, b = bounds
        pole = a + (b - a) * at
        width = lambda s: floor + slope * abs(s - pole)
        division = delta_fine_division(a, b, Gauge.from_function(width), selectors=selectors)
        tags, lefts, rights = _dfs_division(a, b, width, selectors, DEFAULT_DEPTH_CAP)
        assert division.exact and division.domain == Interval(a, b)
        for got, want in zip((division.tags, division.lefts, division.rights),
                             (tags, lefts, rights)):
            assert got.tolist() == want
            assert [type(x) for x in got.tolist()] == [type(x) for x in want]

    @pytest.mark.parametrize("a", [Fraction(0), IRRATIONAL_SHIFT])
    def test_too_demanding_names_the_same_cell(self, a):
        # widths collapse above a + 1/3: cells there split past the cap
        b = a + 1
        tiny = Fraction(1, 10**9)
        width = lambda s: tiny + (1 - tiny) * (s < a + Fraction(1, 3))
        with pytest.raises(GaugeTooDemandingError) as want:
            _dfs_division(a, b, width, DEFAULT_SELECTORS, 6)
        with pytest.raises(GaugeTooDemandingError) as got:
            delta_fine_division(a, b, Gauge.from_function(width), depth_cap=6)
        assert (got.value.lo, got.value.hi, got.value.depth) == (
            want.value.lo, want.value.hi, want.value.depth
        )
        assert str(got.value) == str(want.value)
