"""Division builders, delta-fineness, bisection, Riemann sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from gaugelab import divisions
from gaugelab.catalog import dirichlet_factor, get_entry, step_at
from gaugelab.cells import Gauge, TaggedDivision
from gaugelab.divisions import (
    DEFAULT_DEPTH_CAP,
    FLOAT_SHIFT,
    MAX_LEVEL,
    TAG_RULES,
    RefinementSchedule,
    _delta_fine,
    _delta_fine_batched,
    _shifted_edges,
    _uniform_edges,
    bisect_refine,
    delta_fine_division,
    make_shifted_uniform,
    make_uniform,
    riemann_sum,
)
from gaugelab.errors import (
    ArgumentError,
    GaugeContractError,
    GaugeTooDemandingError,
    IntegrandEvalError,
)
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtArray, QuadExtScalar
from gaugelab.expr import as_function, parse
from gaugelab.integrators import ANCHORED_STRATEGIES, jump_anchoring_gauge
from gaugelab.integrand import (
    BurkillIntegrand,
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
    midpoint,
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

    @pytest.mark.parametrize("start, stop", [(4.5, 6), (4, 6.0), ("4", 6), (None, 6)])
    def test_levels_must_be_integers(self, start, stop):
        with pytest.raises(ArgumentError, match="must be an integer"):
            RefinementSchedule(start, stop)

    def test_integer_levels_are_read_as_ints(self):
        sched = RefinementSchedule(np.int64(2), np.int8(5))
        assert (type(sched.start), type(sched.stop)) == (int, int)
        assert sched == RefinementSchedule(2, 5)

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

    @pytest.mark.parametrize("build", [make_uniform, make_shifted_uniform])
    @pytest.mark.parametrize("n", [4.5, 2.9999, 4.0, Fraction(4), "4", 2.0**40 + 0.5])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (Fraction(0), Fraction(1))])
    def test_non_integral_cell_counts_are_refused(self, build, n, a, b):
        with pytest.raises(ArgumentError, match="cell count must be an integer"):
            build(a, b, n)

    def test_integer_cell_counts_of_any_type(self):
        for n in (3, np.int64(3), np.uint8(3)):
            _same_points(make_uniform(0.0, 1.0, n).edges, np.linspace(0.0, 1.0, 4))

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


class TestGridSharing:
    # Grid edges are read-only, so "left" and "right" tags are views of them
    # and no builder copies them.

    @pytest.mark.parametrize("build", [make_uniform, make_shifted_uniform])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (Fraction(0), Fraction(1))])
    def test_grid_edges_are_read_only(self, build, a, b):
        for rule in TAG_RULES:
            d = build(a, b, 8, rule)
            assert not d.edges.flags.writeable
            with pytest.raises(ValueError):
                d.edges[1] = d.edges[2]
        assert not bisect_refine(build(a, b, 4, "left")).edges.flags.writeable

    @pytest.mark.parametrize("build", [make_uniform, make_shifted_uniform])
    def test_endpoint_tags_are_views_of_the_edges(self, build):
        for rule, cells in (("left", slice(None, -1)), ("right", slice(1, None))):
            d = build(0.0, 1.0, 8, rule)
            assert np.shares_memory(d.tags, d.edges)
            assert np.array_equal(d.tags, d.edges[cells])
            with pytest.raises(ValueError):
                d.tags[0] = 0.5
        mid = build(0.0, 1.0, 8, "midpoint")
        assert not np.shares_memory(mid.tags, mid.edges)

    @pytest.mark.parametrize("n", [1, 2, 7, 1024])
    def test_float_grids_keep_their_bits(self, n):
        # the builders compute in place what these expressions compute
        j = np.arange(1, n, dtype=float)
        shifted = make_shifted_uniform(0.25, 3.0, n).edges
        assert shifted[0] == 0.25 and shifted[-1] == 3.0
        assert shifted[1:-1].tobytes() == (0.25 + (3.0 - 0.25) * ((j + FLOAT_SHIFT) / n)).tobytes()
        edges = np.linspace(0.25, 3.0, n + 1)
        mids = make_uniform(0.25, 3.0, n, "midpoint").tags
        assert mids.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()


def is_fine(division, gauge: Gauge) -> bool:
    """Whether every cell satisfies s - u < delta(s) and v - s < delta(s).

    Both inequalities are strict.  A gauge that evaluates non-positive
    raises GaugeContractError rather than returning False.
    """
    tags, lefts, rights = division.tags, division.lefts, division.rights
    widths = gauge.evaluate_batch(tags)
    return bool(np.all(tags - lefts < widths) and np.all(rights - tags < widths))


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

    def test_constant_gauge_deeper_than_max_level_is_refused(self, monkeypatch):
        # a 1e-15 gauge would need 2**50 cells: refused before allocating
        with pytest.raises(GaugeTooDemandingError) as err:
            delta_fine_division(0.0, 1.0, Gauge.constant(1e-15))
        assert (err.value.lo, err.value.hi, err.value.depth) == (0.0, 1.0, MAX_LEVEL)
        monkeypatch.setattr(divisions, "MAX_LEVEL", 4)
        gauge = Gauge.constant(2.0 ** -4.5)
        # midpoint tags are fine at depth 4, endpoint tags only at depth 5
        assert delta_fine_division(0.0, 1.0, gauge, ("midpoint",)).n == 16
        assert delta_fine_division(0.0, 1.0, gauge, ("left", "midpoint")).n == 16
        monkeypatch.setattr(divisions, "_uniform_edges", None)  # never reached
        for selectors in (("left",), ("right", "left")):
            with pytest.raises(GaugeTooDemandingError) as err:
                delta_fine_division(0.0, 1.0, gauge, selectors)
            assert str(err.value).endswith("no fine tag for ]0.0, 1.0] within depth 4")

    def test_bisection_keeps_at_most_a_max_level_grid_open(self, monkeypatch):
        monkeypatch.setattr(divisions, "MAX_LEVEL", 4)
        sizes = []

        def tiny(s):
            sizes.append(len(s))
            return np.full(len(s), 1e-12)

        # every cell stays open: depth 4 holds 16 open cells, and splitting
        # them would open 32
        with pytest.raises(GaugeTooDemandingError) as err:
            delta_fine_division(0.0, 1.0, Gauge.from_function(tiny))
        assert (err.value.lo, err.value.hi, err.value.depth) == (0.0, 1 / 16, 4)
        assert max(sizes) == 16
        # a gauge that shrinks toward one point keeps few cells open, so its
        # bisection goes deeper than MAX_LEVEL
        division = delta_fine_division(
            0.0, 1.0, Gauge.from_function(lambda s: np.where(s <= 0.0, 1e-9, s / 2.0)))
        assert division.lefts[1] < 2.0 ** -10

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
        assert r.edges[0] == d.edges[0] and r.edges[-1] == d.edges[-1]
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
# Exact divisions are QuadExtArray columns that every layer handles with
# the same array body as float ones.  The references below are the per-cell
# loops the exact regime used to run, kept here to pin the array bodies to
# them in value and in Python type.

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
    """Depth-first bisection on scalars, one gauge call per candidate:
    (tags, lefts, rights) lists, or GaugeTooDemandingError for the first
    cell left unresolved at the depth cap."""
    tags, lefts, rights = [], [], []

    def visit(u, v, depth):
        for selector in selectors:
            s = {"left": u, "right": v, "midpoint": midpoint(u, v)}[selector]
            w = width(s)
            if s - u < w and v - s < w:
                tags.append(s)
                lefts.append(u)
                rights.append(v)
                return
        if depth >= depth_cap:
            raise GaugeTooDemandingError(u, v, depth)
        m = midpoint(u, v)
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
        assert division.exact and isinstance(division.tags, QuadExtArray)
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
        exact=hst.booleans(),
    )
    def test_same_cells_as_depth_first_bisection(
        self, bounds, floor, slope, at, selectors, exact
    ):
        # the gauge narrows toward the point `at` of the domain; float bounds
        # run the builder's float64 branch against float scalars
        a, b = bounds
        if not exact:
            a, b, floor, slope, at = map(float, (a, b, floor, slope, at))
        pole = a + (b - a) * at
        width = lambda s: floor + slope * abs(s - pole)
        division = delta_fine_division(a, b, Gauge.from_function(width), selectors=selectors)
        tags, lefts, rights = _dfs_division(a, b, width, selectors, DEFAULT_DEPTH_CAP)
        assert division.exact == exact
        assert division.edges[0] == a and division.edges[-1] == b
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
            _dfs_division(a, b, width, TAG_RULES, 6)
        with pytest.raises(GaugeTooDemandingError) as got:
            delta_fine_division(a, b, Gauge.from_function(width), depth_cap=6)
        assert (got.value.lo, got.value.hi, got.value.depth) == (
            want.value.lo, want.value.hi, want.value.depth
        )
        assert str(got.value) == str(want.value)


# --------------------------------------------------------------------------
# Open-cell bisection against the whole-array builder
# --------------------------------------------------------------------------


def _evaluated_once(got_calls, want_calls):
    """Check the bisection's gauge calls (the points of each, a float64 or
    `object` array) against the (depth, points) of each call of a
    selector-by-selector reference.  No point is evaluated twice, and the
    points evaluated are the reference's.  Each call is on points of one
    depth, the one at which the reference first evaluates them; depth 0
    makes at most one call per selector, each on one point, and every later
    depth at most one."""
    want = np.concatenate([points for _, points in want_calls])
    want_depths = np.repeat([d for d, _ in want_calls], [len(p) for _, p in want_calls])
    points, first = np.unique(want, return_index=True)
    got = np.concatenate(got_calls)
    assert len(np.unique(got)) == len(got)
    assert np.array_equal(np.sort(got), points)
    depths = []
    for call in got_calls:
        call_depths = want_depths[first[np.searchsorted(points, call)]]
        assert (call_depths == call_depths[0]).all()
        depths.append(call_depths[0])
    assert depths == sorted(depths)
    later = [d for d in depths if d > 0]
    assert len(later) == len(set(later))
    assert depths.count(0) <= len(TAG_RULES)
    assert all(len(points) == 1 for points, d in zip(got_calls, depths) if d == 0)


def _whole_array_division(a, b, width, selectors, depth_cap):
    """Breadth-first bisection over whole arrays, as the builder ran before
    it kept only the open cells: every depth inserts the split cells'
    midpoints into the full edge, tag and done arrays.  (tags, edges, the
    (depth, points) of each gauge call) or GaugeTooDemandingError."""
    dtype = object if isinstance(a, (Fraction, QuadExtScalar)) else float
    edges = np.array([a, b], dtype=dtype)
    tags = np.empty(1, dtype=dtype)
    done = np.zeros(1, dtype=bool)
    calls = []
    for depth in range(depth_cap + 1):
        cells = np.flatnonzero(~done)
        us, vs = edges[cells], edges[cells + 1]
        undecided = np.ones(len(cells), dtype=bool)
        for selector in selectors:
            cand = {"left": us, "right": vs, "midpoint": midpoint(us, vs)}[selector]
            calls.append((depth, np.array(cand)))
            widths = np.asarray(width(cand), dtype=dtype)
            fine = (cand - us < widths) & (vs - cand < widths) & undecided
            tags[cells[fine]] = cand[fine]
            undecided &= ~fine
            if not np.any(undecided):
                return tags, edges, calls
        done[cells] = ~undecided
        split = cells[undecided]
        if depth == depth_cap:
            raise GaugeTooDemandingError(edges[split[0]], edges[split[0] + 1], depth)
        edges = np.insert(edges, split + 1, midpoint(edges[split], edges[split + 1]))
        tags = np.insert(tags, split + 1, tags[split])
        done = np.insert(done, split + 1, False)


class TestOpenCellBisection:
    @settings(max_examples=60, deadline=None)
    @given(
        bounds=_exact_bounds(),
        floor=hst.fractions(min_value=Fraction(1, 1024), max_value=1, max_denominator=1024),
        slope=hst.fractions(min_value=0, max_value=2, max_denominator=8),
        power=hst.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        at=hst.fractions(min_value=0, max_value=1, max_denominator=16),
        selectors=hst.permutations(TAG_RULES).flatmap(
            lambda p: hst.integers(1, 3).map(lambda k: tuple(p[:k]))
        ),
        exact=hst.booleans(),
        depth_cap=hst.sampled_from([8, 20, DEFAULT_DEPTH_CAP]),
    )
    def test_same_division_and_gauge_calls(
        self, bounds, floor, slope, power, at, selectors, exact, depth_cap
    ):
        a, b = bounds
        if not exact:
            a, b, floor, slope, at = map(float, (a, b, floor, slope, at))
        pole = a + (b - a) * at
        if exact or power == 1:
            width = lambda s: floor + slope * abs(s - pole)
        else:
            width = lambda s: floor + slope * np.abs(s - pole) ** float(power)
        calls = []

        def logged(s):
            calls.append(np.array(s))
            return width(s)

        try:
            want = _whole_array_division(a, b, width, selectors, depth_cap)
        except GaugeTooDemandingError as err:
            with pytest.raises(GaugeTooDemandingError) as got:
                delta_fine_division(a, b, Gauge.from_function(logged), selectors, depth_cap)
            assert str(got.value) == str(err)
            return
        division = delta_fine_division(a, b, Gauge.from_function(logged), selectors, depth_cap)
        tags, edges, want_calls = want
        for got_column, want_column in ((division.tags, tags), (division.edges, edges)):
            assert got_column.dtype == want_column.dtype
            if exact:
                assert got_column.tolist() == want_column.tolist()
                assert [type(x) for x in got_column] == [type(x) for x in want_column]
            else:
                assert got_column.tobytes() == want_column.tobytes()
        _evaluated_once(calls, want_calls)

    def test_deep_cap_keeps_exact_positions(self):
        # past depth 62 the position keys outgrow int64: a gauge that admits
        # only cells shorter than 2**-70 at 0 must still put them in order
        tiny = Fraction(1, 2**70)
        width = lambda s: np.maximum(s * Fraction(1, 4), tiny)
        d = delta_fine_division(Fraction(0), Fraction(1), Gauge.from_function(width), depth_cap=80)
        tags, edges, _ = _whole_array_division(Fraction(0), Fraction(1), width, TAG_RULES, 80)
        assert d.tags.tolist() == tags.tolist() and d.edges.tolist() == edges.tolist()
        assert d.edges[1] == tiny  # a cell at depth 70


# --------------------------------------------------------------------------
# Grid edges: one body per family, whole grids and slices
# --------------------------------------------------------------------------


def _linspace_like_edges(a, b, n):
    """The whole uniform grid as np.linspace gives it, and for exact bounds
    as a + (b - a) * (j / n) with the last point b."""
    if isinstance(a, float):
        return np.linspace(a, b, n + 1)
    edges = a + (b - a) * (np.arange(n + 1, dtype=object) * Fraction(1, n))
    edges[-1] = b
    return edges


def _whole_shifted_edges(a, b, n):
    """The whole shifted grid as a + (b - a) * ((j + theta) / n) inside,
    with the ends a and b."""
    theta = FLOAT_SHIFT if isinstance(a, float) else IRRATIONAL_SHIFT
    j = np.arange(1, n, dtype=float if isinstance(a, float) else object)
    if isinstance(a, float):
        inner = a + (b - a) * ((j + theta) / n)
    else:
        inner = a + (b - a) * ((j + theta) * Fraction(1, n))
    return np.concatenate(([a], inner, [b])).astype(inner.dtype)


def _same_points(got, want):
    assert got.dtype == want.dtype
    if got.dtype == object:
        assert got.tolist() == want.tolist()
        assert [type(x) for x in got.tolist()] == [type(x) for x in want.tolist()]
    else:
        assert got.tobytes() == want.tobytes()


_float_bounds = hst.tuples(
    hst.floats(min_value=-1e3, max_value=1e3), hst.floats(min_value=1e-9, max_value=1e3)
).map(lambda t: (t[0], t[0] + t[1])).filter(lambda ab: ab[0] < ab[1])


class TestGridEdges:
    @settings(max_examples=150, deadline=None)
    @given(
        bounds=_float_bounds | _exact_bounds(),
        n=hst.integers(min_value=1, max_value=3000),
        cut=hst.tuples(hst.floats(0, 1), hst.floats(0, 1)),
    )
    def test_whole_grids_and_slices(self, bounds, n, cut):
        a, b = bounds
        if not isinstance(a, float):
            n = min(n, 60)  # exact scalars are slow, not different
        lo, hi = sorted(int(c * n) for c in cut)
        hi = max(hi, lo + 1)
        if hi > n:
            lo, hi = n - 1, n
        for body, whole in ((_uniform_edges, _linspace_like_edges),
                            (_shifted_edges, _whole_shifted_edges)):
            full = body(a, b, n, 0, n)
            _same_points(full, whole(a, b, n))
            _same_points(body(a, b, n, lo, hi), full[lo:hi + 1])

    @pytest.mark.parametrize("n", [7, 8, 1024, 2**20])
    def test_underflowing_step_is_linspace_and_refused(self, n):
        # (b - a) / n rounds to 0, and np.linspace divides before it scales
        a, b = 0.0, 3 * 5e-324
        assert (b - a) / n == 0
        want = np.linspace(a, b, n + 1)
        _same_points(_uniform_edges(a, b, n, 0, n), want)
        _same_points(_uniform_edges(a, b, n, n // 2, n), want[n // 2:])
        with pytest.raises(ArgumentError) as err:
            TaggedDivision(want[:-1], want)
        with pytest.raises(ArgumentError) as got:
            make_uniform(a, b, n, "left")
        assert str(got.value) == str(err.value)


# --------------------------------------------------------------------------
# One bisection shared by the selector orders of one selector set
# --------------------------------------------------------------------------


def _call_key(points):
    return repr(points.tolist())


# selector orders of one selector set: the anchored pair, or one to four
# orders of a set of one to three selectors
_orders = hst.just(tuple(s.selectors for s in ANCHORED_STRATEGIES)) | (
    hst.permutations(TAG_RULES).flatmap(
        lambda p: hst.integers(1, 3).flatmap(
            lambda k: hst.lists(hst.permutations(p[:k]).map(tuple), min_size=1, max_size=4)
        )
    ).map(tuple)
)


class TestSharedBisection:
    @settings(max_examples=60, deadline=None)
    @given(
        bounds=_exact_bounds(),
        floor=hst.fractions(min_value=Fraction(1, 1024), max_value=1, max_denominator=1024),
        slope=hst.fractions(min_value=0, max_value=2, max_denominator=8),
        power=hst.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        at=hst.fractions(min_value=0, max_value=1, max_denominator=16),
        orders=_orders,
        exact=hst.booleans(),
        depth_cap=hst.sampled_from([8, 20, DEFAULT_DEPTH_CAP]),
    )
    def test_same_as_separate_builds(
        self, bounds, floor, slope, power, at, orders, exact, depth_cap
    ):
        a, b = bounds
        if not exact:
            a, b, floor, slope, at = map(float, (a, b, floor, slope, at))
        pole = a + (b - a) * at
        if exact or power == 1:
            width = lambda s: floor + slope * abs(s - pole)
        else:
            width = lambda s: floor + slope * np.abs(s - pole) ** float(power)

        def logged(calls):
            def fn(s):
                calls.append(_call_key(s))
                return width(s)
            return Gauge.from_function(fn)

        separate, separate_calls = [], []
        try:
            for order in orders:
                separate.append(delta_fine_division(a, b, logged(separate_calls), order, depth_cap))
        except GaugeTooDemandingError as err:
            with pytest.raises(GaugeTooDemandingError) as got:
                _delta_fine_batched(a, b, logged([]), orders, depth_cap)
            assert str(got.value) == str(err)
            return
        calls = []
        edges, columns = _delta_fine_batched(a, b, logged(calls), orders, depth_cap)
        assert not edges.flags.writeable
        for division, tags in zip(separate, columns):
            _same_points(edges, division.edges)
            _same_points(tags, division.tags)
        # each call is one a separate build makes, made once, as the open
        # cells of one depth are the same for every order
        assert len(calls) == len(set(calls))
        assert set(calls) == set(separate_calls)
        if len(orders) == 1:
            assert calls == separate_calls

    def test_anchored_orders_share_edges_and_halve_the_calls(self):
        width = lambda s: np.where(s <= 0.0, 1e-3, np.minimum(s / 2.0, 0.25))
        calls = []

        def logged(s):
            calls.append(s.tolist())
            return width(s)

        orders = tuple(s.selectors for s in ANCHORED_STRATEGIES)
        gauge = Gauge.from_function(logged)
        edges, columns = _delta_fine(0.0, 1.0, gauge, orders, DEFAULT_DEPTH_CAP)
        assert not edges.flags.writeable
        shared = len(calls)
        for order, tags in zip(orders, columns):
            alone = delta_fine_division(0.0, 1.0, Gauge.from_function(logged), order)
            _same_points(alone.edges, edges)
            _same_points(alone.tags, tags)
        # the bisection runs to depth 10: depth 0 makes one call for each
        # selector, on one point each, and every later depth one, on its
        # cells' midpoints; each order alone makes the same 13 calls
        assert (shared, len(calls) - shared) == (13, 26)
        assert [len(points) for points in calls[:shared]] == [1, 1, 1, 2, 4] + [2] * 8
        assert columns[0][0] == 0.0 and columns[1][0] == 0.0

    @pytest.mark.parametrize("orders, n, rules", [
        # a delta of 0.3 accepts midpoint tags on halves, endpoint tags on
        # quarters
        (tuple(s.selectors for s in ANCHORED_STRATEGIES), 2, ("midpoint", "midpoint")),
        ((("left", "right"), ("right", "left")), 4, ("left", "right")),
        ((("right",),), 4, ("right",)),
    ], ids=["anchored", "left-right", "lone-right"])
    @pytest.mark.parametrize("a, b, delta", [
        (0.0, 1.0, 0.3),
        (Fraction(0), Fraction(1), Fraction(3, 10)),
    ], ids=["float", "exact"])
    def test_constant_gauges_share_one_uniform_grid(
        self, monkeypatch, orders, n, rules, a, b, delta
    ):
        grids = []

        def counted(*args):
            grids.append(args)
            return _uniform_edges(*args)

        gauge = Gauge.constant(delta)
        monkeypatch.setattr(divisions, "_uniform_edges", counted)
        edges, columns = _delta_fine(a, b, gauge, orders, DEFAULT_DEPTH_CAP)
        assert len(grids) == 1 and not edges.flags.writeable
        for order, rule, tags in zip(orders, rules, columns):
            want = make_uniform(a, b, n, rule)
            _same_points(want.edges, edges)
            _same_points(want.tags, tags)
            alone = delta_fine_division(a, b, gauge, order)
            _same_points(alone.edges, edges)
            _same_points(alone.tags, tags)

    def test_orders_of_different_sets_are_refused(self):
        gauge = Gauge.from_function(lambda s: 0.1 + s)
        with pytest.raises(ArgumentError, match="one selector set"):
            _delta_fine(0.0, 1.0, gauge, (("left",), ("left", "right")), DEFAULT_DEPTH_CAP)
        with pytest.raises(ArgumentError, match="a < b"):
            _delta_fine(1.0, 0.0, gauge, (("left", "right"), ("right", "left")), DEFAULT_DEPTH_CAP)


# --------------------------------------------------------------------------
# Constant-gauge depth and bisection step against the code they replaced
# --------------------------------------------------------------------------
#
# The depth search starts from the exponents of span and delta where it
# built a Fraction per depth and selector, and the bisection step makes
# fewer numpy calls (an endpoint tag's fineness is one comparison of its
# cell's length) and evaluates each width once; both must pick the same
# cells and tags and make the same refusals, and the bisection must evaluate
# the points the earlier code evaluated.  The two references below are the
# earlier code, kept as it ran; the bisection also logs its gauge calls.


def _fraction_depth_columns(a, b, delta, orders, depth_cap):
    """(edges, tag columns) of the constant-gauge grid chosen with Fraction
    arithmetic, or GaugeTooDemandingError."""
    depth_cap = min(depth_cap, MAX_LEVEL)
    span = b - a
    for depth in range(depth_cap + 1):
        fine = {s for s in orders[0]
                if span * Fraction(1, 1 << (depth + (s == "midpoint"))) < delta}
        if fine:
            rules = [next(s for s in order if s in fine) for order in orders]
            edges = divisions._uniform_edges(a, b, 2 ** depth, 0, 2 ** depth)
            return divisions._grid_columns(edges, rules)
    raise GaugeTooDemandingError(a, b, depth_cap)


def _reference_bisection(a, b, gauge, orders, depth_cap, calls):
    """The shared bisection step by step as it ran with a tag column seeded
    by np.ones and np.where, two tests of the open count and an interleaved
    position index, one gauge call per selector tried at each depth.
    `calls` receives the (depth, points) of each gauge call."""
    a, b, column = divisions._regime(a, b)
    ends = column([a, b])
    us, vs = ends[:1], ends[1:]
    index = np.zeros(1, dtype=np.int64 if depth_cap < 63 else object)
    accepted = []
    for depth in range(depth_cap + 1):
        us.setflags(write=False)
        vs.setflags(write=False)
        candidates = {}
        columns = []
        for order in orders:
            tags = None
            undecided = np.ones(len(us), dtype=bool)
            for selector in order:
                if selector not in candidates:
                    cand = divisions._tag_points(selector, us, vs)
                    calls.append((depth, np.array(cand)))
                    widths = gauge.evaluate_batch(cand)
                    candidates[selector] = cand, (cand - us < widths) & (vs - cand < widths)
                cand, fine = candidates[selector]
                fine = fine & undecided
                tags = cand if tags is None else np.where(fine, cand, tags)
                undecided &= ~fine
                if not undecided.any():
                    break
            columns.append(tags)
        fine = ~undecided
        accepted.append((index[fine] << (depth_cap - depth), us[fine],
                         *(tags[fine] for tags in columns)))
        if fine.all():
            return divisions._assemble(accepted, ends[1:], column)
        if depth == depth_cap or 2 * np.count_nonzero(undecided) > 2 ** MAX_LEVEL:
            i = int(np.argmax(undecided))
            raise GaugeTooDemandingError(us[i], vs[i], depth)
        us, vs, index = us[undecided], vs[undecided], index[undecided]
        mids = midpoint(us, vs)
        us, vs = divisions._interleave(us, mids), divisions._interleave(mids, vs)
        index = divisions._interleave(2 * index, 2 * index + 1)
    raise GaugeTooDemandingError(a, b, depth_cap)


def _same_build_or_refusal(build, reference):
    """Run both; the same (edges, tag columns) or the same refusal: the
    same stuck cell and depth, or the same refused point and width."""
    try:
        want = reference()
    except (GaugeTooDemandingError, GaugeContractError) as err:
        with pytest.raises(type(err)) as got:
            build()
        assert vars(got.value) == vars(err)
        assert [type(x) for x in vars(got.value).values()] == [type(x) for x in vars(err).values()]
        assert str(got.value) == str(err)
        return None
    edges, columns = build()
    _same_points(edges, want[0])
    assert len(columns) == len(want[1])
    for got_tags, want_tags in zip(columns, want[1]):
        _same_points(got_tags, want_tags)
    return edges


@hst.composite
def _span_and_delta(draw):
    """Float bounds a < b, normal or subnormal apart, and a float delta on,
    just off, or anywhere near a strict boundary span * 2**-k."""
    if draw(hst.booleans()):
        a = 0.0
        b = draw(hst.floats(min_value=5e-324, max_value=1e-300))  # subnormal spans
    else:
        a = draw(hst.floats(min_value=-1e3, max_value=1e3))
        b = a + draw(hst.floats(min_value=1e-12, max_value=1e3))
    assume(a < b)
    span = b - a
    boundary = math.ldexp(span, -draw(hst.integers(min_value=0, max_value=MAX_LEVEL + 3)))
    delta = draw(hst.sampled_from([
        boundary,
        math.nextafter(boundary, math.inf),
        math.nextafter(boundary, 0.0),
        boundary * draw(hst.floats(min_value=0.5, max_value=2.0)),
    ]))
    assume(delta > 0.0)
    return a, b, delta


@hst.composite
def _exact_span_and_delta(draw):
    """Exact bounds a < b, from 2**-60 to 2**40 apart and rational or not,
    and an exact delta on, just off, or anywhere near a strict boundary
    span * 2**-k."""
    a = draw(_fractions)
    if draw(hst.booleans()):
        a = a + IRRATIONAL_SHIFT
    span = draw(hst.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=1024))
    span *= Fraction(2) ** draw(hst.integers(min_value=-60, max_value=40))
    if draw(hst.booleans()):
        span *= 1 + IRRATIONAL_SHIFT
    boundary = span * Fraction(1, 2 ** draw(hst.integers(min_value=0, max_value=MAX_LEVEL + 3)))
    nudge = boundary * Fraction(1, 2**70)
    delta = draw(hst.sampled_from([
        boundary,
        boundary + nudge,
        boundary - nudge,
        boundary * draw(hst.fractions(min_value=Fraction(1, 2), max_value=2)),
        boundary * (1 + IRRATIONAL_SHIFT),
        draw(hst.integers(min_value=1, max_value=4)),
    ]))
    return a, a + span, delta


class TestAgainstTheEarlierCode:
    @settings(max_examples=300, deadline=None)
    @given(
        domain=_span_and_delta(),
        orders=_orders,
        depth_cap=hst.integers(min_value=0, max_value=MAX_LEVEL + 4),
    )
    @example(domain=(0.0, 1.0, 2.0 ** -4), orders=(("left",),), depth_cap=60)
    @example(domain=(0.0, 1.0, 2.0 ** -5), orders=(("midpoint",),), depth_cap=60)
    @example(domain=(0.0, 5e-324, 5e-324), orders=(("midpoint", "left"),), depth_cap=60)
    @example(domain=(0.0, 1.0, 2.0 ** -30), orders=(("left",),), depth_cap=60)
    def test_float_depth_search_picks_the_fraction_depth(self, domain, orders, depth_cap):
        a, b, delta = domain
        with pytest.MonkeyPatch.context() as mp:
            # a stand-in grid that records the cell count, so a depth of 26
            # allocates no 2**26 cells; the tags still show each order's rule
            mp.setattr(divisions, "_uniform_edges",
                       lambda a, b, n, lo, hi: np.array([float(n), n + 1.0]))
            _same_build_or_refusal(
                lambda: _delta_fine(a, b, Gauge.constant(delta), orders, depth_cap),
                lambda: _fraction_depth_columns(a, b, delta, orders, depth_cap),
            )

    @settings(max_examples=150, deadline=None)
    @given(
        domain=_exact_span_and_delta(),
        orders=_orders,
        depth_cap=hst.integers(min_value=0, max_value=MAX_LEVEL + 4),
    )
    @example(domain=(Fraction(0), Fraction(1), Fraction(1, 16)), orders=(("left",),), depth_cap=60)
    @example(domain=(Fraction(0), Fraction(1), Fraction(1, 32)), orders=(("midpoint",),),
             depth_cap=60)
    def test_exact_depth_search_picks_the_fraction_depth(self, domain, orders, depth_cap):
        a, b, delta = domain
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divisions, "_uniform_edges",
                       lambda a, b, n, lo, hi: np.array([float(n), n + 1.0]))
            _same_build_or_refusal(
                lambda: _delta_fine(a, b, Gauge.constant(delta), orders, depth_cap),
                lambda: _fraction_depth_columns(a, b, delta, orders, depth_cap),
            )

    @settings(max_examples=80, deadline=None)
    @given(
        bounds=_exact_bounds(),
        floor=hst.fractions(min_value=Fraction(1, 1024), max_value=1, max_denominator=1024),
        slope=hst.fractions(min_value=0, max_value=2, max_denominator=8),
        power=hst.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
        at=hst.fractions(min_value=0, max_value=1, max_denominator=16),
        orders=_orders,
        exact=hst.booleans(),
        depth_cap=hst.sampled_from([8, 20, DEFAULT_DEPTH_CAP, 70]),
    )
    def test_bisection_step_matches(
        self, bounds, floor, slope, power, at, orders, exact, depth_cap
    ):
        a, b = bounds
        if not exact:
            a, b, floor, slope, at = map(float, (a, b, floor, slope, at))
        pole = a + (b - a) * at
        if exact or power == 1:
            width = lambda s: floor + slope * abs(s - pole)
        else:
            width = lambda s: floor + slope * np.abs(s - pole) ** float(power)
        self._same_bisection(a, b, width, orders, depth_cap)

    @settings(max_examples=150, deadline=None)
    @given(
        bounds=_exact_bounds(),
        level=hst.fractions(min_value=-1, max_value=1, max_denominator=64),
        slope=hst.fractions(min_value=0, max_value=4, max_denominator=8),
        rising=hst.booleans(),
        at=hst.lists(hst.fractions(min_value=0, max_value=1, max_denominator=16),
                     min_size=1, max_size=2),
        orders=_orders,
        exact=hst.booleans(),
        depth_cap=hst.sampled_from([8, 20, DEFAULT_DEPTH_CAP]),
    )
    # zero at a cut point of depth 3
    @example(bounds=(Fraction(0), Fraction(1)), level=Fraction(0), slope=Fraction(1),
             rising=True, at=[Fraction(3, 8)], orders=(TAG_RULES,), exact=True, depth_cap=20)
    # non-positive beyond a distance of 1/2 from the pole
    @example(bounds=(Fraction(0), Fraction(2)), level=Fraction(1, 2), slope=Fraction(1),
             rising=False, at=[Fraction(1, 4)], orders=(("right", "left"),), exact=False,
             depth_cap=60)
    # zero at two cut points new at depth 3: the left one is refused
    @example(bounds=(Fraction(0), Fraction(1)), level=Fraction(0), slope=Fraction(1),
             rising=True, at=[Fraction(5, 8), Fraction(3, 8)], orders=(("left", "right"),),
             exact=False, depth_cap=20)
    def test_refused_widths_match(
        self, bounds, level, slope, rising, at, orders, exact, depth_cap
    ):
        # widths level +- slope * (distance to the nearest pole) turn
        # non-positive near a pole when they rise from a level <= 0, and
        # away from the poles when they fall
        a, b = bounds
        if not exact:
            a, b, level, slope = map(float, (a, b, level, slope))
        poles = [a + (b - a) * (t if exact else float(t)) for t in at]
        if not rising:
            slope = -slope

        def width(s):
            distance = abs(s - poles[0])
            for pole in poles[1:]:
                distance = np.minimum(distance, abs(s - pole))
            return level + slope * distance

        self._same_bisection(a, b, width, orders, depth_cap)

    @pytest.mark.parametrize("orders", [
        (TAG_RULES,), (("midpoint", "left"),), (("left", "right"), ("right", "left")),
    ])
    @pytest.mark.parametrize("float_side", ["left", "right"])
    def test_float_widths_at_some_exact_points(self, orders, float_side):
        # widths are exact columns in some calls and `object` arrays holding
        # floats in others, and the bisection carries both
        below, above = Fraction(1, 10), 0.1
        if float_side == "left":
            below, above = above, below
        width = lambda s: np.where(s < Fraction(1, 2), below, above)
        self._same_bisection(Fraction(0), Fraction(1), width, orders, DEFAULT_DEPTH_CAP)

    @pytest.mark.parametrize("level", range(6, 19))
    def test_inv_sqrt_gauges(self, level):
        entry = get_entry("inv_sqrt")
        orders = tuple(s.selectors for s in entry.strategies)
        gauge = entry.gauges(level)
        edges = self._same_bisection(*entry.bounds, gauge._fn, orders, DEFAULT_DEPTH_CAP)
        assert edges[1] < 2.0 ** -level  # the gauge shrinks toward 0

    @pytest.mark.parametrize("level", range(4, 15))
    def test_twomass_step_gauges(self, level):
        g = get_entry("twomass_step").build()
        jumps = [p for p, _ in g.jumps]
        ceiling = (g.d - g.c) * 2.0 ** -level
        gauge = jump_anchoring_gauge(jumps, ceiling)
        orders = tuple(s.selectors for s in ANCHORED_STRATEGIES)
        self._same_bisection(g.c, g.d, gauge._fn, orders, DEFAULT_DEPTH_CAP)

    @staticmethod
    def _same_bisection(a, b, width, orders, depth_cap):
        """Compare edges, tag columns or refusals, and check the gauge
        calls against the earlier code's."""
        got_calls, want_calls = [], []

        def logged(s):
            got_calls.append(np.array(s))
            return width(s)

        edges = _same_build_or_refusal(
            lambda: _delta_fine_batched(a, b, Gauge.from_function(logged), orders, depth_cap),
            lambda: _reference_bisection(
                a, b, Gauge.from_function(width), orders, depth_cap, want_calls),
        )
        _evaluated_once(got_calls, want_calls)
        return edges
