"""Convergence classification and the four integration engines."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gaugelab.catalog import get_entry, inv_sqrt, run_entry
from gaugelab.cells import Gauge
from gaugelab.divisions import (
    RefinementSchedule,
    delta_fine_division,
    is_fine,
    make_shifted_uniform,
    make_uniform,
    riemann_sum,
)
from gaugelab.errors import (
    ArgumentError,
    MonotonicityError,
    NonFiniteSumError,
    OracleInconsistencyError,
)
from gaugelab.integrand import (
    BurkillIntegrand,
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
)
from gaugelab.integrators import (
    ConvergenceController,
    DistributionFunction,
    ExtremaOracle,
    darboux_riemann,
    gauge_integrate,
    identity_distribution,
    jump_anchoring_gauge,
    lebesgue_distribution_integrate,
    rs_integrate,
    singularity_gauge,
    square_distribution,
    step_distribution,
)
from gaugelab.results import Status, TraceRow
from gaugelab.stochastic import path_from_function


def _ctrl(tol=1e-9, start=4, stop=22, **kw):
    return ConvergenceController(
        tolerance_abs=tol, schedule=RefinementSchedule(start, stop), **kw
    )


class TestConvergenceController:
    def test_defaults(self):
        ctrl = ConvergenceController()
        assert ctrl.tolerance_abs == 1e-9
        assert ctrl.tolerance_rel == 1e-9
        assert ctrl.window == 3

    def test_validation(self):
        with pytest.raises(ArgumentError):
            ConvergenceController(tolerance_abs=-1.0)
        with pytest.raises(ArgumentError):
            ConvergenceController(window=0)
        with pytest.raises(ArgumentError):
            ConvergenceController(growth_factor=0.9)

    def test_tolerance_scales_with_magnitude(self):
        ctrl = ConvergenceController(tolerance_abs=1e-9, tolerance_rel=1e-9)
        assert ctrl.tolerance_at(0.0) == 1e-9
        assert ctrl.tolerance_at(1e6) == pytest.approx(1e-3 + 1e-9)


class TestRsIntegrate:
    def test_telescoping_accepts_first_level(self):
        h = make_integrand(None, increments_of(lambda u: u * u), "interval-only")
        result = rs_integrate(h, 0.0, 1.0)
        assert result.status is Status.CONVERGED
        assert result.levels_run == 1
        assert result.estimate == pytest.approx(1.0, abs=1e-12)

    def test_smooth_integrand_converges(self):
        h = make_integrand(lambda s: s, increments_of(lambda u: u * u), "tag")
        result = rs_integrate(h, 0.0, 1.0, _ctrl(5e-5))
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert result.error_bound is not None

    def test_trace_rows_and_strategy_sums(self):
        h = make_integrand(lambda s: s * s, length_factor(), "tag")
        result = rs_integrate(h, 0.0, 1.0, _ctrl(1e-3, 4, 12))
        assert result.status is Status.CONVERGED
        first = result.trace[0]
        assert first.level == 4 and first.n == 16
        assert first.sum_min <= first.sum_max
        assert set(result.strategy_sums) == {
            "rational-left", "rational-mid", "shifted-left"
        }
        lengths = {len(v) for v in result.strategy_sums.values()}
        assert lengths == {len(result.trace)}

    def test_divergence_detected(self):
        # sums grow like n * mean(tag): clean geometric growth
        h = BurkillIntegrand(name="tags-only", rule=lambda s, u, v: s)
        result = rs_integrate(h, 0.0, 1.0, _ctrl(1e-9, 4, 12))
        assert result.status is Status.DIVERGED
        assert result.estimate is None

    def test_oscillation_between_grid_families(self):
        # rational grids sum 0, shifted grids sum 1: spread never closes
        from gaugelab.catalog import dirichlet_factor, step_at

        h = make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag")
        result = rs_integrate(h, Fraction(0), Fraction(1), _ctrl(1e-9, 1, 9))
        assert result.status is Status.OSCILLATING
        assert result.estimate is None
        spreads = {row.spread for row in result.trace}
        assert spreads == {1}  # exact integers, no float fuzz

    def test_inconclusive_when_schedule_too_short(self):
        h = make_integrand(lambda s: s * s, length_factor(), "tag")
        result = rs_integrate(h, 0.0, 1.0, _ctrl(1e-12, 4, 6))
        assert result.status is Status.INCONCLUSIVE
        assert result.estimate is not None  # best guess, spread as error bound


class TestDarboux:
    def test_monotone_square(self):
        f = lambda s: s * s
        result = darboux_riemann(f, ExtremaOracle.monotone(f), 0.0, 1.0, _ctrl(1e-3, 4, 12))
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(1 / 3, abs=1e-3)
        assert result.error_bound <= 1e-3 / 2 * 1.001

    def test_constant_first_level(self):
        f = lambda s: 3.5
        result = darboux_riemann(f, ExtremaOracle.monotone(f), 0.0, 2.0, _ctrl(1e-9, 0, 8))
        assert result.status is Status.CONVERGED
        assert result.estimate == 7.0

    def test_lying_oracle_caught(self):
        f = lambda s: s * s
        liar = ExtremaOracle(lambda us, vs: (0.0, 0.1))  # claims sup 0.1 everywhere
        with pytest.raises(OracleInconsistencyError):
            darboux_riemann(f, liar, 0.0, 1.0, _ctrl(1e-3, 4, 8))

    def test_inverted_oracle_rejected(self):
        bad = ExtremaOracle(lambda us, vs: (np.where(us < 0.5, 0.0, 1.0), 0.5))
        with pytest.raises(ArgumentError, match=r"\]0.5, 1.0\]"):
            bad(np.array([0.0, 0.5]), np.array([0.5, 1.0]))

    def test_upper_lower_bracket_estimate(self):
        f = lambda s: s
        result = darboux_riemann(f, ExtremaOracle.monotone(f), 0.0, 2.0, _ctrl(1e-3, 4, 14))
        assert result.status is Status.CONVERGED
        last = result.trace[-1]
        assert last.sum_min <= 2.0 <= last.sum_max
        assert result.estimate == pytest.approx(2.0, abs=1e-3)


class TestGaugeIntegrate:
    def test_lengths_telescope_exactly(self):
        h = make_integrand(None, length_factor(), "interval-only")
        result = gauge_integrate(h, 0.0, 1.0)
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(1.0, abs=1e-12)

    def test_selector_depth_asymmetry_on_squared_lengths(self):
        # constant gauge delta = 2^-k: midpoint tags accept a uniform division
        # at n = 2^k, left and right tags need n = 2^(k+1); squared lengths
        # then sum to 2^-k versus 2^-(k+1), a visible factor-2 spread
        h = make_integrand(None, length_squared_factor(), "interval-only")
        result = gauge_integrate(h, 0.0, 1.0, _ctrl(4e-5, 4, 17))
        assert result.status is Status.CONVERGED
        mid = result.strategy_sums["mid-tags"]
        left = result.strategy_sums["left-tags"]
        assert mid[0] == pytest.approx(2.0 * left[0])
        assert result.estimate == pytest.approx(0.0, abs=1e-5)

    def test_riemann_integrable_subset_of_gauge(self):
        # whatever Darboux settles, the gauge engine must reproduce
        f = lambda s: s * s
        darboux = darboux_riemann(
            f, ExtremaOracle.monotone(f), 0.0, 1.0, _ctrl(1e-3, 4, 12)
        )
        h = make_integrand(f, length_factor(), "tag")
        gauge = gauge_integrate(h, 0.0, 1.0, _ctrl(1.5e-3, 4, 12))
        assert darboux.status is Status.CONVERGED
        assert gauge.status is Status.CONVERGED
        tol = 2 * max(1e-3, 1.5e-3)
        assert abs(darboux.estimate - gauge.estimate) <= tol

    def test_monotone_convergence_of_truncations(self):
        # f_j = min(j, 1/sqrt(s)) integrates to 2 - 1/j, increasing to 2;
        # the spread scales with the truncation's total variation, hence
        # the j-scaled stability tolerance
        previous = -math.inf
        for j in (1, 2, 4, 8):
            f = lambda s, j=j: np.minimum(float(j), inv_sqrt(s))
            h = make_integrand(f, length_factor(), "tag")
            result = gauge_integrate(h, 0.0, 1.0, _ctrl(2e-4 * j, 4, 16))
            assert result.status is Status.CONVERGED
            assert result.estimate == pytest.approx(2.0 - 1.0 / j, abs=1e-3)
            assert result.estimate > previous
            previous = result.estimate
        assert previous == pytest.approx(2.0, abs=1e-3 + 1.0 / 8)

    def test_custom_gauges_respected(self):
        h = make_integrand(None, length_factor(), "interval-only")
        seen = []

        def gauges(level):
            seen.append(level)
            return Gauge.constant(2.0 ** -level)

        result = gauge_integrate(h, 0.0, 1.0, _ctrl(1e-9, 4, 8), gauges=gauges)
        assert result.status is Status.CONVERGED
        assert seen and all(lv >= 4 for lv in seen)


class TestSingularityGauge:
    def test_origin_gets_floor_width(self):
        g = singularity_gauge(ceiling=0.25, at_origin=1e-4)
        widths = g.evaluate_batch(np.array([0.0, 1e-3, 0.9]))
        assert widths[0] == 1e-4
        assert widths[1] == pytest.approx(5e-4)
        assert widths[2] == 0.25

    def test_division_anchors_origin(self):
        g = singularity_gauge(ceiling=0.25, at_origin=1e-3)
        d = delta_fine_division(0.0, 1.0, g, selectors=("left", "midpoint", "right"))
        assert is_fine(d, g)
        assert d.tags[0] == 0.0  # only the origin itself survives near 0

    def test_inverse_sqrt_converges_to_two(self):
        result = run_entry(get_entry("inv_sqrt"))
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(2.0, abs=1e-3)


class TestDistributionFunction:
    def test_spot_check_rejects_decreasing(self):
        g = DistributionFunction(
            name="down", c=0.0, d=1.0, evaluate=lambda u: -u
        )
        with pytest.raises(MonotonicityError):
            g.spot_check_monotone()

    def test_step_distribution_normalized_at_left(self):
        g = step_distribution([(0.5, 2.0)], c=0.0, d=1.0)
        assert g.evaluate(0.0) == 0.0
        assert g.evaluate(0.4) == 0.0
        assert g.evaluate(0.5) == 2.0  # mass counted at its own position
        assert g.evaluate(0.6) == 2.0
        assert g.jumps == ((0.5, 2.0),)

    def test_mass_at_left_endpoint_counted(self):
        g = step_distribution([(0.0, 1.0), (0.5, 1.0)], c=0.0, d=1.0)
        # mass sitting at c lands in the first increment
        assert g.evaluate(0.0) == 0.0
        assert g.evaluate(0.1) == 1.0

    def test_increments_factor(self):
        g = identity_distribution()
        inc = g.increments()
        assert inc(0.25, 0.5) == 0.25
        assert inc(0.0, 0.25) + inc(0.25, 0.5) == inc(0.0, 0.5)


class TestJumpAnchoring:
    def test_jump_cells_tagged_at_jump(self):
        gauge = jump_anchoring_gauge([0.5], ceiling=0.25)
        d = delta_fine_division(0.0, 1.0, gauge, selectors=("left", "midpoint", "right"))
        assert is_fine(d, gauge)
        touching = (d.lefts <= 0.5) & (0.5 <= d.rights)
        assert np.any(touching) and np.all(d.tags[touching] == 0.5)

    def test_interior_mass_exact(self):
        g = step_distribution([(3.0, 1.0)], c=2.0, d=5.0, name="one-mass")
        result = lebesgue_distribution_integrate(g, _ctrl(1e-9, 4, 14))
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(3.0, abs=1e-12)

    def test_two_masses_exact(self):
        g = step_distribution(
            [(2.0, 1.0 / 3.0), (5.0, 2.0 / 3.0)], c=2.0, d=5.0, name="twomass"
        )
        result = lebesgue_distribution_integrate(g, _ctrl(1e-9, 4, 14))
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(4.0, abs=1e-9)


class TestLebesgueRoute:
    def test_identity_distribution_mean(self):
        result = lebesgue_distribution_integrate(
            identity_distribution(), _ctrl(2e-6)
        )
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(0.5, abs=1e-6)

    def test_square_distribution(self):
        result = lebesgue_distribution_integrate(
            square_distribution(), _ctrl(5e-5)
        )
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_refuses_non_monotone(self):
        g = DistributionFunction(
            name="wavy", c=0.0, d=1.0,
            evaluate=lambda u: np.sin(8.0 * u),
        )
        with pytest.raises(MonotonicityError):
            lebesgue_distribution_integrate(g)


class TestStrategySums:
    def test_rows_expose_per_strategy_sums(self):
        from gaugelab.catalog import dirichlet_factor, step_at

        h = make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag")
        result = rs_integrate(h, Fraction(0), Fraction(1), _ctrl(1e-9, 1, 6))
        sums = result.strategy_sums
        assert set(sums) == {"rational-left", "rational-mid", "shifted-left"}
        assert len(result.trace) == 6
        for values in zip(*sums.values()):
            assert max(values) - min(values) == 1


_INV_SQRT = make_integrand(lambda s: 1.0 / np.sqrt(s), length_factor(), "tag")
_ALL_NAN = make_integrand(lambda s: np.full(s.shape, np.nan), length_factor(), "tag")


def _darboux_infinite_sup():
    f = lambda s: 1.0
    return darboux_riemann(f, ExtremaOracle(lambda us, vs: (0.0, math.inf)), 0.0, 1.0)


@pytest.mark.parametrize(
    "run, strategy",
    [
        (lambda: rs_integrate(_INV_SQRT, 0.0, 1.0), "rational-left"),
        (lambda: rs_integrate(_ALL_NAN, 0.0, 1.0), "rational-left"),
        (lambda: gauge_integrate(_INV_SQRT, 0.0, 1.0), "left-tags"),
        (_darboux_infinite_sup, "upper"),
    ],
    ids=["rs-inv-sqrt", "rs-all-nan", "gauge-inv-sqrt", "darboux-inf-sup"],
)
def test_non_finite_sum_raises_at_first_level(run, strategy):
    # an infinite sum agrees with itself within any tolerance, so it must
    # stop the ladder with a typed error instead of classifying
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteSumError) as exc:
            run()
    assert exc.value.strategy == strategy
    assert exc.value.level == 4


def test_error_messages_print_plain_floats():
    with pytest.raises(NonFiniteSumError) as exc:
        _darboux_infinite_sup()
    assert str(exc.value) == "strategy 'upper' summed to inf at level 4"
    liar = ExtremaOracle(lambda us, vs: (0.0, 0.1))
    with pytest.raises(OracleInconsistencyError) as exc:
        darboux_riemann(lambda s: s * s, liar, 0.0, 1.0, _ctrl(1e-3, 4, 8))
    message = str(exc.value)
    assert "np.float64" not in message
    assert message.endswith("outside (0.0, 0.1)")


class _Recorder:
    """An elementwise callable that records the type of each argument."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, x):
        self.args.append(type(x))
        return self.fn(x)


@pytest.mark.parametrize("level", [4, 12])
def test_float_callables_see_whole_arrays_a_fixed_number_of_times(level):
    # Darboux: the monotone oracle calls f on the left and right endpoints,
    # the consistency check once on the tags, whatever the cell count
    f = _Recorder(lambda s: s * s)
    darboux_riemann(f, ExtremaOracle.monotone(f), 0.0, 1.0, _ctrl(1e-12, level, level))
    assert f.args == [np.ndarray] * 3

    point = _Recorder(lambda s: s)
    h = make_integrand(point, length_factor(), "tag")
    riemann_sum(h, make_uniform(0.0, 1.0, 2 ** level))
    assert point.args == [np.ndarray]

    # delta-fine bisection: at most one gauge call per selector per depth
    width = _Recorder(lambda s: np.full(s.shape, 2.0 ** -level))
    division = delta_fine_division(0.0, 1.0, Gauge.from_function(width))
    assert division.n == 2 ** level
    assert set(width.args) == {np.ndarray}
    assert len(width.args) <= 3 * (level + 1)

    # exact divisions hand the same callables object arrays, as often
    point = _Recorder(lambda s: s)
    h = make_integrand(point, length_factor(), "tag")
    riemann_sum(h, make_shifted_uniform(Fraction(0), Fraction(1), 2 ** level))
    assert point.args == [np.ndarray]

    width = _Recorder(lambda s: Fraction(1, 2 ** level))
    division = delta_fine_division(Fraction(0), Fraction(1), Gauge.from_function(width))
    assert division.exact and division.n == 2 ** level
    assert set(width.args) == {np.ndarray}
    assert len(width.args) <= 3 * (level + 1)

    source = _Recorder(np.sin)
    path_from_function(source, 1.0, level)
    g = DistributionFunction("recorded", 0.0, 1.0, _Recorder(lambda u: u))
    g.spot_check_monotone()
    assert source.args == g.evaluate.args == [np.ndarray]


@settings(max_examples=50, deadline=None)
@given(
    x=hst.floats(allow_nan=False, allow_infinity=False),
    y=hst.floats(allow_nan=False, allow_infinity=False),
)
def test_trace_row_midpoint_keeps_float_bits(x, y):
    lo, hi = min(x, y), max(x, y)
    want = lo if lo == hi else (lo + hi) / 2
    got = TraceRow(0, 1, lo, hi).midpoint
    assert type(got) is float and repr(got) == repr(want)


@settings(max_examples=15, deadline=None)
@given(
    c=hst.floats(min_value=-2.0, max_value=2.0),
    width=hst.floats(min_value=0.5, max_value=3.0),
)
def test_property_constant_point_function(c, width):
    # a constant against plain length always converges to c * (b - a) fast
    h = make_integrand(lambda s, c=c: c, length_factor(), "tag")
    result = rs_integrate(h, 0.0, width)
    assert result.status is Status.CONVERGED
    assert result.estimate == pytest.approx(c * width, abs=1e-9 + 1e-12 * abs(c * width))
