"""Convergence classification and the four integration engines."""

import math
from fractions import Fraction
from functools import reduce
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gaugelab import divisions, integrators
from gaugelab.catalog import dirichlet_factor, get_entry, inv_sqrt, run_entry, step_at
from gaugelab.cells import Gauge, TaggedDivision
from gaugelab.divisions import (
    DEFAULT_DEPTH_CAP,
    TAG_RULES,
    RefinementSchedule,
    delta_fine_division,
    make_shifted_uniform,
    make_uniform,
    riemann_sum,
)
from gaugelab.errors import (
    ArgumentError,
    GaugeLabError,
    GaugeTooDemandingError,
    IntegrandEvalError,
    MonotonicityError,
    NonFiniteSumError,
    OracleInconsistencyError,
)
from gaugelab.exact import IRRATIONAL_SHIFT, QuadExtArray
from gaugelab.integrand import (
    BurkillIntegrand,
    IntervalFactor,
    increments_of,
    length_factor,
    length_squared_factor,
    make_integrand,
)
from gaugelab.integrators import (
    ANCHORED_STRATEGIES,
    GAUGE_STRATEGIES,
    RS_STRATEGIES,
    ConvergenceController,
    DistributionFunction,
    ExtremaOracle,
    Strategy,
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
from test_divisions import is_fine, no_grid_arrays


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

    @pytest.mark.parametrize("window", [3.0, 2.5, "3", None, True, 1])
    def test_window_must_be_an_integer_of_at_least_two(self, window):
        # a float window used to pass, and an undecided run then died on
        # its last level slicing the sums by it
        with pytest.raises(ArgumentError) as got:
            ConvergenceController(window=window)
        assert str(got.value) == f"stability window must be an integer >= 2, got {window!r}"

    def test_window_is_read_as_an_int(self):
        ctrl = ConvergenceController(window=np.int64(4))
        assert type(ctrl.window) is int and ctrl.window == 4

    @pytest.mark.parametrize("field", ["tolerance_abs", "tolerance_rel"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_tolerances_must_be_finite(self, field, value):
        # an infinite tolerance calls any two finite sums stable: a wrong converged
        with pytest.raises(ArgumentError, match="finite"):
            ConvergenceController(**{field: value})

    def test_tolerance_scales_with_magnitude(self):
        ctrl = ConvergenceController(tolerance_abs=1e-9, tolerance_rel=1e-9)
        assert ctrl.tolerance_at(0.0) == 1e-9
        assert ctrl.tolerance_at(1e6) == pytest.approx(1e-3 + 1e-9)


class TestRsIntegrate:
    def test_telescoping_converges_by_the_window_rule(self):
        # the sums agree at the first level, but agreement at one level is
        # no convergence: the stable window closes after `window` more
        h = make_integrand(None, increments_of(lambda u: u * u), "interval-only")
        result = rs_integrate(h, 0.0, 1.0)
        assert result.status is Status.CONVERGED
        assert [row.level for row in result.trace] == [4, 5, 6, 7]
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
            "rational-left", "rational-mid", "shifted-left", "shifted-right"
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
        h = make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag")
        result = rs_integrate(h, Fraction(0), Fraction(1), _ctrl(1e-9, 1, 9))
        assert result.status is Status.OSCILLATING
        assert result.estimate is None
        spreads = {row.spread for row in result.trace}
        assert spreads == {1}  # exact integers, no float fuzz

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (Fraction(0), Fraction(1))])
    def test_each_familys_edges_built_once_per_level(self, monkeypatch, a, b):
        calls = []
        for cuts, build in integrators._GRID_EDGES.items():
            def counted(a, b, n, lo, hi, build=build, cuts=cuts):
                assert (lo, hi) == (0, n)  # one block below _BLOCK_CELLS cells
                calls.append((cuts, n))
                return build(a, b, n, lo, hi)
            monkeypatch.setitem(integrators._GRID_EDGES, cuts, counted)
        h = make_integrand(lambda s: s * s, length_factor(), "tag")
        result = rs_integrate(h, a, b, _ctrl(1e-12, 2, 5))
        assert [row.n for row in result.trace] == [4, 8, 16, 32]
        assert calls == [
            (cuts, row.n) for row in result.trace for cuts in ("uniform", "shifted-uniform")
        ]
        # the shared edges give the sums the public builders give
        for name, build, rule in (
            ("rational-left", make_uniform, "left"),
            ("rational-mid", make_uniform, "midpoint"),
            ("shifted-left", make_shifted_uniform, "left"),
            ("shifted-right", make_shifted_uniform, "right"),
        ):
            assert result.strategy_sums[name] == tuple(
                riemann_sum(h, build(a, b, row.n, rule)) for row in result.trace
            )

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


class TestUndecidedBound:
    """An inconclusive run's error bound covers every strategy's sums over
    the last window of levels: sums that never settled can agree at the
    last level by chance.  Its estimate stays the last level's midpoint."""

    @staticmethod
    def classify(columns, ctrl=None):
        """(status, estimate, error bound) of the columns' sums once the
        schedule ends, and the last level's spread; no prefix decides."""
        ctrl = ctrl or _ctrl(1e-6)
        rows = list(zip(*columns.values()))
        for k in range(1, len(rows) + 1):
            assert integrators._decide(ctrl, rows[:k], integrators._PROBE_RULES) is None
        return (*integrators._undecided(ctrl, rows), max(rows[-1]) - min(rows[-1]))

    def test_periodic_sums(self):
        # the cycle rational-mid runs through on a jump shared by f and g
        status, estimate, bound, spread = self.classify(
            {"left": [0.0] * 8, "mid": [0.0, 1.0, 1.0, 0.0] * 2})
        assert status is Status.INCONCLUSIVE
        assert spread == 0.0
        assert estimate == 0.0 and bound == 1.0

    def test_sign_alternating_sums(self):
        sums = [(-1) ** k * 0.5 for k in range(9)]
        status, estimate, bound, _ = self.classify({"a": sums, "b": sums})
        assert status is Status.INCONCLUSIVE
        assert estimate == 0.5 and bound == 1.0

    def test_fewer_levels_than_the_window_use_every_level(self):
        status, estimate, bound, _ = self.classify(
            {"a": [1.0, 3.0], "b": [2.0, 3.0]}, _ctrl(1e-6, window=5))
        assert status is Status.INCONCLUSIVE
        assert estimate == 3.0 and bound == 2.0

    def test_shared_jump_witness(self):
        # rs: rational-mid cycles 0, 1, 1, 0, and the right tags of the
        # shifted grid take the jump at every level
        h = make_integrand(step_at(0.7), step_distribution([(0.7, 1.0)], 0, 1).increments(), "tag")
        result = rs_integrate(h, 0.0, 1.0)
        assert result.status is Status.INCONCLUSIVE
        assert result.strategy_sums["shifted-right"][-4:] == (1.0,) * 4
        assert result.trace[-1].spread == 1.0
        assert result.estimate == 0.5 and result.error_bound == 1.0
        gauge = gauge_integrate(h, 0.0, 1.0, _ctrl(1e-9, 4, 12))
        assert gauge.status is Status.INCONCLUSIVE and gauge.error_bound == 1.0

    def test_darboux_keeps_its_last_bracket(self):
        # U - L is proven at every level, so the last one bounds the run
        f = lambda s: s
        result = darboux_riemann(f, ExtremaOracle.monotone(f), 0.0, 1.0, _ctrl(1e-9, 2, 4))
        assert result.status is Status.INCONCLUSIVE
        last = result.trace[-1]
        assert result.estimate == 0.5 and result.error_bound == last.spread == 0.0625


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

    def test_dirichlet_increments_are_not_converged(self):
        # bisecting at dyadic points only makes rational cuts, where every
        # Dirichlet increment is 0; the split rows cut off them
        h = make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag")
        result = gauge_integrate(h, Fraction(0), Fraction(1), _ctrl(1e-9, 1, 9))
        assert result.status is Status.OSCILLATING
        assert set(result.strategy_sums["left-tags"]) == {0}

    def test_levels_past_max_level_are_refused(self, monkeypatch):
        # at level k the constant gauge 2**-k needs 2**k midpoint-tagged
        # cells, but 2**(k + 1) left- or right-tagged ones
        monkeypatch.setattr(divisions, "MAX_LEVEL", 6)
        h = make_integrand(None, length_squared_factor(), "interval-only")
        with pytest.raises(GaugeTooDemandingError) as err:
            gauge_integrate(h, 0.0, 1.0, _ctrl(1e-15, 4, 6))
        assert str(err.value) == "gauge too demanding: no fine tag for ]0.0, 1.0] within depth 6"

    def test_custom_gauges_respected(self):
        h = make_integrand(None, length_factor(), "interval-only")
        seen = []

        def gauges(level):
            seen.append(level)
            return Gauge.constant(2.0 ** -level)

        result = gauge_integrate(h, 0.0, 1.0, _ctrl(1e-9, 4, 8), gauges=gauges)
        assert result.status is Status.CONVERGED
        assert seen and all(lv >= 4 for lv in seen)

    @pytest.mark.parametrize("strategies, message", [
        ((), "need at least one tag-selector strategy"),
        (GAUGE_STRATEGIES[:1] + RS_STRATEGIES[2:],
         "gauge strategy 'shifted-left' needs cuts 'delta-fine' or 'split-delta-fine', "
         "got 'shifted-uniform'"),
    ])
    def test_strategies_refused_before_any_level(self, strategies, message):
        # a grid row's mesh would be the level's Gauge, not a cell count
        seen = []

        def gauges(level):
            seen.append(level)
            return Gauge.constant(2.0 ** -level)

        h = make_integrand(None, length_factor(), "interval-only")
        with pytest.raises(ArgumentError) as err:
            gauge_integrate(h, 0.0, 1.0, gauges=gauges, strategies=strategies)
        assert str(err.value) == message
        assert seen == []


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


    @pytest.mark.parametrize("masses, merged", [
        ([(0.5, 1.0), (0.5, 2.0)], [(0.5, 3.0)]),
        ([(0.25, 1.0), (0.7, 1.0), (0.7, 0.5), (1.0, 2.0)], [(0.25, 1.0), (0.7, 1.5), (1.0, 2.0)]),
    ])
    def test_masses_at_one_position_sum_as_one(self, masses, merged):
        # two masses at one interior point cut the pieces once; the run is
        # the merged mass's, bit for bit
        ctrl = _ctrl(1e-9, 4, 14)
        got, want = (lebesgue_distribution_integrate(step_distribution(m, 0.0, 1.0), ctrl)
                     for m in (masses, merged))
        assert got.status is Status.CONVERGED
        assert repr((got, got.strategy_sums)) == repr((want, want.strategy_sums))


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
        h = make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag")
        result = rs_integrate(h, Fraction(0), Fraction(1), _ctrl(1e-9, 1, 6))
        sums = result.strategy_sums
        assert set(sums) == {"rational-left", "rational-mid", "shifted-left", "shifted-right"}
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


@pytest.mark.parametrize("a, b", [
    (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
    (-1e308, 1e308), (1e308, 1.7e308), (0.0, 2.0 ** 1023), (-(2.0 ** 1023), 0.0),
])
@pytest.mark.parametrize("method", ["rs", "gauge", "darboux", "lebesgue"])
def test_infinite_float_domain_refused_in_one_way(method, a, b):
    # an end at or beyond +-2**1023 is refused before any point is
    # evaluated, and numpy warns of nothing (pytest turns warnings into
    # errors): such a domain has widths or midpoints that overflow
    points = []
    f = lambda s: points.append(s) or s
    h = make_integrand(f, length_factor(), "tag")
    run = {
        "rs": lambda: rs_integrate(h, a, b),
        "gauge": lambda: gauge_integrate(h, a, b),
        "darboux": lambda: darboux_riemann(f, ExtremaOracle.monotone(f), a, b),
        "lebesgue": lambda: lebesgue_distribution_integrate(DistributionFunction("f", a, b, f)),
    }[method]
    with pytest.raises(ArgumentError) as exc:
        run()
    assert str(exc.value) == f"float domain needs |a|, |b| < 2**1023, got a={a!r}, b={b!r}"
    assert points == []


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

    # exact divisions hand the same callables exact columns, as often
    point = _Recorder(lambda s: s)
    h = make_integrand(point, length_factor(), "tag")
    riemann_sum(h, make_shifted_uniform(Fraction(0), Fraction(1), 2 ** level))
    assert point.args == [QuadExtArray]

    width = _Recorder(lambda s: Fraction(1, 2 ** level))
    division = delta_fine_division(Fraction(0), Fraction(1), Gauge.from_function(width))
    assert division.exact and division.n == 2 ** level
    assert set(width.args) == {QuadExtArray}
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


# --------------------------------------------------------------------------
# Python floats out of every integrator
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda: rs_integrate(
            make_integrand(lambda s: s * s, length_factor(), "tag"), 0.0, 1.0, _ctrl(1e-3, 4, 12)
        ),
        lambda: gauge_integrate(
            make_integrand(lambda s: s * s, length_factor(), "tag"), 0.0, 1.0, _ctrl(1e-3, 4, 12)
        ),
        lambda: darboux_riemann(
            lambda s: s * s, ExtremaOracle.monotone(lambda s: s * s), 0.0, 1.0, _ctrl(1e-3, 4, 12)
        ),
        lambda: lebesgue_distribution_integrate(identity_distribution(), _ctrl(1e-4, 4, 16)),
        lambda: lebesgue_distribution_integrate(
            step_distribution([(3.0, 1.0)], c=2.0, d=5.0), _ctrl(1e-9, 4, 10)
        ),
    ],
    ids=["rs", "gauge", "darboux", "lebesgue-rs", "lebesgue-anchored"],
)
def test_float_regime_estimates_are_python_floats(run):
    result = run()
    assert result.status is Status.CONVERGED
    assert type(result.estimate) is float and type(result.error_bound) is float
    for sums in result.strategy_sums.values():
        assert {type(x) for x in sums} == {float}


# --------------------------------------------------------------------------
# rs levels summed in blocks
# --------------------------------------------------------------------------
#
# A level is built and summed in blocks that follow numpy's pairwise
# summation, so block sums add up to np.sum over the whole level bit for
# bit.  These tests pin that summation order: a numpy release that changes
# it makes them fail.


def _block_tree_sum(x):
    return integrators._pairwise(0, len(x), lambda lo, hi: float(np.sum(x[lo:hi])))


_RNG = np.random.default_rng(20261018)
_LENGTHS = sorted(
    {1, 2, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 8, 2**18, 3 * 2**18}
    | set(_RNG.integers(1, 3 * 2**18, 12).tolist())
)


@pytest.mark.parametrize("block_cells", [2**16, 64, 1000])
@pytest.mark.parametrize("kind", ["contiguous", "broadcast", "strided"])
def test_block_tree_adds_up_to_np_sum(monkeypatch, block_cells, kind):
    monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(block_cells)
    for n in _LENGTHS:
        if block_cells < 2**16 and n > 2**17:
            continue  # small blocks make long runs slow, not different
        # values over many binades, so the summation order shows in the bits
        values = rng.standard_normal(2 * n) * np.exp2(rng.integers(-30, 30, 2 * n))
        x = {
            "contiguous": values[:n],
            "broadcast": np.broadcast_to(values[0], (n,)),
            "strided": values[::2],
        }[kind]
        assert _block_tree_sum(x) == float(np.sum(x)), n


def test_blocks_cover_the_cells_in_order(monkeypatch):
    monkeypatch.setattr(integrators, "_BLOCK_CELLS", 1000)
    blocks = []

    def block_sum(lo, hi):
        blocks.append((lo, hi))
        return hi - lo

    n = 3 * 2**14 + 5
    assert integrators._pairwise(0, n, block_sum) == n
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    assert max(hi - lo for lo, hi in blocks) <= 1000


def _burkill(s, u, v):
    return (s - u) * np.sin(v) + (v - u) ** 1.5


_BLOCKED_CASES = [
    (make_integrand(lambda s: s, increments_of(lambda u: u * u), "tag"), 0.0, 1.0),
    (BurkillIntegrand("burkill", _burkill), 0.0, 1.0),
    (BurkillIntegrand("scalar", lambda s, u, v: 1e-3), 0.25, 3.0),
    (make_integrand(step_at(Fraction(1, 2)), dirichlet_factor(), "tag"), Fraction(0), Fraction(1)),
]


@pytest.mark.parametrize("h, a, b", _BLOCKED_CASES, ids=["s-dsquare", "burkill", "scalar", "step-dD"])
def test_blocked_levels_match_whole_levels(monkeypatch, h, a, b):
    # every level has more than one block of 64 cells (128, numpy's
    # shortest pairwise run); the tolerance and growth factor let the
    # non-telescoping integrands run every level
    stop = 9 if isinstance(a, Fraction) else 11
    ctrl = _ctrl(1e-15, 8, stop, growth_factor=4.0)
    default = rs_integrate(h, a, b, ctrl)
    monkeypatch.setattr(integrators, "_BLOCK_CELLS", 64)
    blocked = rs_integrate(h, a, b, ctrl)
    assert default.trace[-1].n >= 256
    assert repr(blocked) == repr(default)
    assert repr(blocked.strategy_sums) == repr(default.strategy_sums)
    for name, sums in default.strategy_sums.items():
        got = blocked.strategy_sums[name]
        assert got == sums and [type(x) for x in got] == [type(x) for x in sums]
    # and the whole-level sums of the public builders
    n = default.trace[-1].n
    builders = {"uniform": make_uniform, "shifted-uniform": make_shifted_uniform}
    whole = {strat.name: riemann_sum(h, builders[strat.cuts](a, b, n, *strat.selectors))
             for strat in RS_STRATEGIES}
    assert repr({k: v[-1] for k, v in blocked.strategy_sums.items()}) == repr(whole)


def test_blocked_fault_is_the_whole_levels_fault(monkeypatch):
    # at 1024 cells left tags fault at 769/1024 and 900/1024, in the
    # seventh and eighth blocks of 128, and midpoint tags at 201/2048, in
    # the first: rational-left is summed first, and its first faulting cell
    # is the one named
    def rule(s, u, v):
        if np.any(np.isin(s, (769 / 1024, 900 / 1024, 201 / 2048))):
            raise ValueError("bad tag")
        return (v - u) ** 2

    h = BurkillIntegrand("faulty", rule)
    errors = []
    for block_cells in (2**16, 64):
        monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
        with pytest.raises(IntegrandEvalError) as err:
            rs_integrate(h, 0.0, 1.0, _ctrl(1e-15, 10, 10))
        errors.append(err.value)
    assert [(e.tag, e.lo, e.hi, str(e)) for e in errors] == [
        (769 / 1024, 769 / 1024, 770 / 1024, str(errors[0]))
    ] * 2


def test_blocked_non_finite_sum_names_the_same_strategy(monkeypatch):
    # only the midpoint tag 201/2048 of the 1024-cell grid gives inf
    h = BurkillIntegrand("spike", lambda s, u, v: np.where(s == 201 / 2048, np.inf, (v - u) ** 2))
    errors = []
    for block_cells in (2**16, 64):
        monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
        with pytest.raises(NonFiniteSumError) as err:
            rs_integrate(h, 0.0, 1.0, _ctrl(1e-15, 4, 10))
        errors.append(err.value)
    assert [(e.strategy, e.level, str(e)) for e in errors] == [
        ("rational-mid", 10, "strategy 'rational-mid' summed to inf at level 10")
    ] * 2


def test_underflowing_grid_is_refused_as_before(monkeypatch):
    # (b - a) / n rounds to 0, so np.linspace's grid would have degenerate
    # cells: the grid check refuses it before any edge array is made
    points = []
    h = make_integrand(lambda s: points.append(s) or s, length_factor(), "tag")
    a, b = 0.0, 4 * 5e-324
    no_grid_arrays(monkeypatch)
    for block_cells in (2**16, 64):
        monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
        with pytest.raises(ArgumentError) as got:
            rs_integrate(h, a, b, _ctrl(1e-9, 10, 10))
        assert str(got.value) == f"cell width (b - a) / 1024 underflows to 0, got a={a!r}, b={b!r}"
    assert points == []


def test_grid_finer_than_the_floats_is_refused_by_name(monkeypatch):
    # ]1, 1 + 2**-40] holds 4096 floats: rs's level 13 and gauge's level 12,
    # whose endpoint tags take the 2**13 grid, would cut at points that round
    # onto each other, and used to fail on a degenerate cell after the edge
    # array was built
    h = make_integrand(lambda s: s * s, length_factor(), "tag")
    a, b = 1.0, 1.0 + 2.0 ** -40
    want = f"8192 cells need 8192 floats in ]a, b], which holds 4096, got a={a!r}, b={b!r}"
    ctrl = ConvergenceController(tolerance_abs=1e-300, tolerance_rel=0)
    for run, level in ((rs_integrate, 13), (gauge_integrate, 12)):
        with pytest.raises(ArgumentError) as got:
            run(h, a, b, ctrl)
        assert str(got.value) == want
        with monkeypatch.context() as patch:
            no_grid_arrays(patch)
            with pytest.raises(ArgumentError) as got:
                run(h, a, b, _ctrl(1e-300, level, level))
        assert str(got.value) == want


# --------------------------------------------------------------------------
# The level driver against summing each strategy on its own
# --------------------------------------------------------------------------


def _split_sides(lo, hi):
    """The two sides ]lo, m], ]m, hi] that a split-delta-fine strategy
    bisects: m lies the irrational fraction theta of the way from lo to hi,
    IRRATIONAL_SHIFT on exact bounds and FLOAT_SHIFT on floats."""
    if isinstance(lo, float) or isinstance(hi, float):
        m = lo + divisions.FLOAT_SHIFT * (hi - lo)
    else:
        m = lo + IRRATIONAL_SHIFT * (hi - lo)
    return (lo, m), (m, hi)


_BISECTIONS = ("delta-fine", "split-delta-fine")


def _reference_level_sums(h, strategies, pieces, known=None):
    """integrators._level_sums as a naive loop: each strategy in order adds
    up its own sums over the pieces, left to right, each block in order, and
    the first fault raises.  A grid strategy's blocks are _pairwise's, a
    delta-fine strategy's its pieces, and a split-delta-fine strategy's the
    two _split_sides of each piece.  Strategies of one grid cuts, or
    bisection strategies of one cuts and selector set, form a group, and a
    group's block is built once, when a strategy first needs it.  Every
    strategy evaluates h itself, whether or not h reads the tag, so the
    driver's store of shared sums, `known`, is ignored."""

    def group_key(strat):
        return (strat.cuts, frozenset(strat.selectors)) if strat.cuts in _BISECTIONS else strat.cuts

    grids = {"uniform": divisions._uniform_edges, "shifted-uniform": divisions._shifted_edges}
    n, sums = 0, {}
    for _, group in groupby(strategies, key=group_key):
        group = list(group)
        built = {}
        for k, strat in enumerate(group):
            cells = 0

            def block_sum(piece, *block):
                nonlocal cells
                key = (piece, *block)
                if key not in built:
                    lo, hi, mesh = pieces[piece]
                    if strat.cuts in _BISECTIONS:
                        if block:  # a side of a split piece
                            lo, hi = _split_sides(lo, hi)[block[0]]
                        orders = tuple(s.selectors for s in group)
                        build = divisions._delta_fine(lo, hi, mesh, orders, DEFAULT_DEPTH_CAP)
                    else:
                        edges = grids[strat.cuts](lo, hi, mesh, *block)
                        build = divisions._grid_columns(edges, [s.selectors[0] for s in group])
                    built[key] = build
                edges, columns = built[key]
                cells += len(edges) - 1
                return riemann_sum(h, TaggedDivision(columns[k], edges))

            total = None
            for piece, (_, _, mesh) in enumerate(pieces):
                if strat.cuts == "delta-fine":
                    piece_sum = block_sum(piece)
                elif strat.cuts == "split-delta-fine":
                    piece_sum = block_sum(piece, 0) + block_sum(piece, 1)
                else:
                    piece_sum = integrators._pairwise(
                        0, mesh, lambda lo, hi: block_sum(piece, lo, hi))
                total = piece_sum if total is None else total + piece_sum
            sums[strat.name] = total
            n = max(n, cells)
    return n, sums


def _faulty(h, windows, kinds=TAG_RULES, active=lambda: True):
    """h, raising at each tag inside one of the [lo, hi] windows that is of
    one of the `kinds`: its cell's left end, right end, or a point inside."""

    def rule(s, u, v):
        at = {"left": s == u, "right": s == v, "midpoint": (u < s) & (s < v)}
        at = np.any([at[kind] for kind in kinds], axis=0)
        if active() and any(np.any((lo <= s) & (s <= hi) & at) for lo, hi in windows):
            raise ValueError("tag in a faulty window")
        return h(s, u, v)

    return BurkillIntegrand(h.name, rule)


def _driver_and_reference(run):
    """[(outcome, gauge calls)] of run(monkeypatch, calls) under the driver
    and under the reference, with rs levels in blocks of 64 cells."""
    got = []
    for level_sums in (integrators._level_sums, _reference_level_sums):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrators, "_level_sums", level_sums)
            mp.setattr(integrators, "_BLOCK_CELLS", 64)
            try:
                result = run(mp, calls)
                outcome = repr((result, result.strategy_sums))
            except GaugeLabError as exc:
                outcome = (type(exc), str(exc))
        got.append((outcome, calls))
    return got


_KINDS = hst.sets(hst.sampled_from(TAG_RULES), min_size=1).map(sorted)
_WINDOWS = hst.lists(
    hst.tuples(hst.floats(0.0, 1.0), hst.sampled_from([1e-3, 1e-2, 5e-2])).map(
        lambda w: (w[0], w[0] + w[1])),
    max_size=3,
)


def _wave(form, windows, kinds, spike, exact=False):
    """A wave over the cells, faulting in the [lo, hi] windows and infinite
    within 1e-3 of `spike` (unless None).  Form "tag" reads the tag and
    faults at tags of the `kinds`, as _faulty does; the forms
    "interval-only", "left-endpoint" and "midpoint" are make_integrand's
    rules that ignore the tag, and fault where they sample the wave.  An
    `exact` wave is the polynomial x^2 - x, which stays in the exact regime
    on exact cells (windows then exact too, spike None)."""

    def wave(x):
        if exact:
            return x * x - x
        values = np.sin(7.0 * x)
        return values if spike is None else np.where(np.abs(x - spike) < 1e-3, np.inf, values)

    if form == "tag":
        return _faulty(BurkillIntegrand("wave", lambda s, u, v: (v - u) * wave(s)), windows, kinds)

    def point(x):
        if any(np.any((lo <= x) & (x <= hi)) for lo, hi in windows):
            raise ValueError("point in a faulty window")
        return wave(x)

    if form == "interval-only":
        factor = IntervalFactor("wave(v) |I|^2", lambda u, v: point(v) * (v - u) * (v - u))
        return make_integrand(None, factor, form)
    factor = length_factor() if form == "left-endpoint" else length_squared_factor()
    return make_integrand(point, factor, form)


_FORMS = hst.sampled_from(["tag", "interval-only", "left-endpoint", "midpoint"])
_EXACT_WINDOWS = _WINDOWS.map(lambda windows: [(Fraction(lo), Fraction(hi)) for lo, hi in windows])


def _refusing(mp, builder, first_level, cells_of_level):
    """Patch the grid builder `builder` ("uniform" or "shifted-uniform") of
    the driver and of the reference to refuse every grid from `first_level`
    on (never when None), as an unbuildable grid is refused."""
    real = integrators._GRID_EDGES[builder]

    def edges(a, b, n, lo, hi):
        if first_level is not None and n >= cells_of_level(first_level):
            raise ArgumentError(f"refused {builder} grid of {n} cells")
        return real(a, b, n, lo, hi)

    mp.setitem(integrators._GRID_EDGES, builder, edges)
    mp.setattr(divisions, {"uniform": "_uniform_edges",
                           "shifted-uniform": "_shifted_edges"}[builder], edges)


@settings(max_examples=40, deadline=None)
@given(form=_FORMS, windows=_WINDOWS, kinds=_KINDS, start=hst.integers(6, 10),
       spike=hst.none() | hst.floats(0.0, 1.0), refused=hst.none() | hst.integers(6, 10))
@example(  # rational-mid faults in the first block, rational-left in a later one
    form="tag", windows=[(0.0012, 0.0018), (0.9, 0.95)], kinds=["left", "midpoint"], start=10,
    spike=None, refused=None,
)
@example(  # the shared uniform grid faults in a later block, the shifted one too
    form="left-endpoint", windows=[(0.9, 0.95)], kinds=["left"], start=10, spike=None,
    refused=None,
)
@example(  # rational-mid faults in the uniform grid's last block, not yet
    # summed when the shifted grid, the later strategies', is refused
    form="tag", windows=[(0.95, 0.99)], kinds=["midpoint"], start=10, spike=None, refused=10,
)
def test_driver_matches_reference_on_rs(form, windows, kinds, start, spike, refused):
    # levels of 64 to 1024 cells, 1 to 16 blocks; a spike gives an inf sum,
    # and from level `refused` on the shifted grid is refused
    h = _wave(form, windows, kinds, spike)
    ctrl = _ctrl(1e-15, start, 10, growth_factor=4.0)

    def run(mp, calls):
        _refusing(mp, "shifted-uniform", refused, ctrl.schedule.cells_for)
        return rs_integrate(h, 0.0, 1.0, ctrl)

    (got, _), (want, _) = _driver_and_reference(run)
    assert got == want


@settings(max_examples=15, deadline=None)
@given(form=_FORMS, windows=_EXACT_WINDOWS, kinds=_KINDS, start=hst.integers(6, 8),
       refused=hst.none() | hst.integers(6, 8))
@example(  # rational-mid faults in the uniform grid's last block, not yet
    # summed when the shifted grid, the later strategies', is refused
    form="tag", windows=[(Fraction(95, 100), Fraction(99, 100))], kinds=["midpoint"], start=8,
    refused=8,
)
def test_driver_matches_reference_on_exact_rs(form, windows, kinds, start, refused):
    # the exact regime: levels of 64 to 256 exact cells, 1 to 4 blocks
    h = _wave(form, windows, kinds, None, exact=True)
    ctrl = _ctrl(1e-15, start, 8, growth_factor=4.0)

    def run(mp, calls):
        _refusing(mp, "shifted-uniform", refused, ctrl.schedule.cells_for)
        return rs_integrate(h, Fraction(0), Fraction(1), ctrl)

    (got, _), (want, _) = _driver_and_reference(run)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    interior=hst.lists(hst.sampled_from([0.25, 1 / 3, 0.6, 0.7]), max_size=2, unique=True),
    at_ends=hst.sampled_from([(), (0.0,), (1.0,)]),
    windows=_WINDOWS,
    kinds=_KINDS,
    gauge_fault=hst.tuples(hst.integers(0, 2), hst.integers(3, 8), hst.integers(0, 6)),
)
@example(  # right-first faults in the first piece, and the second is built after
    interior=[0.6], at_ends=(), windows=[(0.5, 0.59)], kinds=["right"], gauge_fault=(0, 8, 0),
)
def test_driver_matches_reference_on_anchored_lebesgue(
    interior, at_ends, windows, kinds, gauge_fault
):
    # 1 to 3 pieces split at the interior jumps; a gauge fault is (piece,
    # first level, first call) after which that piece's gauges return 0, so
    # a level past 7 or a piece past the last faults no gauge.  Away from
    # the jumps only right-first tags cells at their right end.
    jumps = sorted(set(interior) | set(at_ends)) or [1 / 3]
    g = step_distribution([(p, 1.0) for p in jumps], 0.0, 1.0)
    ctrl = _ctrl(1e-15, 3, 7)

    def run(mp, calls):
        levels = []  # the level of each anchoring gauge made, in order
        real_gauge, real_integrand = integrators.jump_anchoring_gauge, integrators.make_integrand

        def gauge_for(anchors, ceiling):
            level = round(-math.log2(ceiling))
            piece = levels.count(level)  # pieces are made left to right
            levels.append(level)
            made = real_gauge(anchors, ceiling)
            count = []

            def fn(s):
                calls.append((piece, level, repr(s.tolist())))
                count.append(1)
                widths = made.evaluate_batch(s)
                faulty_piece, first_level, first_call = gauge_fault
                if piece == faulty_piece and level >= first_level and len(count) > first_call:
                    return 0.0 * widths
                return widths

            return Gauge.from_function(fn)

        mp.setattr(integrators, "jump_anchoring_gauge", gauge_for)
        # the constant-mesh phase runs clean, so the anchored one is reached
        mp.setattr(integrators, "make_integrand",
                   lambda *args, **kw: _faulty(real_integrand(*args, **kw), windows,
                                               kinds, lambda: bool(levels)))
        return lebesgue_distribution_integrate(g, ctrl)

    (got, got_calls), (want, want_calls) = _driver_and_reference(run)
    assert got == want
    assert got_calls == want_calls


def _pole_gauges(calls, pole, gauge_fault):
    """level -> a gauge function, 2**-level + |s - pole| / 4, recording
    each call in `calls` as (level, points).  A gauge fault is (first
    level, first call): from that level on, the calls of a level after the
    first-call-th give width 0."""

    def gauges(level):
        count = []

        def fn(s):
            calls.append((level, repr(s.tolist())))
            count.append(1)
            faulty = level >= gauge_fault[0] and len(count) > gauge_fault[1]
            return (0.0 if faulty else 1.0) * (2.0 ** -level + np.abs(s - pole) / 4)

        return Gauge.from_function(fn)

    return gauges


@settings(max_examples=40, deadline=None)
@given(
    orders=hst.lists(hst.permutations(TAG_RULES).map(tuple),
                     min_size=2, max_size=4, unique=True),
    windows=_WINDOWS,
    kinds=_KINDS,
    pole=hst.floats(0.0, 1.0),
    gauge_fault=hst.tuples(hst.integers(3, 12), hst.integers(0, 20)),
)
@example(  # the second and third orders fault at once, at different cells
    orders=[("midpoint", "left", "right"), ("right", "left", "midpoint"),
            ("right", "midpoint", "left")],
    windows=[(0.0, 1.0)], kinds=["left", "right"], pole=0.5, gauge_fault=(12, 0),
)
def test_driver_matches_reference_on_shared_orders(orders, windows, kinds, pole, gauge_fault):
    # two to four orders of one selector set share each level's bisection;
    # a gauge fault is (first level, first call), and levels stop at 7
    strategies = [Strategy(f"order-{i}", "delta-fine", order) for i, order in enumerate(orders)]
    h = _faulty(make_integrand(lambda s: s, length_factor(), "tag"), windows, kinds)

    def run(mp, calls):
        return gauge_integrate(h, 0.0, 1.0, _ctrl(1e-15, 3, 7),
                               gauges=_pole_gauges(calls, pole, gauge_fault),
                               strategies=strategies)

    (got, got_calls), (want, want_calls) = _driver_and_reference(run)
    assert got == want
    assert got_calls == want_calls


_DELTA_FINE = (*GAUGE_STRATEGIES, *ANCHORED_STRATEGIES,
               Strategy("mid-first", "delta-fine", ("midpoint", "left")))


@settings(max_examples=40, deadline=None)
@given(
    form=_FORMS,
    strategies=hst.lists(hst.sampled_from(_DELTA_FINE), min_size=1, max_size=4, unique=True),
    windows=_WINDOWS,
    kinds=_KINDS,
    start=hst.integers(3, 8),
    spike=hst.none() | hst.floats(0.0, 1.0),
)
@example(  # gauge's three strategies, the midpoint tags on last level's grid
    form="interval-only", strategies=list(GAUGE_STRATEGIES), windows=[], kinds=["left"],
    start=3, spike=None,
)
@example(  # every grid's last midpoints fault: the left tags' cell is named
    form="midpoint", strategies=list(GAUGE_STRATEGIES), windows=[(0.99, 1.0)],
    kinds=["left"], start=6, spike=None,
)
def test_driver_matches_reference_on_constant_gauges(
    form, strategies, windows, kinds, start, spike
):
    # the default constant gauges, on grids of up to 512 cells
    h = _wave(form, windows, kinds, spike)
    ctrl = _ctrl(1e-15, start, 8, growth_factor=4.0)
    (got, _), (want, _) = _driver_and_reference(
        lambda mp, calls: gauge_integrate(h, 0.0, 1.0, ctrl, strategies=strategies))
    assert got == want


@settings(max_examples=15, deadline=None)
@given(
    form=_FORMS,
    strategies=hst.lists(hst.sampled_from(_DELTA_FINE), min_size=1, max_size=4, unique=True),
    windows=_EXACT_WINDOWS,
    kinds=_KINDS,
    start=hst.integers(3, 6),
)
@example(  # gauge's five rows on exact grids and split grids
    form="tag", strategies=list(GAUGE_STRATEGIES), windows=[], kinds=["left"], start=3,
)
def test_driver_matches_reference_on_exact_constant_gauges(form, strategies, windows, kinds, start):
    # the default constant gauges on exact bounds: grids of up to 64 cells,
    # split at an irrational point
    h = _wave(form, windows, kinds, None, exact=True)
    ctrl = _ctrl(1e-15, start, 6, growth_factor=4.0)
    (got, _), (want, _) = _driver_and_reference(
        lambda mp, calls: gauge_integrate(h, Fraction(0), Fraction(1), ctrl,
                                          strategies=strategies))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    strategies=hst.lists(hst.sampled_from(_DELTA_FINE), min_size=2, max_size=4, unique=True),
    windows=_WINDOWS,
    kinds=_KINDS,
    pole=hst.floats(0.0, 1.0),
    gauge_fault=hst.tuples(hst.integers(3, 7), hst.integers(0, 100)),
)
@example(  # split-left faults on its second side at level 3, after its five
    # gauge calls there; the right tags' bisection, a later strategy's whose
    # gauge would then give 0, is never made
    strategies=[GAUGE_STRATEGIES[3], GAUGE_STRATEGIES[2]], windows=[(0.5, 1.0)], kinds=["left"],
    pole=0.5, gauge_fault=(3, 5),
)
def test_driver_matches_reference_on_gauge_functions(strategies, windows, kinds, pole,
                                                     gauge_fault):
    # rows of different cuts and selector sets under one gauge function a
    # level, each row a bisection (two for a split row) of its own
    h = _faulty(make_integrand(lambda s: s, length_factor(), "tag"), windows, kinds)

    def run(mp, calls):
        return gauge_integrate(h, 0.0, 1.0, _ctrl(1e-15, 3, 7),
                               gauges=_pole_gauges(calls, pole, gauge_fault),
                               strategies=strategies)

    (got, got_calls), (want, want_calls) = _driver_and_reference(run)
    assert got == want
    assert got_calls == want_calls


def _exact_anchoring(anchors, ceiling, calls, tag, fault):
    """jump_anchoring_gauge on exact points: the distance to the nearest
    anchor, at most `ceiling`, and `ceiling` at an anchor.  Each call is
    recorded in `calls` as (*tag, points); fault(count) True makes the
    count-th call's widths 0."""
    count = []

    def fn(s):
        calls.append((*tag, repr(s.tolist())))
        count.append(1)
        dist = reduce(np.minimum, [abs(s - p) for p in anchors])
        widths = np.where(dist == 0, ceiling, np.minimum(dist, ceiling))
        return 0 * widths if fault(len(count)) else widths

    return Gauge.from_function(fn)


@settings(max_examples=20, deadline=None)
@given(
    interior=hst.lists(hst.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(3, 5)]),
                       max_size=2, unique=True),
    strategies=hst.lists(hst.sampled_from(_DELTA_FINE), min_size=1, max_size=3, unique=True),
    windows=_EXACT_WINDOWS,
    kinds=_KINDS,
    gauge_fault=hst.tuples(hst.integers(0, 2), hst.integers(3, 6), hst.integers(0, 6)),
)
@example(  # right-first faults in the second piece, and the third is built after
    interior=[Fraction(1, 4), Fraction(3, 5)], strategies=list(ANCHORED_STRATEGIES),
    windows=[(Fraction(2, 5), Fraction(17, 40))], kinds=["right"], gauge_fault=(2, 6, 0),
)
def test_driver_matches_reference_on_exact_anchored_pieces(
    interior, strategies, windows, kinds, gauge_fault
):
    # lebesgue_distribution_integrate's anchored levels in the exact regime:
    # the pieces between interior jumps, each under its own gauge function
    # anchoring its jumps (or its ends); a gauge fault is (piece, first
    # level, first call) after which that piece's gauge gives width 0
    edges = [Fraction(0), *sorted(interior), Fraction(1)]
    pieces = [(lo, hi, tuple(p for p in interior if lo <= p <= hi) or (lo, hi))
              for lo, hi in zip(edges, edges[1:])]
    h = _faulty(BurkillIntegrand("s ds", lambda s, u, v: s * (v - u)), windows, kinds)
    names = [strat.name for strat in strategies]

    def run(mp, calls):
        def sums_at(level):
            faulty_piece, first_level, first_call = gauge_fault
            return integrators._level_sums(h, strategies, [
                (lo, hi, _exact_anchoring(
                    anchors, Fraction(1, 2 ** level), calls, (piece, level),
                    lambda count, piece=piece: (piece == faulty_piece and level >= first_level
                                                and count > first_call)))
                for piece, (lo, hi, anchors) in enumerate(pieces)
            ], {})

        return integrators._ladder(_ctrl(1e-15, 3, 6), names, sums_at)

    (got, got_calls), (want, want_calls) = _driver_and_reference(run)
    assert got == want
    assert got_calls == want_calls


def _evaluated_cells(monkeypatch, run, level_sums=None):
    """[cells of each segment summed] of run() under the integrators, a
    segment being one division (or block) summed over one tagging, with
    `level_sums` in the place of the driver when given.  The driver sums a
    level's segments together and the reference's riemann_sum one at a
    time, both through divisions._segment_sums."""
    cells = []
    real = divisions._segment_sums

    def counted(h, tags, lefts, rights, is_exact, bounds):
        cells.extend(j - i for i, j in zip(bounds, bounds[1:]))
        return real(h, tags, lefts, rights, is_exact, bounds)

    with monkeypatch.context() as mp:
        mp.setattr(integrators, "_segment_sums", counted)
        mp.setattr(divisions, "_segment_sums", counted)  # riemann_sum's
        if level_sums is not None:
            mp.setattr(integrators, "_level_sums", level_sums)
        result = run()
    return result, cells


def _constant_gauge_grids(level):
    """[(lo, hi, cells)] of each GAUGE_STRATEGIES row's pieces, row by row,
    under gauge_integrate's default gauge 2**-level over ]0, 1]: each piece
    is cut into the coarsest grid of 2**k cells whose cells are fine for the
    row's tag, an endpoint tag needing a cell shorter than the gauge and a
    midpoint tag half a cell shorter."""
    delta = 2.0 ** -level
    grids = []
    for strat in GAUGE_STRATEGIES:
        sides = _split_sides(0.0, 1.0) if strat.cuts == "split-delta-fine" else [(0.0, 1.0)]
        reach = 2 * delta if strat.selectors == ("midpoint",) else delta
        for lo, hi in sides:
            k = next(k for k in range(64) if math.ldexp(hi - lo, -k) < reach)
            grids.append((lo, hi, 2 ** k))
    return grids


def test_tag_free_rule_sums_each_new_grid_once(monkeypatch):
    # h4 = |I|^2 under gauge's constant gauges: each piece of each row is a
    # uniform grid, and a grid one row or level has summed is not summed
    # again in the run (the left and right tags of a level share theirs,
    # and the midpoint tags take the endpoint tags' grid of the level
    # before).  Summed per strategy, every row sums every piece.
    entry = get_entry("h4")
    result, cells = _evaluated_cells(monkeypatch, lambda: run_entry(entry))
    levels = [row.level for row in result.trace]
    assert levels == list(range(4, levels[-1] + 1))
    summed, new = set(), []
    for level in levels:
        for grid in _constant_gauge_grids(level):
            if grid not in summed:
                summed.add(grid)
                new.append(grid[2])
    assert cells == new
    # the store lives for one run: a second run does the same work again
    assert _evaluated_cells(monkeypatch, lambda: run_entry(entry))[1] == cells
    unshared, every = _evaluated_cells(monkeypatch, lambda: run_entry(entry),
                                       _reference_level_sums)
    assert every == [n for level in levels for _, _, n in _constant_gauge_grids(level)]
    assert repr((unshared, unshared.strategy_sums)) == repr((result, result.strategy_sums))


def test_rule_built_directly_is_summed_by_every_strategy(monkeypatch):
    # h2 = s reads the tag, so its left and right sums differ and each
    # strategy evaluates it; so does any rule a caller wraps
    entry = get_entry("h2")
    h2 = entry.build()
    assert h2.reads_tag and _faulty(get_entry("h4").build(), []).reads_tag
    result, cells = _evaluated_cells(monkeypatch, lambda: run_entry(entry))
    levels = [row.level for row in result.trace]
    assert cells == [n for level in levels for _, _, n in _constant_gauge_grids(level)]
    sums = result.strategy_sums
    assert all(left != right for left, right in zip(sums["left-tags"], sums["right-tags"]))


def test_rs_rule_that_ignores_the_tag_sums_each_grid_once(monkeypatch):
    # rational-left and rational-mid share the uniform grid and its sum;
    # the shifted grid is summed on its own
    h = make_integrand(np.cos, length_factor(), "midpoint")
    ctrl = _ctrl(1e-15, 4, 6)
    result, cells = _evaluated_cells(monkeypatch, lambda: rs_integrate(h, 0.0, 1.0, ctrl))
    assert cells == [n for level in (4, 5, 6) for n in (2 ** level, 2 ** level)]
    sums = result.strategy_sums
    assert sums["rational-left"] == sums["rational-mid"] != sums["shifted-left"]
    unshared, _ = _evaluated_cells(monkeypatch, lambda: rs_integrate(h, 0.0, 1.0, ctrl),
                                   _reference_level_sums)
    assert repr((unshared, unshared.strategy_sums)) == repr((result, result.strategy_sums))


@pytest.mark.parametrize("run", [rs_integrate, gauge_integrate])
def test_exact_tag_free_sums_match_the_reference(monkeypatch, run):
    h = make_integrand(lambda s: s * s, increments_of(lambda u: u * u * u), "midpoint")
    ctrl = _ctrl(1e-15, 2, 7, growth_factor=4.0)
    result, cells = _evaluated_cells(monkeypatch, lambda: run(h, Fraction(0), Fraction(1), ctrl))
    unshared, every = _evaluated_cells(monkeypatch, lambda: run(h, Fraction(0), Fraction(1), ctrl),
                                       _reference_level_sums)
    assert repr((result, result.strategy_sums)) == repr((unshared, unshared.strategy_sums))
    assert sum(cells) < sum(every)


def test_overflowing_midpoints_are_still_refused(monkeypatch):
    # near the top of the float range the midpoint of two cut points
    # overflows; every integrator refuses such a domain up front, whether
    # or not its rule reads the tag, and so does a left-tagged grid
    h = make_integrand(None, length_factor(), "interval-only")
    a, b = 1.0e308, 1.7e308
    f = lambda s: s
    runs = [
        lambda: rs_integrate(h, a, b, _ctrl(1e-9, 4, 6)),
        lambda: gauge_integrate(h, a, b, _ctrl(1e-9, 4, 6)),
        lambda: darboux_riemann(f, ExtremaOracle.monotone(f), a, b, _ctrl(1e-9, 4, 6)),
        lambda: lebesgue_distribution_integrate(identity_distribution(a, b), _ctrl(1e-9, 4, 6)),
        lambda: make_uniform(a, b, 16, "left"),
    ]
    for level_sums in (integrators._level_sums, _reference_level_sums):
        monkeypatch.setattr(integrators, "_level_sums", level_sums)
        for run in runs:
            with pytest.raises(ArgumentError) as exc:
                run()
            assert str(exc.value) == f"float domain needs |a|, |b| < 2**1023, got a={a!r}, b={b!r}"


def test_strategies_that_share_a_name_are_refused():
    # f = 1 on s >= 1/2 against a unit jump at 1/2: left tags sum 0 and right
    # tags 1, so named apart the rows oscillate; under one name one row's
    # sums used to overwrite the other's and the run said converged
    f = lambda s: np.where(s >= 0.5, 1.0, 0.0)
    h = make_integrand(f, increments_of(f), "tag")
    ctrl = _ctrl(1e-9, 4, 8)
    apart = (Strategy("x", "delta-fine", ("left",)), Strategy("y", "delta-fine", ("right",)))
    assert gauge_integrate(h, 0.0, 1.0, ctrl, strategies=apart).status is Status.OSCILLATING
    same = (Strategy("x", "delta-fine", ("left",)), Strategy("x", "delta-fine", ("right",)))
    with pytest.raises(ArgumentError, match=r"distinct names, got \['x'\]"):
        gauge_integrate(h, 0.0, 1.0, ctrl, strategies=same)


def test_many_jumps_sum_piece_by_piece():
    # 1200 jumps make 1201 anchored pieces a level, whose sums are added
    # left to right: as many additions as pieces, none nested in another
    jumps = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 1200))
    g = step_distribution([(float(p), 1.0 / len(jumps)) for p in jumps], 0.0, 1.0)
    result = lebesgue_distribution_integrate(g, _ctrl(1e-12, 3, 4))
    # right-first tags every jump, so its sums are the jumps' mean
    assert result.strategy_sums["right-first"][-1] == pytest.approx(np.mean(jumps), abs=1e-12)
