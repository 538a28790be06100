"""Dyadic paths, pathwise sums, and Monte Carlo plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtri

from gaugelab import stochastic
from gaugelab.errors import ArgumentError, EstimatorFailure, NonFiniteEstimateError
from gaugelab.stochastic import (
    BIT_GENERATOR,
    GAUSSIAN_TRANSFORM,
    DyadicPath,
    brownian_path,
    increment_integral,
    ito_formula_residual,
    ito_formula_residual_time,
    ito_sum,
    mc_run,
    path_from_function,
    quadratic_variation,
    refine_path,
    stratonovich_sum,
    total_variation,
)


def _reference_normals(master_seed, key, count):
    """The generator route as first written: one SeedSequence, Philox and
    Generator per substream, 53-bit integers, inverse normal CDF."""
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    gen = np.random.Generator(np.random.Philox(seq))
    k = gen.integers(0, 2**53, size=count, dtype=np.uint64)
    return ndtri((k.astype(np.float64) + 0.5) / 2**53)


def _reference_path(master_seed, path_id, t, level):
    """Level 0 and one bridge step per level, one path at a time."""
    z = _reference_normals(master_seed, (path_id, 0), 1)
    values = np.array([0.0, math.sqrt(t) * z[0]])
    for new_level in range(1, level + 1):
        n = len(values) - 1
        h = t / n
        xi = _reference_normals(master_seed, (path_id, new_level), n)
        mid = 0.5 * (values[:-1] + values[1:]) + 0.5 * math.sqrt(h) * xi
        finer = np.empty(2 * n + 1)
        finer[0::2] = values
        finer[1::2] = mid
        values = finer
    return values


class TestDyadicPath:
    def test_grid_shape(self):
        p = path_from_function(lambda s: s, 2.0, 3)
        assert p.n == 8
        assert len(p.values) == 9
        np.testing.assert_allclose(p.times(), np.linspace(0.0, 2.0, 9))

    def test_values_at_coarser_level(self):
        p = path_from_function(lambda s: s * s, 1.0, 4)
        coarse = p.values_at_level(2)
        np.testing.assert_array_equal(coarse, p.values[::4])

    def test_coarser_level_only(self):
        p = path_from_function(lambda s: s, 1.0, 3)
        with pytest.raises(ArgumentError):
            p.values_at_level(4)

    def test_refine_deterministic_path_keeps_coarse_values(self):
        p = path_from_function(np.sin, 1.0, 5)
        r = refine_path(p)
        assert r.level == 6
        np.testing.assert_array_equal(r.values[::2], p.values)


class TestBrownianPath:
    def test_deterministic_for_same_inputs(self):
        p1 = brownian_path(11, 4, 1.0, 8)
        p2 = brownian_path(11, 4, 1.0, 8)
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_distinct_paths_differ(self):
        p1 = brownian_path(11, 1, 1.0, 8)
        p2 = brownian_path(11, 2, 1.0, 8)
        assert not np.array_equal(p1.values, p2.values)

    def test_level_prefix_consistency(self):
        # deeper generation refines, never regenerates, the coarse values
        p8 = brownian_path(7, 1, 1.0, 8)
        p10 = brownian_path(7, 1, 1.0, 10)
        np.testing.assert_array_equal(p10.values[::4], p8.values)

    def test_refine_equals_direct_generation(self):
        p = refine_path(brownian_path(7, 1, 1.0, 6))
        q = brownian_path(7, 1, 1.0, 7)
        np.testing.assert_array_equal(p.values, q.values)

    def test_starts_at_zero(self):
        assert brownian_path(3, 1, 1.0, 4).values[0] == 0.0

    def test_increments_scale_with_horizon(self):
        # x(t) at level 0 is sqrt(t) * z with the same z for fixed ids
        a = brownian_path(5, 9, 1.0, 0)
        b = brownian_path(5, 9, 4.0, 0)
        assert b.values[-1] == pytest.approx(2.0 * a.values[-1])

    def test_declared_generator_constants(self):
        assert BIT_GENERATOR == "philox"
        assert GAUSSIAN_TRANSFORM == "inverse-cdf"

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, t):
        with pytest.raises(ArgumentError, match="horizon"):
            brownian_path(1, 1, t, 2)
        with pytest.raises(ArgumentError, match="horizon"):
            DyadicPath(t=t, level=0, values=np.zeros(2))

    def test_levels_above_max_refused_before_any_draw(self, monkeypatch):
        class Drew(Exception):
            pass

        def no_draws(*args):
            raise Drew

        monkeypatch.setattr(stochastic, "_standard_normals", no_draws)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            brownian_path(1, 1, 1.0, stochastic.MAX_LEVEL + 1)
        monkeypatch.setattr(stochastic, "MAX_LEVEL", 2)
        at_max = DyadicPath(t=1.0, level=2, values=np.zeros(5), master_seed=1, path_id=1)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            refine_path(at_max)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            refine_path(path_from_function(lambda s: s, 1.0, 2))

    def test_deterministic_levels_above_max_refused_before_sampling(self, monkeypatch):
        def never(s):
            raise AssertionError("sampled f for an oversize level")

        monkeypatch.setattr(stochastic, "MAX_LEVEL", 2)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            path_from_function(never, 1.0, 3)
        with pytest.raises(ArgumentError, match="MAX_LEVEL"):
            DyadicPath(t=1.0, level=3, values=np.zeros(9), source=never)
        assert path_from_function(lambda s: s, 1.0, 2).level == 2


class TestGenerator:
    """The batched generator against the one-substream-at-a-time route."""

    # master seeds of 1, 2, 4 and more than 4 32-bit words
    SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**127 + 5, 2**128, 2**200 + 12345)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substream_keys_match_seed_sequence(self, seed):
        ids = np.array([0, 1, 2, 1000, 2**31, 2**32 - 1], dtype=np.uint64)
        levels = np.array([0, 1, 12, 26], dtype=np.uint64)
        expected = np.array(
            [
                [
                    np.random.SeedSequence(seed, spawn_key=(int(i), int(lv)))
                    .generate_state(2, np.uint64)
                    for lv in levels
                ]
                for i in ids
            ]
        )
        block = stochastic._substream_keys(seed, ids[:, None], levels)
        assert block.dtype == np.uint64 and block.shape == (6, 4, 2)
        assert np.array_equal(block, expected)
        assert np.array_equal(stochastic._substream_keys(seed, ids, 0), expected[:, 0])
        for i, pid in enumerate(ids):
            for j, lv in enumerate(levels):
                keys = stochastic._substream_keys(seed, int(pid), int(lv))
                assert np.array_equal(keys, expected[i, j])

    def test_raw_top_bits_are_generator_integers(self):
        # Lemire's bounded method on the power-of-two range 2^53 never
        # rejects and keeps the top 53 bits of each raw output
        key = stochastic._substream_keys(99, 4, 5)
        raw = np.random.Philox(key=key).random_raw(4096) >> np.uint64(11)
        ints = np.random.Generator(np.random.Philox(key=key)).integers(
            0, 2**53, size=4096, dtype=np.uint64
        )
        assert np.array_equal(raw, ints)

    def test_standard_normals_rows_follow_their_keys(self):
        keys = stochastic._substream_keys(5, np.arange(1, 4, dtype=np.uint64), 2)
        rows = stochastic._standard_normals(keys, 9)
        for pid, row in zip((1, 2, 3), rows):
            assert row.tobytes() == _reference_normals(5, (pid, 2), 9).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=hst.integers(min_value=0, max_value=2**64 - 1),
        pid=hst.integers(min_value=0, max_value=2**32 - 1),
        level=hst.integers(min_value=0, max_value=10),
    )
    def test_brownian_path_matches_reference_route(self, seed, pid, level):
        path = brownian_path(seed, pid, 1.5, level)
        assert path.values.tobytes() == _reference_path(seed, pid, 1.5, level).tobytes()
        refined = refine_path(path)
        assert refined.values.tobytes() == _reference_path(seed, pid, 1.5, level + 1).tobytes()

    @pytest.mark.parametrize(
        "estimator",
        [
            lambda p: quadratic_variation(p, 12),
            lambda p: stratonovich_sum(refine_path(p), lambda x: x, 12),
            lambda p: ito_sum(p, np.sin, 12),
        ],
        ids=["qv", "strat", "ito"],
    )
    def test_mc_run_equals_serial_brownian_paths(self, estimator):
        # level-12 blocks hold 16 paths; 37 paths leave a partial block
        assert stochastic._BLOCK_VALUES >> 12 == 16
        stats = mc_run(estimator, 37, 1.0, 12, 2**63 + 9, keep_values=True)
        serial = [float(estimator(brownian_path(2**63 + 9, pid, 1.0, 12)))
                  for pid in range(1, 38)]
        assert np.array(stats.values).tobytes() == np.array(serial).tobytes()

    @pytest.mark.parametrize("pid", [-1, 2**32])
    def test_path_ids_fit_one_spawn_key_word(self, pid):
        with pytest.raises(ArgumentError, match="path id"):
            brownian_path(1, pid, 1.0, 2)
        with pytest.raises(ArgumentError, match="path id"):
            DyadicPath(t=1.0, level=0, values=np.zeros(2), master_seed=1, path_id=pid)

    def test_negative_master_seed_refused(self):
        with pytest.raises(ArgumentError, match="master seed"):
            brownian_path(-1, 1, 1.0, 2)

    def test_every_draw_goes_through_standard_normals(self, monkeypatch):
        calls = []
        draw = stochastic._standard_normals

        def recording(keys, count):
            calls.append((len(keys), count))
            return draw(keys, count)

        monkeypatch.setattr(stochastic, "_standard_normals", recording)
        path = brownian_path(3, 1, 1.0, 2)
        assert calls == [(1, 1), (1, 1), (1, 2)]
        calls.clear()
        refine_path(path)
        assert calls == [(1, 4)]
        calls.clear()
        mc_run(lambda p: 0.0, 20, 1.0, 12, 3)
        # blocks of 16 and 4 rows; level 0 and then 2^(level-1) per row
        per_block = lambda rows: [(rows, 1)] + [(rows, 1 << k) for k in range(12)]
        assert calls == per_block(16) + per_block(4)

    def test_paths_above_max_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew normals for an oversize path count")

        monkeypatch.setattr(stochastic, "_standard_normals", no_draws)
        with pytest.raises(ArgumentError, match="MAX_PATHS"):
            mc_run(lambda p: 0.0, stochastic.MAX_PATHS + 1, 1.0, 4, 1)
        monkeypatch.setattr(stochastic, "MAX_PATHS", 3)
        with pytest.raises(ArgumentError, match="MAX_PATHS"):
            mc_run(lambda p: 0.0, 4, 1.0, 4, 1)


class TestPathwiseSums:
    def test_increment_is_endpoint_difference(self):
        p = brownian_path(13, 2, 1.0, 10)
        for level in (0, 3, 10):
            assert increment_integral(p, level) == pytest.approx(
                p.values[-1] - p.values[0], abs=1e-12
            )

    def test_ito_left_endpoint_deterministic(self):
        lin = path_from_function(lambda s: s, 1.0, 1)
        assert ito_sum(lin, lambda x: x, 1) == 0.25

    def test_stratonovich_temporal_midpoint(self):
        lin = refine_path(path_from_function(lambda s: s, 1.0, 1))
        assert stratonovich_sum(lin, lambda x: x, 1) == 0.5

    def test_stratonovich_needs_one_deeper_level(self):
        p = brownian_path(17, 1, 1.0, 6)
        with pytest.raises(ArgumentError, match="refine_path"):
            stratonovich_sum(p, lambda x: x, 6)
        assert math.isfinite(stratonovich_sum(refine_path(p), lambda x: x, 6))

    def test_stratonovich_constant_function_telescopes(self):
        p = refine_path(brownian_path(23, 5, 1.0, 8))
        val = stratonovich_sum(p, lambda x: 2.5, 8)
        assert val == pytest.approx(2.5 * (p.values[-1] - p.values[0]), abs=1e-12)

    def test_qv_deterministic_linear(self):
        for L in (2, 4, 6):
            lin = path_from_function(lambda s: s, 1.0, L)
            assert quadratic_variation(lin, L) == pytest.approx(2.0 ** -L)

    def test_total_variation_zigzag_exact(self):
        from gaugelab.catalog import zigzag

        p = path_from_function(zigzag, 1.0, 6)
        for L in (2, 3, 6):
            assert total_variation(p, L) == pytest.approx(2.0)

    def test_total_variation_monotone_is_increment(self):
        p = path_from_function(lambda s: s * s, 1.0, 5)
        assert total_variation(p, 5) == pytest.approx(1.0)


class TestSumsKeepTheirFormulas:
    """Each pathwise sum, bit for bit, against its formula written out with
    the operand order of the one-function-per-sum version."""

    PATHS = {
        "brownian": lambda: refine_path(brownian_path(61, 2, 1.3, 9)),
        "deterministic": lambda: path_from_function(np.sin, 1.3, 10),
    }
    # (f, df, d2f) of x and (f, df_ds, df_dx, d2f_dx2) of (s, x)
    FUNCTIONS = {
        "scalar": (
            (lambda x: 3.0, lambda x: 0.5, lambda x: 2),
            (lambda s, x: 3.0, lambda s, x: 0.25, lambda s, x: 0.5, lambda s, x: 2),
        ),
        "array": (
            (np.sin, np.cos, lambda x: -np.sin(x)),
            (
                lambda s, x: np.exp(s) * np.sin(x),
                lambda s, x: np.exp(s) * np.sin(x),
                lambda s, x: np.exp(s) * np.cos(x),
                lambda s, x: -np.exp(s) * np.sin(x),
            ),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(FUNCTIONS))
    @pytest.mark.parametrize("source", sorted(PATHS))
    @pytest.mark.parametrize("level", [0, 5, 9])
    def test_bitwise(self, source, kind, level):
        path = self.PATHS[source]()
        (f, df, d2f), (g, dg_ds, dg_dx, d2g_dx2) = self.FUNCTIONS[kind]
        x = path.values[:: 1 << (path.level - level)]
        w = path.values[1 << (path.level - level - 1) :: 1 << (path.level - level)]
        dx = np.diff(x)
        spread = lambda v: np.broadcast_to(v, dx.shape)
        times = np.arange((1 << level) + 1, dtype=np.float64) * (path.t / (1 << level))
        su, xu, h = times[:-1], x[:-1], path.t / (1 << level)
        expected = {
            "increment": float(np.sum(np.diff(x))),
            "ito": float(np.sum(spread(f(x[:-1])) * dx)),
            "strat": float(np.sum(spread(f(w)) * dx)),
            "qv": float(np.sum(dx * dx)),
            "variation": float(np.sum(np.abs(dx))),
            "residual": (float(f(float(x[-1]))) - float(f(float(x[0]))))
            - float(np.sum(spread(df(xu)) * dx))
            - 0.5 * float(np.sum(spread(d2f(xu)) * dx * dx)),
            "residual_time": (
                float(g(float(times[-1]), float(x[-1]))) - float(g(0.0, float(x[0])))
            )
            - float(np.sum(spread(dg_ds(su, xu) + 0.5 * d2g_dx2(su, xu)) * h))
            - float(np.sum(spread(dg_dx(su, xu)) * dx)),
        }
        got = {
            "increment": increment_integral(path, level),
            "ito": ito_sum(path, f, level),
            "strat": stratonovich_sum(path, f, level),
            "qv": quadratic_variation(path, level),
            "variation": total_variation(path, level),
            "residual": ito_formula_residual(path, f, df, d2f, level),
            "residual_time": ito_formula_residual_time(
                path, g, dg_ds, dg_dx, d2g_dx2, level
            ),
        }
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in expected.items()
        }


# f = x^2/2, whose change-of-variable residual telescopes to zero exactly
_HALF_SQUARE = (lambda x: 0.5 * x * x, lambda x: x, lambda x: 1.0)


class TestItoIdentities:
    def test_identity_residual_vanishes_per_division(self):
        for pid in (1, 2, 3):
            p = brownian_path(31, pid, 1.0, 12)
            for L in (4, 8, 12):
                scale = max(1.0, p.values[-1] ** 2)
                assert abs(ito_formula_residual(p, *_HALF_SQUARE, L)) <= 1e-12 * scale

    def test_square_formula_residual_exact(self):
        p = brownian_path(37, 1, 1.0, 10)
        r = ito_formula_residual(p, lambda x: x * x, lambda x: 2 * x, lambda x: 2.0, 10)
        assert abs(r) <= 1e-12 * max(1.0, float(np.max(np.abs(p.values))) ** 2)

    def test_cubic_residual_shrinks_with_level(self):
        p = brownian_path(41, 1, 1.0, 14)
        f, df, d2f = (lambda x: x ** 3), (lambda x: 3 * x * x), (lambda x: 6 * x)
        r_coarse = abs(ito_formula_residual(p, f, df, d2f, 6))
        r_fine = abs(ito_formula_residual(p, f, df, d2f, 14))
        assert r_fine < r_coarse

    def test_time_variant_vs_plain_residual_gap_is_qv_minus_t(self):
        # for f(s, x) = x^2 the two conventions differ by exactly QV - t:
        # the plain form weights the second-order term with (dx)^2 while the
        # time form uses ds
        p = brownian_path(43, 2, 1.0, 10)
        for L in (4, 8, 10):
            plain = ito_formula_residual(
                p, lambda x: x * x, lambda x: 2 * x, lambda x: 2.0, L
            )
            timed = ito_formula_residual_time(
                p,
                lambda s, x: x * x,
                lambda s, x: 0.0,
                lambda s, x: 2 * x,
                lambda s, x: 2.0,
                L,
            )
            gap = quadratic_variation(p, L) - 1.0
            assert timed - plain == pytest.approx(gap, abs=1e-12)

    def test_time_variant_exact_for_linear_drift(self):
        # f(s, x) = s: change t - 0 minus the ds-sum of df_ds = 1 is zero
        p = brownian_path(47, 1, 2.0, 8)
        r = ito_formula_residual_time(
            p,
            lambda s, x: s,
            lambda s, x: 1.0,
            lambda s, x: 0.0,
            lambda s, x: 0.0,
            8,
        )
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_time_variant_matches_per_point_loop(self):
        # partials depending on both s and x, against the left-endpoint sums
        # written out one point at a time; only the summation order differs
        p = brownian_path(53, 3, 1.5, 9)
        f = lambda s, x: np.exp(s) * np.sin(x)
        df_ds = f
        df_dx = lambda s, x: np.exp(s) * np.cos(x)
        d2f_dx2 = lambda s, x: -np.exp(s) * np.sin(x)
        x, times, h = p.values, p.times(), p.t / p.n
        cells = list(zip(times[:-1], x[:-1], np.diff(x)))
        ds_part = sum((df_ds(s, xv) + 0.5 * d2f_dx2(s, xv)) * h for s, xv, _ in cells)
        dx_part = sum(df_dx(s, xv) * d for s, xv, d in cells)
        expected = f(times[-1], x[-1]) - f(0.0, x[0]) - ds_part - dx_part
        r = ito_formula_residual_time(p, f, df_ds, df_dx, d2f_dx2, 9)
        assert r == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMcRun:
    def test_deterministic(self):
        est = lambda p: quadratic_variation(p, 6)
        s1 = mc_run(est, 50, 1.0, 6, 99)
        s2 = mc_run(est, 50, 1.0, 6, 99)
        assert s1.mean == s2.mean and s1.variance == s2.variance

    def test_path_ids_run_serially_from_one(self):
        seen = []

        def est(p):
            seen.append(p.path_id)
            return 0.0

        mc_run(est, 5, 1.0, 3, 1)
        assert seen == [1, 2, 3, 4, 5]

    def test_single_path_variance_zero(self):
        stats = mc_run(lambda p: increment_integral(p, 3), 1, 1.0, 3, 8)
        assert stats.variance == 0.0 and stats.stderr == 0.0

    def test_stderr_formula(self):
        stats = mc_run(lambda p: increment_integral(p, 5), 64, 1.0, 5, 12)
        assert stats.stderr == pytest.approx(math.sqrt(stats.variance / 64))

    def test_estimator_failure_carries_path_id(self):
        def est(p):
            if p.path_id == 3:
                raise ValueError("boom")
            return 0.0

        with pytest.raises(EstimatorFailure) as err:
            mc_run(est, 5, 1.0, 3, 1)
        assert err.value.path_id == 3

    def test_non_finite_value_names_first_path(self):
        est = lambda p: math.nan if p.path_id in (3, 4) else 0.0
        with pytest.raises(NonFiniteEstimateError, match="path id=3") as err:
            mc_run(est, 5, 1.0, 3, 1)
        assert err.value.path_id == 3 and math.isnan(err.value.value)

    def test_overflowing_estimator_names_its_path(self):
        # QV at t=1e308 overflows inside the estimator: the overflow is
        # reported as the non-finite value it gives, not as a numpy warning
        est = lambda p: quadratic_variation(p, 4)
        with pytest.raises(NonFiniteEstimateError, match="path id=9") as err:
            mc_run(est, 10, 1e308, 4, 1)
        assert err.value.path_id == 9 and err.value.value == math.inf

    def test_overflowing_variance_raises(self):
        # finite values +-1e308: the mean is 0, the squared deviations overflow
        est = lambda p: 1e308 * (-1) ** p.path_id
        with pytest.raises(NonFiniteEstimateError, match="variance") as err:
            mc_run(est, 4, 1.0, 3, 1)
        assert err.value.path_id is None

    def test_keep_values(self):
        stats = mc_run(
            lambda p: increment_integral(p, 4), 10, 1.0, 4, 55, keep_values=True
        )
        assert stats.values is not None and len(stats.values) == 10
        assert stats.mean == pytest.approx(float(np.mean(stats.values)))

    def test_estimator_may_refine_its_path(self):
        stats = mc_run(
            lambda p: stratonovich_sum(refine_path(p), lambda x: x, 5),
            20, 1.0, 5, 7,
        )
        assert math.isfinite(stats.mean)


class TestStatisticalBehavior:
    def test_qv_concentrates_at_horizon(self):
        stats = mc_run(lambda p: quadratic_variation(p, 10), 300, 1.0, 10, 2718)
        assert stats.mean == pytest.approx(1.0, abs=0.01)

    def test_qv_variance_shrinks_like_two_to_minus_level(self):
        v = {}
        for L in (6, 9):
            v[L] = mc_run(lambda p, L=L: quadratic_variation(p, L), 400, 1.0, L, 3141).variance
        # var(QV_L) = 2 t^2 2^-L: three levels apart means a factor 8
        assert v[6] / v[9] == pytest.approx(8.0, rel=0.5)

    def test_tv_grows_like_sqrt2_per_level(self):
        m = {}
        for L in (8, 10):
            m[L] = mc_run(lambda p, L=L: total_variation(p, L), 200, 1.0, L, 1618).mean
        growth = math.sqrt(m[10] / m[8])  # two levels: ratio 2, per level sqrt 2
        assert growth == pytest.approx(math.sqrt(2.0), rel=0.1)


@settings(max_examples=20, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    pid=hst.integers(min_value=1, max_value=50),
    level=hst.integers(min_value=1, max_value=8),
)
def test_property_refinement_prefix(seed, pid, level):
    coarse = brownian_path(seed, pid, 1.0, level)
    fine = brownian_path(seed, pid, 1.0, level + 2)
    assert np.array_equal(fine.values[:: 4], coarse.values)


@settings(max_examples=20, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    level=hst.integers(min_value=1, max_value=10),
)
def test_property_identity_residual_zero(seed, level):
    p = brownian_path(seed, 1, 1.0, level)
    scale = max(1.0, p.values[-1] ** 2)
    assert abs(ito_formula_residual(p, *_HALF_SQUARE, level)) <= 1e-12 * scale
