"""Acceptance gate: one test per shipping criterion, one verdict line each.

Run with -s (or read the -v test lines) to see the per-criterion verdicts.
Every tolerance here is a contract; loosening one is a release decision,
not a test fix.
"""

import contextlib
import json
import math
import statistics
import time

import numpy as np
import pytest

import test_catalog as catalog_tables
import test_expr as expr_tables
from gaugelab import (
    brownian_path,
    increment_integral,
    increments_of,
    ito_formula_residual,
    ito_sum,
    make_integrand,
    mc_run,
    quadratic_variation,
    refine_path,
    rs_integrate,
    stratonovich_sum,
    total_variation,
)
from gaugelab.catalog import get_entry, run_entry
from gaugelab.cli import main
from gaugelab.expr import evaluate, parse, to_source
from gaugelab.results import Status


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_classic_integrands():
    with criterion(1, "classic-integrands"):
        start = time.perf_counter()

        out = run_entry(get_entry("h1"))
        assert out.status is Status.CONVERGED
        assert out.estimate == 1

        out = run_entry(get_entry("h3"))
        assert out.status is Status.CONVERGED
        assert out.trace[-1].level <= 12
        assert abs(out.estimate - 1.0 / 3.0) <= 1e-6

        out = run_entry(get_entry("h4"))
        assert out.status is Status.CONVERGED
        assert out.trace[-1].level <= 17
        assert abs(out.estimate) <= 1e-5

        out = run_entry(get_entry("h5"))
        assert out.status is Status.CONVERGED
        assert out.trace[-1].level <= 17
        assert abs(out.estimate - 1.0 / 3.0) <= 1e-4

        out = run_entry(get_entry("h2"))
        assert out.status is Status.DIVERGED
        assert out.trace[-1].level <= 10

        assert time.perf_counter() - start < 5.0


def test_criterion_02_constant_telescoping():
    with criterion(2, "constant-telescoping"):
        # beta * dg telescopes to beta * (g(b) - g(a)) on every division
        integrators = catalog_tables.integrator_functions()
        for _, a, b, g, exact, range_value in integrators:
            assert g(b) - g(a) == range_value
        for beta in (-2, 0, 1, math.pi):
            for _, a, b, g, exact, range_value in integrators:
                h = make_integrand(lambda s, c=beta: c, increments_of(g))
                out = rs_integrate(h, a, b)
                want = beta * range_value
                assert out.status is Status.CONVERGED
                assert out.levels_run == 1
                if exact and not isinstance(beta, float):
                    assert out.estimate == want
                else:
                    err = abs(float(out.estimate) - float(want))
                    assert err <= 1e-12 * max(1.0, abs(float(want)))

        for path_id in range(1, 21):
            path = brownian_path(321, path_id, 1.0, 10)
            interpolated = lambda u, p=path: np.interp(u, p.times(), p.values)
            h = make_integrand(lambda s: 1.0, increments_of(interpolated))
            out = rs_integrate(h, 0.0, 1.0)
            want = path.values[-1] - path.values[0]
            assert out.status is Status.CONVERGED
            assert out.levels_run == 1
            assert abs(out.estimate - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_03_tag_sensitivity():
    with criterion(3, "tag-sensitivity"):
        start = time.perf_counter()

        out = run_entry(get_entry("step_dD"))
        assert out.status is Status.OSCILLATING
        assert len(out.trace) >= 8
        for row in out.trace:
            assert row.sum_max - row.sum_min == 1

        out = run_entry(get_entry("const_dD"))
        assert out.status is Status.CONVERGED
        assert out.estimate == 0

        assert time.perf_counter() - start < 1.0


def test_criterion_04_increment_identity(paths_1000_L14):
    with criterion(4, "increment-identity"):
        for path in paths_1000_L14:
            scale = max(1.0, max(abs(v) for v in path.values))
            endpoint = path.values[-1] - path.values[0]
            for level in range(0, 15):
                got = increment_integral(path, level)
                assert abs(got - endpoint) <= 1e-12 * scale


def test_criterion_05_ito_identity(paths_1000_L14):
    with criterion(5, "ito-identity"):
        # f = x^2/2: the residual is (x(t)^2 - x(0)^2)/2 - ito_sum(x) - QV/2
        half_square = (lambda x: 0.5 * x * x, lambda x: x, lambda x: 1.0)
        for path in paths_1000_L14:
            x_t = path.values[-1]
            scale = max(1.0, x_t * x_t)
            for level in range(4, 15):
                r = ito_formula_residual(path, *half_square, level)
                assert abs(r) <= 1e-10 * scale


def test_criterion_06_quadratic_variation_stats():
    with criterion(6, "quadratic-variation-stats"):
        start = time.perf_counter()
        level = 12
        stats = mc_run(
            lambda p: quadratic_variation(p, level), 1000, 1.0, level, 2026
        )
        assert 0.997 <= stats.mean <= 1.003
        expected_var = 2.0 * 2.0 ** -level
        assert 0.5 * expected_var <= stats.variance <= 2.0 * expected_var
        assert time.perf_counter() - start < 10.0


def test_criterion_07_convention_gap():
    with criterion(7, "convention-gap"):
        level = 12
        f = lambda x: x
        ito = mc_run(lambda p: ito_sum(p, f, level), 1000, 1.0, level, 777)
        strat = mc_run(
            lambda p: stratonovich_sum(refine_path(p), f, level),
            1000, 1.0, level, 777,
        )
        assert abs(ito.mean - 0.0) <= 3.0 * ito.stderr
        assert abs(strat.mean - 0.5) <= 3.0 * strat.stderr


def test_criterion_08_ito_formula(paths_1000_L14, paths_200_L14):
    with criterion(8, "ito-formula"):
        square = (lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
        for path in paths_1000_L14:
            x_t = path.values[-1]
            scale = max(1.0, x_t * x_t)
            for level in (4, 9, 14):
                r = ito_formula_residual(path, *square, level)
                assert abs(r) <= 1e-10 * scale

        cube = (lambda x: x ** 3, lambda x: 3.0 * x * x, lambda x: 6.0 * x)
        med = {}
        for level in (12, 14):
            med[level] = statistics.median(
                abs(ito_formula_residual(p, *cube, level))
                for p in paths_200_L14
            )
        assert med[12] <= 0.05
        assert med[14] < med[12]


def test_criterion_09_total_variation_growth():
    with criterion(9, "total-variation-growth"):
        means = {}
        for level in range(8, 15):
            stats = mc_run(
                lambda p, lv=level: total_variation(p, lv), 500, 1.0, level, 31415
            )
            means[level] = stats.mean
        for level in range(8, 14):
            ratio = means[level + 1] / means[level]
            assert 1.27 <= ratio <= 1.56


def test_criterion_10_distribution_ladder():
    with criterion(10, "distribution-ladder"):
        out = run_entry(get_entry("identity_dist"))
        assert out.status is Status.CONVERGED
        assert abs(out.estimate - 0.5) <= 1e-6

        out = run_entry(get_entry("twomass_step"))
        assert out.status is Status.CONVERGED
        assert abs(out.estimate - 4.0) <= 1e-9

        out = run_entry(get_entry("square_dist"))
        assert out.status is Status.CONVERGED
        assert abs(out.estimate - 2.0 / 3.0) <= 1e-5


def test_criterion_11_reproducible_artifacts(tmp_path):
    with criterion(11, "reproducible-artifacts"):
        goldens = [
            ["integrate", "--method", "gauge", "--catalog", "h3",
             "--out", str(tmp_path / "h3.csv"), "--no-timestamp"],
            ["integrate", "--method", "gauge", "--catalog", "h3",
             "--format", "json",
             "--out", str(tmp_path / "h3.json"), "--no-timestamp"],
            ["integrate", "--method", "rs", "--catalog", "step_dD",
             "--out", str(tmp_path / "osc.csv"), "--no-timestamp"],
            ["brownian", "qv", "--t", "1.0", "--level", "8",
             "--paths", "64", "--seed", "11",
             "--out", str(tmp_path / "qv.csv"), "--no-timestamp"],
            ["series", "--n", "1000",
             "--out", str(tmp_path / "series.csv"), "--no-timestamp"],
        ]
        for argv in goldens:
            out_path = tmp_path / argv[argv.index("--out") + 1].rsplit("/", 1)[1]
            main(list(argv))
            first = out_path.read_bytes()
            assert first
            main(list(argv))
            assert out_path.read_bytes() == first

        doc = json.loads((tmp_path / "h3.json").read_text())
        assert doc["status"] == "converged"


def test_criterion_12_expression_engine():
    with criterion(12, "expression-engine"):
        import random

        rng = random.Random(12345)
        for _ in range(1000):
            ast = expr_tables._random_ast(rng, 0)
            text = to_source(ast)
            again = parse(text)
            assert to_source(again) == text

        cases = expr_tables.PRECEDENCE_CASES
        assert len(cases) >= 20
        for text, binding, want in cases:
            got = evaluate(parse(text), binding)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

        malformed = expr_tables.MALFORMED
        assert len(malformed) >= 10
        for text, offset in malformed:
            with pytest.raises(Exception) as exc:
                parse(text)
            assert getattr(exc.value, "offset") == offset
