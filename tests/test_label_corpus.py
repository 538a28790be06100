"""A corpus of integrands whose label follows from a theorem, and the edges
of the extrapolated stop.

Each corpus row runs `rs` and `gauge` at tolerance 1e-6 over levels 4:18
and asserts two things: no `converged` where the limit does not exist, and
any `converged` estimate within the tolerance of the known value and within
its own error bound.

* Step pairs, seeded: f and g are step functions with one or two jumps each,
  at dyadic, rational and irrational positions.  The mesh-limit
  Riemann-Stieltjes integral of f dg exists exactly when f and g share no
  jump, and then it is the sum of f(c) * (the mass of g at c).
* Aliasing rows: integrands that vanish, or nearly, at every tag of the
  coarse levels of some strategy table.
* A Burkill rule that is 0 at left and midpoint tags and v - u at right
  tags, so its sums depend on the tags at every level.
* Smooth rows, which the extrapolated stop settles well before the raw sums
  move less than the tolerance.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gaugelab import integrators
from gaugelab.catalog import step_at
from gaugelab.divisions import RefinementSchedule
from gaugelab.integrand import BurkillIntegrand, increments_of, length_factor, make_integrand
from gaugelab.integrators import (
    ConvergenceController,
    _aitken,
    gauge_integrate,
    rs_integrate,
    step_distribution,
)
from gaugelab.results import Status
from test_catalog_golden import replay

TOL = 1e-6
CTRL = ConvergenceController(tolerance_abs=TOL, schedule=RefinementSchedule(4, 18))
RUNS = {"rs": rs_integrate, "gauge": gauge_integrate}


def _check(run, h, truth):
    """Run h over ]0, 1]; truth None means the limit does not exist."""
    result = RUNS[run](h, 0.0, 1.0, CTRL)
    if result.status is Status.CONVERGED:
        assert truth is not None, f"{run}: converged {result.estimate!r} where no limit exists"
        error = abs(result.estimate - truth)
        assert error <= TOL, (run, result.estimate, truth)
        # the bound may round one ulp of the estimate short
        assert error <= result.error_bound + 4 * math.ulp(truth), (run, error, result.error_bound)
    return result


# --------------------------------------------------------------------------
# Step pairs
# --------------------------------------------------------------------------

_POSITIONS = (
    0.25, 0.5, 0.375, 0.625, 0.8125,  # dyadic: cut points of the uniform grids
    1 / 3, 2 / 7, 3 / 5, 5 / 9, 0.7,  # rational
    math.sqrt(2) - 1, 1 / math.pi, math.e - 2, math.sqrt(3) / 2, math.log(2),  # irrational
)


def _step_pairs(seed=20261020, pairs=60, shared=10):
    """[(f jumps, f heights, g jumps, g masses)]: the first `shared` pairs
    have a jump in common, the rest none."""
    rng = random.Random(seed)
    out = []
    for i in range(pairs):
        f_jumps = rng.sample(_POSITIONS, rng.randint(1, 2))
        others = [p for p in _POSITIONS if p not in f_jumps]
        if i < shared:
            g_jumps = [rng.choice(f_jumps)] + rng.sample(others, rng.randint(0, 1))
        else:
            g_jumps = rng.sample(others, rng.randint(1, 2))
        heights = [rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0]) for _ in f_jumps]
        masses = [rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in g_jumps]
        out.append((f_jumps, heights, g_jumps, masses))
    return out


_PAIRS = _step_pairs()


def _step_pair(f_jumps, heights, g_jumps, masses):
    """(h = f(s) * (g(v) - g(u)), its integral or None)."""
    steps = [step_at(c, 0.0, height) for c, height in zip(f_jumps, heights)]

    def f(s):
        return sum(step(s) for step in steps)

    g = step_distribution(list(zip(g_jumps, masses)), 0.0, 1.0)
    h = make_integrand(f, g.increments(), "tag")
    if set(f_jumps) & set(g_jumps):
        return h, None
    return h, sum(f(c) * m for c, m in zip(g_jumps, masses))


def test_corpus_has_shared_and_disjoint_pairs_at_every_kind_of_position():
    shared = [p for p in _PAIRS if set(p[0]) & set(p[2])]
    assert len(shared) == 10 and len(_PAIRS) == 60
    used = {c for f_jumps, _, g_jumps, _ in _PAIRS for c in (*f_jumps, *g_jumps)}
    assert {0.5, 1 / 3, math.sqrt(2) - 1} <= used


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("pair", range(len(_PAIRS)))
def test_step_pair(run, pair):
    h, truth = _step_pair(*_PAIRS[pair])
    result = _check(run, h, truth)
    if truth is not None:
        # once the cells separate the jumps every sum is the jump sum
        assert result.status is Status.CONVERGED


@pytest.mark.parametrize("run", sorted(RUNS))
def test_shared_jump_at_one_half(run):
    # the textbook case with no Riemann-Stieltjes integral: right tags see
    # f's jump inside g's cell, left and midpoint tags do not
    h = make_integrand(step_at(0.5), step_distribution([(0.5, 1.0)], 0, 1).increments(), "tag")
    assert _check(run, h, None).status is Status.OSCILLATING


# --------------------------------------------------------------------------
# Aliasing, tag-dependent and smooth rows
# --------------------------------------------------------------------------


def _indicator(lo, hi, period=1.0):
    """1 where frac(s * period) lies in ]lo, hi], else 0."""
    return lambda s: ((np.mod(s * period, 1.0) > lo) & (np.mod(s * period, 1.0) <= hi)) * 1.0


def _burkill(s, u, v):
    return 2 * (s - u) * (s - (u + v) / 2) / (v - u)


_ROWS = {
    # frac(16 s) in ]0.6, 0.9[: zero at every tag of the coarse levels
    "frac16": (make_integrand(_indicator(0.6, 0.9, 16), length_factor(), "tag"), 0.3),
    "narrow": (make_integrand(_indicator(0.3, 0.3 + 2.0 ** -13), length_factor(), "tag"),
               2.0 ** -13),
    # sin^2(32 pi s) sin^2(16 pi s - pi theta) vanishes at every level-4
    # tag of the rs grids, theta the shifted grids' offset
    "sin2": (make_integrand(
        lambda s: np.sin(32 * math.pi * s) ** 2
        * np.sin(16 * math.pi * s - math.pi * integrators.FLOAT_SHIFT) ** 2,
        length_factor(), "tag"), 0.25),
    "burkill": (BurkillIntegrand("burkill", _burkill), None),
    "square": (make_integrand(lambda s: s * s, length_factor(), "tag"), 1 / 3),
    "s_dsquare": (make_integrand(lambda s: s, increments_of(lambda u: u * u), "tag"), 2 / 3),
    "sqrt": (make_integrand(np.sqrt, length_factor(), "tag"), 2 / 3),
    "exp": (make_integrand(lambda s: np.exp(-s), length_factor(), "tag"), 1 - math.exp(-1)),
    "sin20": (make_integrand(lambda s: np.sin(20 * s), length_factor(), "tag"),
              (1 - math.cos(20)) / 20),
}


# The label of each row and run: the smooth rows converge on the
# extrapolated ladder, where the raw left-tag sums, moving about 1/n per
# level, would not settle by level 18; frac16, and the narrow indicator
# under gauge, stay undecided; the Burkill rule oscillates.
_LABELS = {
    **{(row, run): Status.CONVERGED
       for row in ("exp", "s_dsquare", "sin2", "sin20", "sqrt", "square") for run in RUNS},
    ("narrow", "rs"): Status.CONVERGED,
    ("narrow", "gauge"): Status.INCONCLUSIVE,
    ("frac16", "rs"): Status.INCONCLUSIVE,
    ("frac16", "gauge"): Status.INCONCLUSIVE,
    ("burkill", "rs"): Status.OSCILLATING,
    ("burkill", "gauge"): Status.OSCILLATING,
}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_row(run, row):
    assert _check(run, *_ROWS[row]).status is _LABELS[row, run]


# --------------------------------------------------------------------------
# Edges of the extrapolated stop
# --------------------------------------------------------------------------


def _ladder(sums, tol=1e-6):
    """The replay of one strategy's sums."""
    ctrl = ConvergenceController(tolerance_abs=tol, schedule=RefinementSchedule(0, 26))
    return replay(ctrl, [sums])


def _geometric(ratio, levels=20):
    """Partial sums 1 + ratio + ... + ratio**(k - 1), k = 1..levels."""
    return [(1 - ratio ** k) / (1 - ratio) for k in range(1, levels + 1)]


_NO_LIMIT = {
    "sqrt2": _geometric(math.sqrt(2)),  # total variation of a Brownian path
    "harmonic": [sum(1 / k for k in range(1, 2 ** n + 1)) for n in range(4, 16)],  # ratio -> 1
    "doubling": _geometric(2.0),  # h2's tag sums
    "alternating": _geometric(-0.5),
    "slow": _geometric(0.8),  # settles, but more slowly than the ratio bound
}


@pytest.mark.parametrize("name", sorted(_NO_LIMIT))
def test_no_extrapolated_limit(name):
    sums = _NO_LIMIT[name]
    assert [_aitken(sums[:k]) for k in range(3, len(sums) + 1)] == [None] * (len(sums) - 2)
    assert _ladder(sums).status is not Status.CONVERGED


def test_no_limit_after_a_flat_step():
    # d_{L-1} = 0 with d_L != 0 has no ratio
    assert _aitken([1.0, 1.0, 2.0]) is None
    assert _aitken([0.0, 1.0, 1.0, 2.0]) is None


def test_geometric_ladder_stops_at_its_limit():
    # ratio 1/2: E_L is the limit 2 from the third sum on, so the rule
    # fires once E_L and E_{L-1} have agreed at three levels running
    sums = _geometric(0.5, levels=20)
    result = _ladder(sums)
    assert result.status is Status.CONVERGED
    assert result.levels == 6  # E from the third sum, a pair from the fourth
    assert result.estimate == pytest.approx(2.0, abs=1e-12)
    assert result.error_bound <= 1e-12
    # the raw sums alone would run until they moved less than 1e-6
    assert abs(sums[5] - sums[4]) > 1e-6


def test_stable_window_is_tried_before_the_extrapolated_rule():
    # both rules fire first at the sixth sum: the raw increments fall below
    # 1e-6 from the fourth sum on, and the limits are 2 from the third
    sums = [2 - 6e-6 * 2.0 ** -k for k in range(12)]
    ctrl = ConvergenceController(tolerance_abs=1e-6, schedule=RefinementSchedule(0, 26))
    rows = [(x,) for x in sums[:6]]
    assert integrators._stable_window(ctrl, rows) and integrators._extrapolated_stable(ctrl, rows)
    result = _ladder(sums)
    assert result.levels == 6
    assert result.estimate == sums[5] and result.error_bound == 0.0


def test_limit_formula():
    assert _aitken([0.0, 1.0, 1.5]) == 2.0  # r = 1/2
    assert _aitken([0.0, 1.0, 1.75]) == 1.75 + 0.75 * 0.75 / 0.25  # r at the bound
    assert _aitken([0.0, 1.0, 1.0]) == 1.0  # d_L = 0: the sum itself
    assert _aitken([1.0, 1.0, 1.0]) == 1.0
    assert _aitken([0.0, 1.0]) is None


def test_non_finite_limit_never_counts():
    # ratio 3/4 towards 4 * 5e307: every sum is finite, every limit overflows
    sums = [5e307 * (4 * (1 - 0.75 ** k)) for k in range(1, 8)]
    assert all(math.isfinite(x) for x in sums)
    assert [_aitken(sums[:k]) for k in range(3, 8)] == [None] * 5
    assert _ladder(sums, tol=1e300).status is Status.INCONCLUSIVE


def test_exact_sums_keep_the_stable_window():
    # an exact ladder never extrapolates: its estimate stays exact
    sums = [Fraction(2) - Fraction(1, 2 ** k) for k in range(40)]
    assert _aitken(sums[:3]) is None
    result = _ladder(sums, tol=1e-9)
    assert result.status is Status.CONVERGED
    assert isinstance(result.estimate, Fraction)
    assert result.levels > 6
