"""Expression grammar: parsing, printing, evaluation, monotonicity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gaugelab.catalog import run_method
from gaugelab.divisions import RefinementSchedule
from gaugelab.errors import GaugeLabError, MonotonicityError
from gaugelab.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalFaultError,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVarError,
    UnknownIdentError,
    Var,
    _certify,
    as_function,
    derive_extrema_oracle,
    evaluate,
    free_vars,
    parse,
    to_source,
)
from gaugelab.integrand import length_factor, make_integrand
from gaugelab.integrators import ConvergenceController
from gaugelab.results import Status

PRECEDENCE_CASES = [
    ("2^3^2", None, 512.0),            # ^ associates right
    ("-s^2", {"s": 3.0}, -9.0),        # unary minus binds looser than ^
    ("2^-1", None, 0.5),               # unary minus allowed in exponent
    ("1--2", None, 3.0),
    ("6/2*3", None, 9.0),              # / and * associate left
    ("2-3-4", None, -5.0),
    ("2*3^2", None, 18.0),
    ("-2^2", None, -4.0),
    ("s*s^2", {"s": 2.0}, 8.0),
    ("2+3*4", None, 14.0),
    ("(2+3)*4", None, 20.0),
    ("2^2^-1", None, math.sqrt(2.0)),
    ("-(1+2)", None, -3.0),
    ("--3", None, 3.0),
    ("1/2/2", None, 0.25),
    ("sin(0)+1", None, 1.0),
    ("exp(0)^5", None, 1.0),
    ("abs(-3)+abs(3)", None, 6.0),
    ("2*-3", None, -6.0),
    ("x^2+s^2", {"x": 3.0, "s": 4.0}, 25.0),
]

MALFORMED = [
    ("2+", 2),
    ("(2", 2),
    ("2)", 1),
    ("sin 2", 4),
    ("2 3", 2),
    ("@", 0),
    ("1..2", 2),
    ("2*", 2),
    ("sin(s", 5),
    ("", 0),
]


@pytest.mark.parametrize("text,binding,want", PRECEDENCE_CASES)
def test_precedence(text, binding, want):
    assert evaluate(parse(text), binding) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("text,offset", MALFORMED)
def test_malformed_inputs_report_byte_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset
    assert f"byte {offset}" in str(err.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentError) as err:
        parse("foo(2)")
    assert err.value.offset == 0
    assert "sqrt" in str(err.value)  # lists the allowed names
    with pytest.raises(UnknownIdentError):
        parse("2 * y")


def test_unbound_variable_at_evaluation():
    ast = parse("s + x")
    with pytest.raises(UnboundVarError):
        evaluate(ast, {"s": 1.0})


def test_non_ascii_offset_is_in_bytes():
    # the pi character occupies two bytes; the error after it reports byte 3
    with pytest.raises((ExprSyntaxError, UnknownIdentError)) as err:
        parse("π")
    assert err.value.offset == 0


def test_to_source_full_parentheses():
    assert to_source(parse("1+2*3")) == "(1 + (2 * 3))"
    assert to_source(parse("-s^2")) == "(-(s ^ 2))"
    assert to_source(parse("sin(s)")) == "sin(s)"


def test_round_trip_fixed_corpus():
    for text, _, _ in PRECEDENCE_CASES:
        ast = parse(text)
        assert parse(to_source(ast)) == ast


def test_free_vars():
    assert free_vars(parse("sin(s)*x + 2")) == {"s", "x"}
    assert free_vars(parse("3function" if False else "3")) == frozenset()


def test_as_function():
    f = as_function(parse("s^2+1"), "s")
    assert f(3.0) == 10.0


def test_depth_cap():
    deep = "(" * 70 + "1" + ")" * 70
    with pytest.raises(ExprSyntaxError, match="nesting no deeper"):
        parse(deep)
    parse("(" * 10 + "1" + ")" * 10)  # modest nesting is fine


class TestEvaluation:
    def test_functions(self):
        assert evaluate(parse("sqrt(4)")) == 2.0
        assert evaluate(parse("log(exp(1))")) == pytest.approx(1.0)
        assert evaluate(parse("cos(0)")) == 1.0

    def test_division_by_zero_faults(self):
        with pytest.raises(EvalFaultError, match="division by zero"):
            evaluate(parse("1/0"))

    def test_domain_errors_fault_with_fragment(self):
        with pytest.raises(EvalFaultError, match="sqrt"):
            evaluate(parse("sqrt(0-4)"))
        with pytest.raises(EvalFaultError):
            evaluate(parse("log(0)"))

    def test_fractional_power_of_negative_faults(self):
        with pytest.raises(EvalFaultError):
            evaluate(parse("(0-2)^(1/2)"))

    def test_overflow_faults(self):
        with pytest.raises(EvalFaultError):
            evaluate(parse("10^10^10"))

    def test_underflow_is_not_a_fault(self):
        assert evaluate(parse("exp(0-800)")) == 0.0

    def test_arrays_give_arrays_of_the_input_shape(self):
        xs = np.array([[1.0, 4.0], [9.0, 16.0]])
        assert evaluate(parse("sqrt(x)"), {"x": xs}).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert evaluate(parse("3"), {"x": xs}).tolist() == [[3.0, 3.0], [3.0, 3.0]]
        assert type(evaluate(parse("sqrt(x)"), {"x": 4})) is float

    def test_array_faults_name_the_fragment(self):
        xs = np.array([1.0, 0.0, -1.0])
        with pytest.raises(EvalFaultError, match="division by zero") as err:
            evaluate(parse("1 + 1/x"), {"x": xs})
        assert err.value.fragment == "(1 / x)"
        with pytest.raises(EvalFaultError) as err:
            evaluate(parse("x^0.5"), {"x": xs})
        assert err.value.fragment == "(x ^ 0.5)"


class TestExactEvaluation:
    def test_literals_become_fractions(self):
        v = evaluate(parse("0.1 + 0.2"), exact=True)
        assert v == Fraction(3, 10)
        assert isinstance(v, Fraction)

    def test_power_by_repeated_multiplication(self):
        v = evaluate(parse("s^3"), {"s": Fraction(2, 3)}, exact=True)
        assert v == Fraction(8, 27)

    def test_negative_exponent_refused(self):
        with pytest.raises(EvalFaultError):
            evaluate(parse("2^-1"), exact=True)

    def test_fractional_exponent_refused(self):
        with pytest.raises(EvalFaultError):
            evaluate(parse("2^0.5"), exact=True)

    def test_abs_is_the_only_function(self):
        assert evaluate(parse("abs(0-2)"), exact=True) == 2
        for fn in ("sin", "cos", "exp", "log", "sqrt"):
            with pytest.raises(EvalFaultError, match="exact"):
                evaluate(parse(f"{fn}(1)"), exact=True)

    def test_division_by_zero_faults(self):
        with pytest.raises(EvalFaultError):
            evaluate(parse("1/(2-2)"), exact=True)


class TestMonotonicityOracle:
    def test_monotone_forms_accepted(self):
        cases = [
            ("s^2", 0.0, 1.0, (0.0, 1.0)),
            ("2*s+1", 0.0, 1.0, (1.0, 3.0)),
            ("sqrt(s)", 0.0, 4.0, (0.0, 2.0)),
            ("3.5", 0.0, 2.0, (3.5, 3.5)),
        ]
        for text, a, b, bounds in cases:
            oracle = derive_extrema_oracle(parse(text), a, b)
            lo, hi = oracle(np.array([a]), np.array([b]))
            assert (lo[0], hi[0]) == pytest.approx(bounds)

    def test_decreasing_form(self):
        oracle = derive_extrema_oracle(parse("exp(0-s)"), 0.0, 1.0)
        lo, hi = oracle(np.array([0.0, 0.5]), np.array([0.5, 1.0]))
        assert lo == pytest.approx([np.exp(-0.5), np.exp(-1.0)])
        assert hi == pytest.approx([1.0, np.exp(-0.5)])

    def test_uncertifiable_forms_refused(self):
        for text, a, b in [
            ("sin(s)*s", 0.0, 6.0),
            ("s^2", -1.0, 1.0),
            ("sin(s)", 0.0, 6.28),
            ("s+2/s", -3.0, -1.0),  # peaks at -sqrt(2)
        ]:
            with pytest.raises(MonotonicityError):
                derive_extrema_oracle(parse(text), a, b)

    def test_oracle_drives_darboux(self):
        from gaugelab.divisions import RefinementSchedule
        from gaugelab.integrators import ConvergenceController, darboux_riemann
        from gaugelab.results import Status

        ast = parse("sin(s)")
        oracle = derive_extrema_oracle(ast, 0.0, 1.0)
        f = as_function(ast, "s")
        ctrl = ConvergenceController(
            tolerance_abs=1e-3, schedule=RefinementSchedule(4, 12)
        )
        result = darboux_riemann(f, oracle, 0.0, 1.0, ctrl)
        assert result.status is Status.CONVERGED
        assert result.estimate == pytest.approx(1.0 - math.cos(1.0), abs=1e-3)


# The certifier as it was before the single walk, kept as a reference: two
# mutually recursive walks, one over ranges and one over directions, with
# the quotient rule corrected (the slope of c/g is -sign(c) * slope(g)).  A
# range that is not an interval, with a NaN end or ends out of order, counts
# as a failure of the reference, like the exceptions its arithmetic raises,
# and so does exp of an end past 709, whose clamp made the range too narrow.

_REF_FAILURES = (ArithmeticError, ValueError)
_REF_DIRECTIONS = {"inc": 1, "dec": -1, "const": 0, None: None}


def _ref_rng(node, lo, hi, var):
    a, b = _ref_rng_ends(node, lo, hi, var)
    if not a <= b:
        raise ArithmeticError(f"[{a}, {b}] is not an interval")
    return a, b


def _ref_rng_ends(node, lo, hi, var):
    inf = float("inf")
    if isinstance(node, Num):
        return node.value, node.value
    if isinstance(node, Var):
        return (lo, hi) if node.name == var else (-inf, inf)
    if isinstance(node, Neg):
        a, b = _ref_rng(node.operand, lo, hi, var)
        return -b, -a
    if isinstance(node, Call):
        a, b = _ref_rng(node.arg, lo, hi, var)
        if node.func == "exp":
            if 709.0 < b < inf:
                raise ArithmeticError("exp's clamp at 709 understates the range")
            return math.exp(max(a, -745.0)) if a > -inf else 0.0, (
                math.exp(min(b, 709.0)) if b < inf else inf
            )
        if node.func == "sqrt":
            return (math.sqrt(max(a, 0.0)), math.sqrt(b) if b < inf else inf)
        if node.func == "log":
            if a <= 0:
                return -inf, math.log(b) if 0 < b < inf else inf
            return math.log(a), math.log(b) if b < inf else inf
        if node.func == "abs":
            if a >= 0:
                return a, b
            if b <= 0:
                return -b, -a
            return 0.0, max(-a, b)
        return -1.0, 1.0
    la, lb = _ref_rng(node.left, lo, hi, var)
    ra, rb = _ref_rng(node.right, lo, hi, var)
    if node.op == "+":
        return la + ra, lb + rb
    if node.op == "-":
        return la - rb, lb - ra
    if node.op == "*":
        corners = [la * ra, la * rb, lb * ra, lb * rb]
        finite = [c for c in corners if not math.isnan(c)]
        return min(finite), max(finite)
    if node.op == "/":
        if ra <= 0 <= rb:
            return -inf, inf
        corners = [la / ra, la / rb, lb / ra, lb / rb]
        return min(corners), max(corners)
    if isinstance(node.right, Num) and float(node.right.value).is_integer():
        k = int(node.right.value)
        if k >= 0 and la >= 0:
            return la ** k, lb ** k
    return -inf, inf


def _ref_flip(direction):
    return {"inc": "dec", "dec": "inc"}.get(direction, direction)


def _ref_combine_sum(a, b):
    if a == "const":
        return b
    if b == "const" or a == b:
        return a
    return None


def _ref_mono(node, lo, hi, var):
    if isinstance(node, Num):
        return "const"
    if isinstance(node, Var):
        return "inc" if node.name == var else "const"
    if isinstance(node, Neg):
        return _ref_flip(_ref_mono(node.operand, lo, hi, var))
    if isinstance(node, Call):
        inner = _ref_mono(node.arg, lo, hi, var)
        if inner is None:
            return None
        a, b = _ref_rng(node.arg, lo, hi, var)
        if node.func in ("exp", "sqrt", "log"):
            return inner
        if node.func == "abs":
            if a >= 0:
                return inner
            if b <= 0:
                return _ref_flip(inner)
            return None
        if node.func == "sin":
            if -math.pi / 2 <= a and b <= math.pi / 2:
                return inner
            if math.pi / 2 <= a and b <= 3 * math.pi / 2:
                return _ref_flip(inner)
            return None
        if 0 <= a and b <= math.pi:
            return _ref_flip(inner)
        if -math.pi <= a and b <= 0:
            return inner
        return None
    ml = _ref_mono(node.left, lo, hi, var)
    mr = _ref_mono(node.right, lo, hi, var)
    if node.op in "+-":
        if ml is None or mr is None:
            return None
        return _ref_combine_sum(ml, mr if node.op == "+" else _ref_flip(mr))
    la, lb = _ref_rng(node.left, lo, hi, var)
    ra, rb = _ref_rng(node.right, lo, hi, var)
    if node.op == "*":
        if ml == "const":
            if la >= 0:
                return mr if la > 0 or lb > 0 else "const"
            if lb <= 0:
                return _ref_flip(mr)
            return None
        if mr == "const":
            if ra >= 0:
                return ml if ra > 0 or rb > 0 else "const"
            if rb <= 0:
                return _ref_flip(ml)
            return None
        if ml is None or mr is None:
            return None
        if la >= 0 and ra >= 0 and ml == mr:
            return ml
        return None
    if node.op == "/":
        if mr == "const" and not ra <= 0 <= rb:
            return ml if ra > 0 else _ref_flip(ml)
        if ml == "const" and mr is not None and (ra > 0 or rb < 0):
            if la >= 0:
                return _ref_flip(mr)
            if lb <= 0:
                return mr
        return None
    if mr == "const" and isinstance(node.right, Num):
        k = node.right.value
        if ml is None:
            return None
        if la >= 0:
            if k > 0:
                return ml
            if k == 0:
                return "const"
            if la > 0:
                return _ref_flip(ml)
        if float(k).is_integer() and lb <= 0:
            ki = int(k)
            if ki > 0:
                return ml if ki % 2 else _ref_flip(ml)
    if ml == "const" and isinstance(node.left, Num):
        base = node.left.value
        if mr is None:
            return None
        if base > 1:
            return mr
        if base == 1:
            return "const"
        if 0 < base < 1:
            return _ref_flip(mr)
    return None


_S_ASTS = hst.recursive(
    hst.one_of(
        hst.just(Var("s")),
        hst.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]).map(Num),
    ),
    lambda inner: hst.one_of(
        inner.map(Neg),
        hst.builds(Call, hst.sampled_from(FUNCTIONS), inner),
        hst.builds(BinOp, hst.sampled_from("+-*/^"), inner, inner),
    ),
    max_leaves=8,
)
_DOMAINS = hst.sampled_from([(0.0, 1.0), (-3.0, -1.0), (-1.0, 1.0), (1.0, 4.0), (-6.0, 0.0)])


@settings(max_examples=300, deadline=None)
@given(ast=_S_ASTS, domain=_DOMAINS)
@example(ast=parse("s-2/s"), domain=(-3.0, -1.0))
@example(ast=parse("0/s+s"), domain=(1.0, 4.0))  # 0/g keeps the reverse of g's slope
@example(ast=parse("cos(sqrt(s))"), domain=(-3.0, -1.0))  # cos on [0, 0] falls
def test_walk_matches_reference(ast, domain):
    """One walk gives the reference's verdict and direction wherever the
    reference's range arithmetic raises nothing."""
    a, b = domain
    try:
        want = _REF_DIRECTIONS[_ref_mono(ast, a, b, "s")]
    except _REF_FAILURES:
        return
    assert _certify(ast, a, b, "s")[2] == want, to_source(ast)


@settings(max_examples=200, deadline=None)
@given(ast=_S_ASTS, domain=_DOMAINS)
@example(ast=parse("s+2/s"), domain=(-3.0, -1.0))  # peaks at -sqrt(2)
@example(ast=parse("s*0*sqrt(s-5)"), domain=(0.0, 1.0))
@example(ast=parse("s*exp(exp(s))"), domain=(7.0, 8.0))
@example(ast=parse("(s+1e200)^2*s"), domain=(0.0, 1.0))
@example(ast=parse("exp(s-49000)*s"), domain=(1.0, 4.0))
@example(ast=parse("abs(exp(s)-exp(709.3))"), domain=(709.0, 709.7))
def test_certified_expressions_are_monotone(ast, domain):
    """The certifier raises nothing but MonotonicityError, and what it
    certifies is monotone on a 2001-point grid wherever it evaluates."""
    a, b = domain
    try:
        derive_extrema_oracle(ast, a, b)
    except MonotonicityError:
        return
    try:
        y = evaluate(ast, {"s": np.linspace(a, b, 2001)})
    except EvalFaultError:
        return
    step = np.diff(y)
    slack = 1e-9 * np.maximum(np.abs(y[:-1]), np.abs(y[1:]))
    assert np.all(step >= -slack) or np.all(step <= slack), to_source(ast)


def test_quotient_slope_ignores_the_sign_of_the_denominator():
    assert _certify(parse("s-2/s"), -3.0, -1.0, "s")[2] == 1
    assert _certify(parse("2/s"), -3.0, -1.0, "s")[2] == -1
    assert _certify(parse("(0-2)/s"), 1.0, 3.0, "s")[2] == 1


def test_ranges_are_ordered_and_hold_every_value():
    """Overflow reads inf, exp of a very negative range stays ordered, and
    exp keeps its true upper end up to the largest float."""
    lo, hi, _ = _certify(parse("exp(s)"), -49000.0, -48997.0, "s")
    assert 0.0 < lo <= hi
    assert _certify(parse("exp(s)"), 709.0, 709.7, "s")[:2] == (
        math.exp(709.0), math.exp(709.7)
    )
    assert _certify(parse("exp(exp(s))"), 7.0, 8.0, "s")[:2] == (math.inf, math.inf)
    assert _certify(parse("(s+1e200)^2"), 0.0, 1.0, "s")[:2] == (math.inf, math.inf)
    assert _certify(parse("1e999-1e999"), 0.0, 1.0, "s")[:2] == (-math.inf, math.inf)


def _random_ast(rng, depth=0):
    roll = rng.random()
    if depth >= 5 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(rng.choice([1.0, 2.0, 0.5, 3.25]), None)
        return Var(rng.choice(["s", "x"]))
    if roll < 0.45:
        return Neg(_random_ast(rng, depth + 1))
    if roll < 0.6:
        fn = rng.choice(["sin", "cos", "exp", "log", "sqrt", "abs"])
        return Call(fn, _random_ast(rng, depth + 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_thousand_random_asts_round_trip():
    rng = random.Random(12345)
    for _ in range(1000):
        ast = _random_ast(rng)
        assert parse(to_source(ast)) == ast


def test_array_evaluation_matches_per_element_bitwise():
    """Over 1000 random ASTs on a grid spanning negatives and zero, array
    evaluation equals per-element evaluation bit for bit, or both fault."""
    rng = random.Random(12345)
    s = np.linspace(-1.5, 2.5, 17)
    x = np.linspace(-2.0, 2.0, 17)
    for _ in range(1000):
        ast = _random_ast(rng)
        try:
            expected = np.array(
                [evaluate(ast, {"s": si, "x": xi}) for si, xi in zip(s, x)]
            )
        except EvalFaultError:
            with pytest.raises(EvalFaultError):
                evaluate(ast, {"s": s, "x": x})
            continue
        got = evaluate(ast, {"s": s, "x": x})
        assert got.shape == s.shape, to_source(ast)
        assert got.tobytes() == expected.tobytes(), to_source(ast)


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(min_value=0, max_value=2**31))
def test_property_round_trip(seed):
    ast = _random_ast(random.Random(seed))
    assert parse(to_source(ast)) == ast


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**31),
    method=hst.sampled_from(["rs", "gauge"]),
    tolerance=hst.floats(min_value=1e-9, max_value=1.0),
    start=hst.integers(min_value=0, max_value=12),
    extra=hst.integers(min_value=0, max_value=3),
)
def test_property_converged_runs_are_finite(seed, method, tolerance, start, extra):
    """A run that says converged has a finite estimate and error bound; a
    typed error is an accepted outcome, a non-finite converged never is."""
    ast = _random_ast(random.Random(seed))
    point = lambda s: evaluate(ast, {"s": s, "x": s})
    h = make_integrand(point, length_factor())
    ctrl = ConvergenceController(
        tolerance_abs=tolerance,
        schedule=RefinementSchedule(start, min(start + extra, 12)),
    )
    try:
        result = run_method(method, h, (0.0, 1.0), ctrl)
    except GaugeLabError:
        return
    if result.status is Status.CONVERGED:
        assert math.isfinite(result.estimate), to_source(ast)
        assert math.isfinite(result.error_bound), to_source(ast)
