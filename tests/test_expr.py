"""Expression grammar: parsing, printing, evaluation, monotonicity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gaugelab.errors import MonotonicityError
from gaugelab.expr import (
    BinOp,
    Call,
    EvalFaultError,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVarError,
    UnknownIdentError,
    Var,
    as_function,
    derive_extrema_oracle,
    evaluate,
    free_vars,
    parse,
    to_source,
)

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
