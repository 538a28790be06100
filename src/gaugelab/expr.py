"""Tiny expression language for naming point functions on the command line.

Grammar (normative, also shown in CLI help):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

'^' is right-associative and binds above '*' and '/'; unary minus binds the
whole power, so -s^2 is -(s^2).  Expressions denote point functions only;
interval factors are chosen by CLI flags and composed outside the grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, FrozenSet, Optional, Tuple, Union

import numpy as np

from .errors import GaugeLabError, MonotonicityError
from .integrators import ExtremaOracle

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
VARIABLES = ("s", "x")
MAX_DEPTH = 64


class ExprError(GaugeLabError):
    """Base for parse and evaluation errors of the expression language."""


class ExprSyntaxError(ExprError):
    """Malformed input; carries the byte offset and the expected-token set."""

    def __init__(self, offset: int, expected: Tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"syntax error at byte {offset}: expected {' or '.join(self.expected)}, "
            f"found {found}"
        )


class UnknownIdentError(ExprError):
    """Identifier is neither a variable nor a function."""

    def __init__(self, offset: int, name: str):
        self.offset = offset
        self.name = name
        allowed = ", ".join(VARIABLES + FUNCTIONS)
        super().__init__(
            f"unknown identifier {name!r} at byte {offset}; allowed names: {allowed}"
        )


class UnboundVarError(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} has no bound value")


class EvalFaultError(ExprError):
    """Domain fault during evaluation; carries the offending sub-expression."""

    def __init__(self, fragment: str, detail: str):
        self.fragment = fragment
        super().__init__(f"cannot evaluate {fragment}: {detail}")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    lexeme: str = field(compare=False, default="")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]


def to_source(e: Expression) -> str:
    """Fully parenthesized rendering; reparsing it reproduces the AST."""
    if isinstance(e, Num):
        return e.lexeme or repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_source(e.operand)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    return f"{e.func}({to_source(e.arg)})"


def free_vars(e: Expression) -> FrozenSet[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Call):
        return free_vars(e.arg)
    return frozenset()


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_OPS = "+-*/^()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | one of _OPS | "end"
    text: str
    pos: int  # codepoint index into the source


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                self.tokens.append(_Token("number", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(_Token("ident", text[i:j], i))
                i = j
                continue
            if ch in _OPS:
                self.tokens.append(_Token(ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(
                byte_offset(text, i), ("a number", "a name", "an operator"), repr(ch)
            )
        self.tokens.append(_Token("end", "", n))


def byte_offset(text: str, pos: int) -> int:
    """Codepoint position -> byte offset (they agree on ASCII input)."""
    return len(text[:pos].encode("utf-8"))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_ATOM_EXPECTED = ("a number", "a name", "'('", "'-'")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _Lexer(text).tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: Tuple[str, ...]):
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(byte_offset(self.text, tok.pos), expected, found)

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(
                byte_offset(self.text, self.peek().pos),
                (f"nesting no deeper than {MAX_DEPTH}",),
                "deeper nesting",
            )

    def leave(self):
        self.depth -= 1

    def parse(self) -> Expression:
        if self.peek().kind == "end":
            self.fail(_ATOM_EXPECTED)
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("an operator", "end of input"))
        return e

    def expr(self) -> Expression:
        self.enter()
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            e = BinOp(op, e, self.term())
        self.leave()
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expression:
        self.enter()
        if self.peek().kind == "-":
            self.take()
            e = Neg(self.factor())
        else:
            e = self.power()
        self.leave()
        return e

    def power(self) -> Expression:
        e = self.atom()
        if self.peek().kind == "^":
            self.take()
            e = BinOp("^", e, self.factor())
        return e

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            try:
                value = float(tok.text)
            except ValueError:
                raise ExprSyntaxError(
                    byte_offset(self.text, tok.pos), ("a number",), repr(tok.text)
                ) from None
            return Num(value, tok.text)
        if tok.kind == "ident":
            self.take()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentError(byte_offset(self.text, tok.pos), tok.text)
                self.take()
                self.enter()
                arg = self.expr()
                self.leave()
                if self.peek().kind != ")":
                    self.fail(("')'",))
                self.take()
                return Call(tok.text, arg)
            if tok.text in VARIABLES:
                return Var(tok.text)
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(
                    byte_offset(self.text, self.peek().pos),
                    (f"'(' after function {tok.text!r}",),
                    "end of input" if self.peek().kind == "end" else repr(self.peek().text),
                )
            raise UnknownIdentError(byte_offset(self.text, tok.pos), tok.text)
        if tok.kind == "(":
            self.take()
            self.enter()
            e = self.expr()
            self.leave()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.take()
            return e
        self.fail(_ATOM_EXPECTED)


def parse(text: str) -> Expression:
    """Parse per the module grammar; errors carry byte offsets."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

_NP_FUNCS = {name: getattr(np, name) for name in FUNCTIONS}


@np.errstate(divide="raise", over="raise", invalid="raise", under="ignore")
def evaluate(e: Expression, binding=None, *, exact: bool = False):
    """Evaluate with variables bound by `binding`.

    Float mode computes in numpy float64: scalars give a float, arrays give
    an array of their shape (constants broadcast to it).  Division by zero,
    overflow and invalid values such as log(0) raise EvalFaultError naming
    the sub-expression, for scalars and arrays alike; underflow does not.
    Exact mode keeps every scalar in the exact regime (Fraction literals,
    exact field operations, integer powers); the transcendental functions
    are refused there since their values would leave the field.
    """
    binding = binding or {}
    if exact:
        return _walk(e, binding, True)
    values = {k: np.asarray(v, np.float64) if isinstance(v, np.ndarray) else np.float64(v)
              for k, v in binding.items()}
    out = _walk(e, values, False)
    shapes = [v.shape for v in binding.values() if isinstance(v, np.ndarray)]
    if not shapes:
        return float(out)
    shape = np.broadcast_shapes(*shapes)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _walk(node, binding, exact: bool):
    if isinstance(node, Num):
        if exact:
            return Fraction(node.lexeme) if node.lexeme else Fraction(node.value)
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.name not in binding:
            raise UnboundVarError(node.name)
        return binding[node.name]
    if isinstance(node, Neg):
        return -_walk(node.operand, binding, exact)
    if isinstance(node, Call):
        if exact and node.func != "abs":
            raise EvalFaultError(
                to_source(node), f"{node.func} is unavailable in exact arithmetic"
            )
        arg = _walk(node.arg, binding, exact)
        if exact:
            return abs(arg)
        try:
            return _NP_FUNCS[node.func](arg)
        except FloatingPointError as exc:
            raise EvalFaultError(to_source(node), str(exc)) from exc
    left = _walk(node.left, binding, exact)
    right = _walk(node.right, binding, exact)
    try:
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if exact:
            return _exact_pow(node, left, right)
        return np.power(left, right)
    except ZeroDivisionError as exc:
        raise EvalFaultError(to_source(node), "division by zero") from exc
    except FloatingPointError as exc:
        zero_divisor = node.op == "/" and bool(np.any(right == 0))
        detail = "division by zero" if zero_divisor else str(exc)
        raise EvalFaultError(to_source(node), detail) from exc


def _exact_pow(node, base, exponent):
    if not (isinstance(exponent, Fraction) and exponent.denominator == 1 and exponent >= 0):
        raise EvalFaultError(
            to_source(node), "exact powers need non-negative integer exponents"
        )
    out = 1
    for _ in range(int(exponent)):
        out = out * base
    return out


def as_function(e: Expression, var: str) -> Callable:
    """Close the float expression over one variable (a scalar or an array)."""

    def f(value):
        return evaluate(e, {var: value})

    f.__name__ = to_source(e)
    return f


# --------------------------------------------------------------------------
# Monotonicity analysis -> extrema oracles
# --------------------------------------------------------------------------
#
# Darboux integration needs true per-cell bounds, and sampling cannot provide
# them.  For expressions we certify a monotone direction on the whole domain
# by structural rules plus interval range arithmetic; anything we cannot
# certify is refused rather than approximated.

_INC, _DEC, _CONST = "inc", "dec", "const"


def _rng(node, lo: float, hi: float, var: str) -> Tuple[float, float]:
    inf = float("inf")
    if isinstance(node, Num):
        return node.value, node.value
    if isinstance(node, Var):
        return (lo, hi) if node.name == var else (-inf, inf)
    if isinstance(node, Neg):
        a, b = _rng(node.operand, lo, hi, var)
        return -b, -a
    if isinstance(node, Call):
        a, b = _rng(node.arg, lo, hi, var)
        if node.func == "exp":
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
        return -1.0, 1.0  # sin, cos
    la, lb = _rng(node.left, lo, hi, var)
    ra, rb = _rng(node.right, lo, hi, var)
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
    # '^': only constant integer exponents get a sharp range
    if isinstance(node.right, Num) and float(node.right.value).is_integer():
        k = int(node.right.value)
        if k >= 0 and la >= 0:
            return la ** k, lb ** k
    return -inf, inf


def _flip(direction: Optional[str]) -> Optional[str]:
    if direction == _INC:
        return _DEC
    if direction == _DEC:
        return _INC
    return direction


def _combine_sum(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a == _CONST:
        return b
    if b == _CONST or a == b:
        return a
    return None


def _mono(node, lo: float, hi: float, var: str) -> Optional[str]:
    if isinstance(node, Num):
        return _CONST
    if isinstance(node, Var):
        return _INC if node.name == var else _CONST
    if isinstance(node, Neg):
        return _flip(_mono(node.operand, lo, hi, var))
    if isinstance(node, Call):
        inner = _mono(node.arg, lo, hi, var)
        if inner is None:
            return None
        a, b = _rng(node.arg, lo, hi, var)
        if node.func in ("exp", "sqrt", "log"):
            return inner  # monotone increasing wrappers on their domains
        if node.func == "abs":
            if a >= 0:
                return inner
            if b <= 0:
                return _flip(inner)
            return None
        if node.func == "sin":
            if -math.pi / 2 <= a and b <= math.pi / 2:
                return inner
            if math.pi / 2 <= a and b <= 3 * math.pi / 2:
                return _flip(inner)
            return None
        if node.func == "cos":
            if 0 <= a and b <= math.pi:
                return _flip(inner)
            if -math.pi <= a and b <= 0:
                return inner
            return None
        return None
    ml = _mono(node.left, lo, hi, var)
    mr = _mono(node.right, lo, hi, var)
    if node.op == "+":
        if ml is None or mr is None:
            return None
        return _combine_sum(ml, mr)
    if node.op == "-":
        if ml is None or mr is None:
            return None
        return _combine_sum(ml, _flip(mr))
    la, lb = _rng(node.left, lo, hi, var)
    ra, rb = _rng(node.right, lo, hi, var)
    if node.op == "*":
        if ml == _CONST:
            if la >= 0:
                return mr if la > 0 or lb > 0 else _CONST
            if lb <= 0:
                return _flip(mr)
            return None
        if mr == _CONST:
            if ra >= 0:
                return ml if ra > 0 or rb > 0 else _CONST
            if rb <= 0:
                return _flip(ml)
            return None
        if ml is None or mr is None:
            return None
        if la >= 0 and ra >= 0 and ml == mr:
            return ml
        return None
    if node.op == "/":
        if mr == _CONST and not ra <= 0 <= rb:
            return ml if ra > 0 else _flip(ml)
        if ml == _CONST and mr is not None and (ra > 0 or rb < 0):
            if la >= 0:
                return _flip(mr) if ra > 0 else mr
            if lb <= 0:
                return mr if ra > 0 else _flip(mr)
        return None
    # '^'
    if mr == _CONST and isinstance(node.right, Num):
        k = node.right.value
        if ml is None:
            return None
        if la >= 0:
            if k > 0:
                return ml
            if k == 0:
                return _CONST
            if la > 0:
                return _flip(ml)
        if float(k).is_integer() and lb <= 0:
            ki = int(k)
            if ki > 0:
                return ml if ki % 2 else _flip(ml)
    if ml == _CONST and isinstance(node.left, Num):
        base = node.left.value
        if mr is None:
            return None
        if base > 1:
            return mr
        if base == 1:
            return _CONST
        if 0 < base < 1:
            return _flip(mr)
    return None


def derive_extrema_oracle(e: Expression, a: float, b: float, var: str = "s") -> ExtremaOracle:
    """Certified (inf, sup) oracle for the expression on [a, b].

    Succeeds only when the whole expression is certifiably monotone on the
    domain; otherwise raises MonotonicityError naming the failure, and the
    caller should fall back to the sampling integrators.
    """
    direction = _mono(e, float(a), float(b), var)
    if direction is None:
        raise MonotonicityError(
            f"cannot certify monotonicity of {to_source(e)} on [{a}, {b}]; "
            "upper/lower sums need a certified oracle, use rs or gauge instead"
        )
    return ExtremaOracle.monotone(as_function(e, var))
