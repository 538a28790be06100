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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from .errors import GaugeLabError, MonotonicityError

if TYPE_CHECKING:
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


def _tokenize(text: str) -> List[_Token]:
    tokens = []
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
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(
            byte_offset(text, i), ("a number", "a name", "an operator"), repr(ch)
        )
    tokens.append(_Token("end", "", n))
    return tokens


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
        self.tokens = _tokenize(text)
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
                return Call(tok.text, self.group())
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
            return self.group()
        self.fail(_ATOM_EXPECTED)

    def group(self) -> Expression:
        """'(' expr ')', one level of nesting deeper."""
        self.take()
        self.enter()
        e = self.expr()
        self.leave()
        if self.peek().kind != ")":
            self.fail(("')'",))
        self.take()
        return e


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
# in one bottom-up walk.  Each node gets an interval that holds its values
# (range arithmetic as in Moore's Interval Analysis) and the sign of its
# slope: 1 rising, -1 falling, 0 constant, None unknown.  Structural rules
# combine the children's slopes; the children's ranges decide the signs of
# factors, denominators and the arguments of abs, sin and cos.  The range
# arithmetic is total: overflow gives inf, an end with no value (inf - inf)
# widens to infinity and ends outside a function's domain are clamped, so the
# walk raises nothing.  A point where the expression faults is left for its
# evaluation to report.  Anything we cannot certify is refused rather than
# approximated.

_INF = math.inf
# (slope, lo, hi): the function has that slope sign on [lo, hi]
_PIECES = {
    "sin": ((1, -math.pi / 2, math.pi / 2), (-1, math.pi / 2, 3 * math.pi / 2)),
    "cos": ((-1, 0.0, math.pi), (1, -math.pi, 0.0)),
}


def _times(sign: Optional[int], slope: Optional[int]) -> Optional[int]:
    """Slope sign of a function whose slope is `sign` times one of sign `slope`."""
    if sign == 0:
        return 0
    return None if sign is None or slope is None else sign * slope


def _sum(p: Optional[int], q: Optional[int]) -> Optional[int]:
    return None if p is None or q is None or p * q < 0 else p or q


def _sign(lo: float, hi: float) -> Optional[int]:
    """Sign of every value in [lo, hi]: 0 only for [0, 0], None if it changes."""
    if lo == hi == 0:
        return 0
    return 1 if lo >= 0 else -1 if hi <= 0 else None


def _or_inf(f, *args) -> float:
    try:
        return f(*args)
    except OverflowError:
        return _INF


def _exp(x: float) -> float:
    # a finite end gives at least exp(-745), the least positive float
    return 0.0 if x == -_INF else _or_inf(math.exp, max(x, -745.0))


def _hull(op, la: float, lb: float, ra: float, rb: float) -> Tuple[float, float]:
    # 0 * inf and inf / inf have no value; the other corners bound the result
    corners = [c for c in (op(la, ra), op(la, rb), op(lb, ra), op(lb, rb)) if c == c]
    return (min(corners), max(corners)) if corners else (-_INF, _INF)


def _certify(node, lo: float, hi: float, var: str) -> Tuple[float, float, Optional[int]]:
    """(inf, sup, slope sign) of the node while `var` runs over [lo, hi]."""
    if isinstance(node, Num):
        return node.value, node.value, 0
    if isinstance(node, Var):
        return (lo, hi, 1) if node.name == var else (-_INF, _INF, 0)
    if isinstance(node, Neg):
        a, b, d = _certify(node.operand, lo, hi, var)
        return -b, -a, _times(-1, d)
    if isinstance(node, Call):
        a, b, d = _certify(node.arg, lo, hi, var)
        if node.func == "exp":
            return _exp(a), _exp(b), d
        if node.func == "sqrt":
            return math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0)), d
        if node.func == "log":
            return math.log(a) if a > 0 else -_INF, math.log(b) if b > 0 else _INF, d
        if node.func == "abs":
            if a >= 0:
                return a, b, d
            if b <= 0:
                return -b, -a, _times(-1, d)
            return 0.0, max(-a, b), None
        slope = next((s for s, p, q in _PIECES[node.func] if p <= a and b <= q), None)
        return -1.0, 1.0, _times(slope, d)
    la, lb, dl = _certify(node.left, lo, hi, var)
    ra, rb, dr = _certify(node.right, lo, hi, var)
    if node.op == "+":
        a, b, d = la + ra, lb + rb, _sum(dl, dr)
    elif node.op == "-":
        a, b, d = la - rb, lb - ra, _sum(dl, _times(-1, dr))
    elif node.op == "*":
        a, b = _hull(operator.mul, la, lb, ra, rb)
        if dl == 0:
            d = _times(_sign(la, lb), dr)
        elif dr == 0:
            d = _times(_sign(ra, rb), dl)
        else:  # two non-negative factors that move the same way
            d = dl if dl == dr and la >= 0 and ra >= 0 else None
    elif node.op == "/":
        if ra <= 0 <= rb:
            return -_INF, _INF, None
        a, b = _hull(operator.truediv, la, lb, ra, rb)
        if dr == 0:
            d = _times(1 if ra > 0 else -1, dl)
        elif dl == 0:  # the slope of c/g is -sign(c) * slope(g), whatever the sign of g
            d = _times(-1 if la >= 0 else 1 if lb <= 0 else None, dr)
        else:
            d = None
    elif isinstance(node.right, Num):  # '^' with a constant exponent k
        k = node.right.value
        whole = float(k).is_integer()
        if whole and k >= 0 and la >= 0:
            a, b = _or_inf(operator.pow, la, k), _or_inf(operator.pow, lb, k)
        else:
            a, b = -_INF, _INF
        if dl is not None and la >= 0 and (k >= 0 or la > 0):
            d = ((k > 0) - (k < 0)) * dl  # x^k rises on [0, inf[ for k > 0, falls for k < 0
        elif dl is not None and whole and k > 0 and lb <= 0:
            d = dl if k % 2 else -dl  # odd powers rise on ]-inf, 0], even ones fall
        else:
            d = None
    else:  # '^': c^g follows g for c > 1 and reverses it for 0 < c < 1
        a, b = -_INF, _INF
        base = node.left.value if isinstance(node.left, Num) else 0.0
        d = None if dr is None or base <= 0 else ((base > 1) - (base < 1)) * dr
    return (-_INF if a != a else a), (_INF if b != b else b), d


def derive_extrema_oracle(e: Expression, a: float, b: float, var: str = "s") -> ExtremaOracle:
    """Certified (inf, sup) oracle for the expression on [a, b].

    Succeeds only when the whole expression is certifiably monotone on the
    domain; otherwise raises MonotonicityError naming the failure, and the
    caller should fall back to the sampling integrators.  It raises nothing
    else: a domain fault or overflow inside [a, b] is reported by evaluation.
    """
    if _certify(e, float(a), float(b), var)[2] is None:
        raise MonotonicityError(
            f"cannot certify monotonicity of {to_source(e)} on [{a}, {b}]; "
            "upper/lower sums need a certified oracle, use rs or gauge instead"
        )
    from .integrators import ExtremaOracle

    return ExtremaOracle.monotone(as_function(e, var))
