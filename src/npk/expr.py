"""Smooth-expression DSL: parser, evaluator, exact symbolic differentiation.

Expressions are finite trees over real constants, chart variables
x1..xn (x, y, z accepted as aliases for the first three), the binary
operators + - * / ^ and the functions sin, cos, exp, log, sqrt, or a
`Polynomial` leaf that evaluates and prints as the tree it spells but
differentiates on exponents (the parser builds trees only).  The parser is
one pass over the tokens with explicit operand and operator stacks, the
operators binding by the precedence table that the printer uses too.
Constant folding and 0/1 absorption are the only simplifications;
identity of two expressions is decided downstream by sampled
evaluation, never by canonical form.

Also here: coordinate vector fields and differential forms on the base
chart, with the Lie bracket and the exterior derivative in coordinates.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Add",
    "Call",
    "Const",
    "DifferentialForm",
    "Div",
    "DomainError",
    "Expr",
    "Mul",
    "Neg",
    "ParseError",
    "Polynomial",
    "Pow",
    "Sub",
    "UnknownVariable",
    "Var",
    "VectorField",
    "add",
    "call",
    "const",
    "contract_form",
    "diff",
    "div",
    "evaluate",
    "exterior_derivative",
    "lie_bracket",
    "mul",
    "neg",
    "parse",
    "polynomial",
    "power",
    "series",
    "sub",
    "unparse",
    "var",
]


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ValueError):
    def __init__(self, name: str, offset: int = -1):
        super().__init__(f"unknown variable {name!r}")
        self.name = name
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the domain of definition (log/sqrt of non-positive, x/0)."""


class Expr:
    __slots__ = ("_key", "_partials")  # memos of expr_key and diff; not fields, so not in == or hash

    def __add__(self, other: "Expr") -> "Expr":
        return add(self, other)

    def __sub__(self, other: "Expr") -> "Expr":
        return sub(self, other)

    def __mul__(self, other: "Expr") -> "Expr":
        return mul(self, other)

    def __truediv__(self, other: "Expr") -> "Expr":
        return div(self, other)

    def __pow__(self, other: "Expr") -> "Expr":
        return power(self, other)

    def __neg__(self) -> "Expr":
        return neg(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int  # zero-based


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str  # sin | cos | exp | log | sqrt
    arg: Expr


@dataclass(frozen=True, slots=True)
class Polynomial(Expr):
    """sum_k c_k x^m_k as (coefficient, exponent tuple) terms, folded by `polynomial`: some term has a variable."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]


_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}

ZERO = Const(0.0)
ONE = Const(1.0)


def const(value: float) -> Const:
    return Const(float(value))


def var(index: int) -> Var:
    return Var(index)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


# smart constructors: fold constants, absorb 0 and 1


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    return Div(a, b)


def power(base: Expr, exponent: Expr) -> Expr:
    if _is_const(exponent, 1.0):
        return base
    if _is_const(exponent, 0.0):
        return ONE
    if _is_const(base) and _is_const(exponent):
        try:
            return Const(math.pow(base.value, exponent.value))
        except (ValueError, OverflowError):  # left unfolded, as x^c is: evaluation raises DomainError
            pass
    return Pow(base, exponent)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in _FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    return Call(fn, arg)


def polynomial(terms: Iterable[tuple[float, tuple[int, ...]]]) -> Expr:
    """The terms c x^m summed in order, folded as add and mul fold c*x_i*x_j^e + ...: a Const if no variable is left."""
    lead, kept = None, []
    for c, m in terms:
        if kept:
            if c != 0.0:
                kept.append((c, m))
        elif c != 0.0 and any(m):
            kept = [(lead, (0,) * len(m)), (c, m)] if lead else [(c, m)]
        else:  # leading constants fold, a variable term with c = 0 being mul's zero
            v = 0.0 if any(m) else c
            lead = v if lead is None else lead + v
    return Polynomial(tuple(kept)) if kept else Const(0.0 if lead is None else lead)


# -- parsing ----------------------------------------------------------------

# how tightly each operator binds, for the parser and the printer alike
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

_INFIX = {"+": (_PREC_ADD, add), "-": (_PREC_ADD, sub), "*": (_PREC_MUL, mul), "/": (_PREC_MUL, div),
          "^": (_PREC_POW, power)}
_ALIASES = {"x": 0, "y": 1, "z": 2}
# after whitespace: a number, a name that opens a call, a name, any other character, or the end
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<call>[^\W\d]\w*)\s*\(|"
                    r"(?P<name>[^\W\d]\w*)|(?P<char>\S)|\Z)")


def parse(text: str, n: int) -> Expr:
    """Parse an expression over variables x1..xn in one pass over its tokens.

    Operator precedence (the shunting yard, Dijkstra 1961): operands wait on
    one stack and operators on another, each with the precedence the printer
    gives it, so ^ > unary - > * / > + -; ^ is right-associative, the other
    binaries left.  An open '(' or call waits with precedence 0.  A syntax
    error is a ParseError at its token's offset.
    """
    operands: list[Expr] = []
    pending: list[tuple[int, Callable | str | None]] = []  # (precedence, constructor), or (0, call's name or None)
    want_operand = True
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        token, at = (m[kind], m.start(kind)) if kind else ("", len(text))
        if want_operand:
            if kind == "number":
                operands.append(Const(float(token)))
                want_operand = False
            elif kind in ("call", "name") and (token[0].isalpha() or token[0] == "_"):  # not a numeral such as ½
                if kind == "call":
                    if token not in _FUNCTIONS:
                        raise ParseError(f"unknown function {token!r}", at)
                    pending.append((0, token))
                    continue
                # a numeral of 20 or more digits names no chart coordinate, and int() refuses the longest ones
                numbered = token[0] == "x" and token[1:].isdecimal() and len(token) <= 20
                index = _ALIASES.get(token, int(token[1:]) - 1 if numbered else -1)
                if not 0 <= index < n:
                    raise UnknownVariable(token, at)
                operands.append(Var(index))
                want_operand = False
            elif token == "(":
                pending.append((0, None))
            elif token == "-":
                pending.append((_PREC_NEG, neg))
            else:
                raise ParseError(f"unexpected character {token[0]!r}" if token else "unexpected end of input", at)
            continue
        infix = _INFIX.get(token)
        # apply the waiting operators that bind at least as tightly: ^ is right-associative, so a waiting ^
        # stays for a new ^; ')' and the end apply all of them down to the innermost open '(' or call
        floor = infix[0] + (token == "^") if infix else _PREC_ADD
        while pending and pending[-1][0] >= floor:
            build = pending.pop()[1]
            right = operands.pop()
            operands.append(neg(right) if build is neg else build(operands.pop(), right))
        if infix:
            pending.append(infix)
            want_operand = True
        elif token == ")" and pending:
            name = pending.pop()[1]
            if name:
                operands.append(Call(name, operands.pop()))
        elif kind is None and not pending:
            return operands.pop()
        else:
            raise ParseError("expected ')'" if pending else "trailing input", at)


# -- printing ---------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _unparse(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_float(-e.value)}", _PREC_NEG
        return _fmt_float(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return f"x{e.index + 1}", _PREC_ATOM
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD)}", _PREC_ADD
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL)}", _PREC_MUL
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_NEG)}", _PREC_NEG
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{_wrap(e.exponent, _PREC_NEG)}", _PREC_POW
    if isinstance(e, Call):
        return f"{e.fn}({_unparse(e.arg)[0]})", _PREC_ATOM
    if isinstance(e, Polynomial):  # c*x1*x2^2 + ..., a coefficient 1 absorbed
        texts = []
        for c, m in e.terms:
            factors = [f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(m) if k]
            if c != 1.0 or not factors:
                factors.insert(0, f"-{_fmt_float(-c)}" if c < 0 else _fmt_float(c))
            texts.append("*".join(factors))
        if len(texts) > 1:
            return " + ".join(texts), _PREC_ADD
        return texts[0], _PREC_MUL if len(factors) > 1 else _PREC_POW if "^" in texts[0] else _PREC_ATOM
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _unparse(e)
    return f"({text})" if prec < min_prec else text


def unparse(e: Expr) -> str:
    return _unparse(e)[0]


def expr_key(e: Expr) -> str:
    """Deterministic textual key, memoized on the node (used for canonical orderings)."""
    try:
        return e._key
    except AttributeError:
        key = unparse(e)
        object.__setattr__(e, "_key", key)  # nodes are frozen dataclasses
        return key


# -- evaluation -------------------------------------------------------------


def evaluate(e: Expr, point: Sequence[float] | Sequence[np.ndarray]) -> float | np.ndarray:
    """e at a point; or at N points in one walk, when the coordinates are 1-D arrays of N values.

    The arrays go through numpy's arithmetic and functions, within a few ulp
    of the floats.  Where some sample leaves the domain or a primitive's value
    is not finite, the samples are evaluated one by one instead, so that the
    first failing sample raises the DomainError it raises alone.
    """
    if not (len(point) and isinstance(point[0], np.ndarray)):
        return _evaluate(e, point, _FLOATS)
    try:
        with np.errstate(all="ignore"):
            values = _evaluate(e, point, _ARRAYS)
    except _SampleBySample:
        values = [_evaluate(e, p, _FLOATS) for p in zip(*point)]
    return np.full(np.shape(point[0]), values)  # a constant's float too, as an array


class _Leaves(NamedTuple):
    """How a walk reads a coordinate and checks the places where a value can leave the domain."""

    coordinate: Callable
    nonzero: Callable
    power: Callable
    apply: Callable


def _evaluate(e: Expr, point: Sequence[float] | Sequence[np.ndarray], ops: _Leaves) -> float | np.ndarray:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return ops.coordinate(point, e.index)
    if isinstance(e, Add):
        return _evaluate(e.left, point, ops) + _evaluate(e.right, point, ops)
    if isinstance(e, Sub):
        return _evaluate(e.left, point, ops) - _evaluate(e.right, point, ops)
    if isinstance(e, Mul):
        return _evaluate(e.left, point, ops) * _evaluate(e.right, point, ops)
    if isinstance(e, Div):
        denom = ops.nonzero(_evaluate(e.right, point, ops))
        return _evaluate(e.left, point, ops) / denom
    if isinstance(e, Neg):
        return -_evaluate(e.arg, point, ops)
    if isinstance(e, Pow):
        return ops.power(_evaluate(e.base, point, ops), _evaluate(e.exponent, point, ops), constant_exponent(e))
    if isinstance(e, Call):
        return ops.apply(e.fn, _evaluate(e.arg, point, ops))
    if isinstance(e, Polynomial):  # in the tree's order, ((c0 + c1*x_i*x_j^e) + ...) + ...
        acc = None
        for c, m in e.terms:
            for i, k in enumerate(m):
                if k:
                    x = ops.coordinate(point, i)
                    c = c * x if k == 1 else c * ops.power(x, float(k))
            acc = c if acc is None else acc + c
        return acc
    raise TypeError(f"not an expression: {e!r}")


def constant_exponent(e: Pow) -> bool:
    """Whether e's exponent has no variable, so that e is the power x^c of `series`.

    evaluate, diff and lift all decide by this test, so that spellings with one
    key, such as Pow(x, Const(-2.0)) and Pow(x, Neg(Const(2.0))), behave alike.
    """
    stack = [e.exponent]
    while stack:
        node = stack.pop()
        if isinstance(node, (Var, Polynomial)):  # a Polynomial has a variable
            return False
        if not isinstance(node, Const):  # every other field is a subexpression, or Call's name
            stack += [c for c in (getattr(node, f.name) for f in dataclass_fields(node)) if isinstance(c, Expr)]
    return True


def _coordinate(point: Sequence[float], i: int) -> float:
    if i >= len(point):
        raise UnknownVariable(f"x{i + 1}")
    return float(point[i])


# the three places where a value can leave the domain, shared by evaluate and series


def _nonzero(denom: float) -> float:
    if denom == 0.0:
        raise DomainError("division by zero")
    return denom


def _power(base: float, exponent: float, constant: bool = True) -> float:
    if base <= 0.0 and not constant:
        # a general power is exp(exponent * log(base)), as in lift and diff
        raise DomainError(f"{base}^{exponent}: general power of a non-positive base")
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{base}^{exponent} undefined") from exc


def _apply(fn: str, arg: float) -> float:
    if fn in ("log", "sqrt") and arg <= 0.0:
        raise DomainError(f"{fn} of non-positive value {arg}")
    try:
        return _FUNCTIONS[fn](arg)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{fn}({arg}) undefined") from exc


# the same on arrays of samples: where some sample would raise, or a primitive's value is not
# finite, each raises _SampleBySample, and evaluate walks the samples one by one instead


class _SampleBySample(Exception):
    pass


def _array_coordinate(point: Sequence[np.ndarray], i: int) -> np.ndarray:
    if i >= len(point):
        raise UnknownVariable(f"x{i + 1}")
    return point[i]


def _array_nonzero(denom: float | np.ndarray) -> float | np.ndarray:
    if not np.all(denom):
        raise _SampleBySample
    return denom


def _array_power(base: float | np.ndarray, exponent: float | np.ndarray, constant: bool = True) -> np.ndarray:
    if not (constant or np.all(base > 0.0)):
        raise _SampleBySample
    return _finite(np.power(base, exponent))


def _array_apply(fn: str, arg: float | np.ndarray) -> np.ndarray:
    if fn in ("log", "sqrt") and not np.all(arg > 0.0):
        raise _SampleBySample
    return _finite(_UFUNCS[fn](arg))


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise _SampleBySample
    return values


_FLOATS = _Leaves(_coordinate, _nonzero, _power, _apply)
_ARRAYS = _Leaves(_array_coordinate, _array_nonzero, _array_power, _array_apply)


def _divisor_power(a0: float, k: int) -> float:
    """a0^k, the divisor of a coefficient; if it underflows, the coefficient a0^-k is out of range, as in x^c."""
    power = _power(a0, k)
    if power == 0.0 and a0 != 0.0:
        raise DomainError(f"{a0}^{-float(k)} undefined")
    return power


_FACTORIALS = tuple(float(math.factorial(k)) for k in range(171))  # 171! is past the largest float


def _factorials(order: int) -> tuple[float, ...]:
    """float(k!) for k = 0..order, inf past 170, so that a coefficient divided by it underflows to +-0.0."""
    return _FACTORIALS[:order + 1] + (math.inf,) * (order - 170)


def series(g: str | float, a0: float, order: int) -> list[float]:
    """Taylor coefficients g^(k)(a0) / k!, k = 0..order, of a primitive g of one variable.

    g names a function (sin, cos, exp, log, sqrt), is "1/x", or is the constant
    exponent c of x^c.  The closed forms are those of univariate Taylor
    propagation; values and powers go through the helpers of `evaluate`, so
    a point outside the domain raises the same DomainError.
    """
    if g == "exp":
        value = _apply("exp", a0)
        return [value / f for f in _factorials(order)]
    if g in ("sin", "cos"):
        s, c = _apply("sin", a0), _apply("cos", a0)
        cycle = (s, c, -s, -c) if g == "sin" else (c, -s, -c, s)
        return [cycle[k % 4] / f for k, f in enumerate(_factorials(order))]
    if g == "log":
        head = _apply("log", a0)
        return [head] + [(-1.0) ** (k + 1) / _nonzero(k * _divisor_power(a0, k)) for k in range(1, order + 1)]
    if g == "1/x":
        return [(-1.0) ** k / _nonzero(_divisor_power(a0, k + 1)) for k in range(order + 1)]
    if g == "sqrt":
        out, c = [_apply("sqrt", a0)], 0.5
    elif isinstance(g, float):
        out, c = [_power(a0, g)], g
    else:
        raise ValueError(f"no series for {g!r}")
    # binom(c, k) a0^(c - k); once binom(c, k) is 0 (integer c >= 0) no power is taken
    binom, exponent = 1.0, c
    for k in range(1, order + 1):
        binom *= (c - k + 1) / k
        exponent -= 1.0
        out.append(binom * _power(a0, exponent) if binom else 0.0)
    return out


# -- substitution -----------------------------------------------------------

def _substitute(phi: Expr, h: Sequence[Expr]) -> Expr:
    """phi(h_1, .., h_n) by structural substitution."""
    if isinstance(phi, Const):
        return phi
    if isinstance(phi, Var):
        return h[phi.index]
    if isinstance(phi, Add):
        return add(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, Sub):
        return sub(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, Mul):
        return mul(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, Div):
        return div(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, Neg):
        return neg(_substitute(phi.arg, h))
    if isinstance(phi, Pow):
        return power(_substitute(phi.base, h), _substitute(phi.exponent, h))
    if isinstance(phi, Call):
        return call(phi.fn, _substitute(phi.arg, h))
    if isinstance(phi, Polynomial):  # into the tree that the leaf spells
        return _substitute(parse(unparse(phi), len(phi.terms[0][1])), h)
    raise TypeError(f"not an expression: {phi!r}")


# -- differentiation --------------------------------------------------------

def diff(e: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative with respect to x_{index+1}, memoized on the node."""
    try:
        partials = e._partials
    except AttributeError:
        partials = {}
        object.__setattr__(e, "_partials", partials)  # nodes are frozen dataclasses
    out = partials.get(index)
    if out is None:
        out = partials[index] = _diff(e, index)
    return out


def _diff(e: Expr, i: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Add):
        return add(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Sub):
        return sub(diff(e.left, i), diff(e.right, i))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, i), e.right), mul(e.left, diff(e.right, i)))
        return div(num, mul(e.right, e.right))
    if isinstance(e, Neg):
        return neg(diff(e.arg, i))
    if isinstance(e, Pow):
        if constant_exponent(e):
            c = e.exponent
            return mul(mul(c, power(e.base, sub(c, ONE))), diff(e.base, i))
        # general base^exponent via exp(exponent * log(base))
        term1 = mul(diff(e.exponent, i), call("log", e.base))
        term2 = div(mul(e.exponent, diff(e.base, i)), e.base)
        return mul(e, add(term1, term2))
    if isinstance(e, Polynomial):
        return polynomial([(c * m[i], m[:i] + (m[i] - 1,) + m[i + 1:]) for c, m in e.terms if i < len(m) and m[i]])
    if isinstance(e, Call):
        inner = diff(e.arg, i)
        if e.fn == "sin":
            outer: Expr = call("cos", e.arg)
        elif e.fn == "cos":
            outer = neg(call("sin", e.arg))
        elif e.fn == "exp":
            outer = e
        elif e.fn == "log":
            outer = div(ONE, e.arg)
        elif e.fn == "sqrt":
            outer = div(Const(0.5), e)
        else:
            raise ValueError(f"unknown function {e.fn!r}")
        return mul(outer, inner)
    raise TypeError(f"not an expression: {e!r}")


# -- vector fields and forms on the base chart ------------------------------


@dataclass(frozen=True)
class VectorField:
    """First-order differential operator sum_i components[i] d/dx_i."""

    components: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def apply(self, f: Expr) -> Expr:
        out: Expr = ZERO
        for i, c in enumerate(self.components):
            out = add(out, mul(c, diff(f, i)))
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.n != other.n:
            raise ValueError("vector fields of different dimension")
        return VectorField(tuple(add(a, b) for a, b in zip(self.components, other.components)))

    def scale(self, f: Expr) -> "VectorField":
        return VectorField(tuple(mul(f, c) for c in self.components))


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b]_i = sum_j a_j d_j(b_i) - b_j d_j(a_i)."""
    if a.n != b.n:
        raise ValueError("vector fields of different dimension")
    comps = []
    for i in range(a.n):
        acc: Expr = ZERO
        for j in range(a.n):
            acc = add(acc, mul(a.components[j], diff(b.components[i], j)))
            acc = sub(acc, mul(b.components[j], diff(a.components[i], j)))
        comps.append(acc)
    return VectorField(tuple(comps))


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-p form sum_I g_I dx_I with strictly increasing index tuples (zero-based)."""

    n: int
    degree: int
    terms: tuple[tuple[Expr, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        seen = set()
        for g, idx in self.terms:
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} does not match degree {self.degree}")
            if any(not 0 <= i < self.n for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} not strictly increasing")
            if idx in seen:
                raise ValueError(f"repeated index tuple {idx}")
            seen.add(idx)

    def coefficient(self, idx: tuple[int, ...]) -> Expr:
        for g, i in self.terms:
            if i == idx:
                return g
        return ZERO

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("forms of different type")
        acc: dict[tuple[int, ...], Expr] = {idx: g for g, idx in self.terms}
        for g, idx in other.terms:
            acc[idx] = add(acc.get(idx, ZERO), g)
        return form(self.n, self.degree, acc)

    def scale(self, f: Expr) -> "DifferentialForm":
        return form(self.n, self.degree, {idx: mul(f, g) for g, idx in self.terms})


def form(n: int, degree: int, coeffs: dict[tuple[int, ...], Expr]) -> DifferentialForm:
    terms = tuple(
        (g, idx) for idx, g in sorted(coeffs.items()) if not _is_const(g, 0.0)
    )
    return DifferentialForm(n, degree, terms)


def _sort_indices(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """(sign of the sorting permutation, sorted tuple); None if an index repeats."""
    if len(set(indices)) != len(indices):
        return None
    order = sorted(range(len(indices)), key=indices.__getitem__)
    return _perm_sign(order), tuple(indices[k] for k in order)


def _insert_index(i: int, idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sort i into the increasing tuple idx; returns (sign, sorted tuple), None if repeated."""
    if i in idx:
        return None
    pos = sum(1 for j in idx if j < i)
    return (-1) ** pos, idx[:pos] + (i,) + idx[pos:]


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """Coordinate formula d(g dx_I) = sum_i d_i(g) dx_i ^ dx_I."""
    acc: dict[tuple[int, ...], Expr] = {}
    for g, idx in omega.terms:
        for i in range(omega.n):
            slot = _insert_index(i, idx)
            if slot is None:
                continue
            sign, new_idx = slot
            contribution = mul(Const(float(sign)), diff(g, i))
            acc[new_idx] = add(acc.get(new_idx, ZERO), contribution)
    return form(omega.n, omega.degree + 1, acc)


def contract_form(omega: DifferentialForm, fields: Sequence[VectorField]) -> Expr:
    """omega(theta_1, .., theta_p) as an expression (determinant expansion)."""
    if len(fields) != omega.degree:
        raise ValueError("arity mismatch")
    out: Expr = ZERO
    for g, idx in omega.terms:
        det: Expr = ZERO
        for perm in itertools.permutations(range(omega.degree)):
            sign = _perm_sign(perm)
            prod: Expr = ONE
            for row, col in enumerate(perm):
                prod = mul(prod, fields[row].components[idx[col]])
            det = add(det, mul(Const(float(sign)), prod))
        out = add(out, mul(g, det))
    return out


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
