"""Reference routes kept beside the tests that check npk against them."""

import itertools

import numpy as np

from npk.expr import _ALIASES, _FUNCTIONS, Call, Const, Expr, ParseError, UnknownVariable, Var, add, div, mul, neg, power, sub
from npk.functions import AFunction, _pruned
from npk.weil import WeilAlgebra


def dual_projection(phi: AFunction, alpha: int) -> AFunction:
    """Post-compose with the dual functional: a -> (coefficient alpha of a) * 1.

    This is the coefficient recombination that keeps derivation extensions
    inside the implemented function class; the result is scalar-valued.
    functions._extension folds it into one pass per generator.
    """
    c = phi.coeffs[:, alpha]
    keep = c != 0.0
    rows = c.compress(keep)[:, None] * phi.algebra.unit().coeffs
    return AFunction._of(phi.algebra, phi.chart, *_pruned(phi.gens, tuple(itertools.compress(phi.indices, keep)), rows))


def leibniz_triple_residual(algebra: WeilAlgebra, matrix: np.ndarray) -> float:
    """max over basis triples (a, b, s) of |coefficient s of d(e_a e_b) - d(e_a) e_b - e_a d(e_b)|.

    The Leibniz rule checked pair by pair through the dense structure tensor,
    the reference of npk.weil's check by the rebuild of the values d(x_i).
    """
    c = algebra.structure
    lhs = np.einsum("abg,sg->abs", c, matrix, optimize=True)
    rhs = np.einsum("ra,rbs->abs", matrix, c, optimize=True) + np.einsum("rb,ars->abs", matrix, c, optimize=True)
    return float(np.max(np.abs(lhs - rhs)))


# the recursive-descent parser that npk.expr.parse replaced, the reference of its differential test


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_number(self) -> float:
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(t) and t[self.pos] == ".":
            self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        return float(t[start:self.pos])

    def take_ident(self) -> str:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]


class _Parser:
    """Recursive descent; precedence ^ > unary - > * / > + -, binaries left-associative."""

    def __init__(self, text: str, n: int):
        self.tk = _Tokenizer(text)
        self.n = n

    def parse(self) -> Expr:
        e = self.expr()
        self.tk.skip_ws()
        if self.tk.pos != len(self.tk.text):
            raise ParseError("trailing input", self.tk.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.tk.peek()
            if c == "+":
                self.tk.pos += 1
                e = add(e, self.term())
            elif c == "-":
                self.tk.pos += 1
                e = sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            c = self.tk.peek()
            if c == "*":
                self.tk.pos += 1
                e = mul(e, self.unary())
            elif c == "/":
                self.tk.pos += 1
                e = div(e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        if self.tk.peek() == "-":
            self.tk.pos += 1
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tk.peek() == "^":
            self.tk.pos += 1
            return power(base, self.unary())
        return base

    def atom(self) -> Expr:
        c = self.tk.peek()
        offset = self.tk.pos
        if c == "(":
            self.tk.pos += 1
            e = self.expr()
            if self.tk.peek() != ")":
                raise ParseError("expected ')'", self.tk.pos)
            self.tk.pos += 1
            return e
        if c.isdigit() or c == ".":
            return Const(self.tk.take_number())
        if c.isalpha() or c == "_":
            name = self.tk.take_ident()
            if self.tk.peek() == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", offset)
                self.tk.pos += 1
                arg = self.expr()
                if self.tk.peek() != ")":
                    raise ParseError("expected ')'", self.tk.pos)
                self.tk.pos += 1
                return Call(name, arg)
            return self.variable(name, offset)
        raise ParseError(f"unexpected character {c!r}" if c else "unexpected end of input", offset)

    def variable(self, name: str, offset: int) -> Expr:
        if name in _ALIASES:
            index = _ALIASES[name]
        elif len(name) > 1 and name[0] == "x" and name[1:].isdigit():
            index = int(name[1:]) - 1
        else:
            raise UnknownVariable(name, offset)
        if not 0 <= index < self.n:
            raise UnknownVariable(name, offset)
        return Var(index)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over variables x1..xn."""
    return _Parser(text, n).parse()
