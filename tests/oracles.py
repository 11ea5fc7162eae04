"""Reference routes kept beside the tests that check npk against them."""

import itertools
import math
from fractions import Fraction

import numpy as np

from npk.expr import _ALIASES, _FUNCTIONS, Call, Const, Expr, ParseError, UnknownVariable, Var, add, div, mul, neg, power, sub
from npk.functions import AFunction, _pruned
from npk.weil import DERIVATION_TOL, NotADerivation, WeilAlgebra, _derivation_values, _leibniz_residual, _shift


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


def derivation_values_by_rref(algebra: WeilAlgebra) -> list[list[tuple[int, int, int]]]:
    """The values of npk.weil._derivation_values by a general exact solve, the reference of its shortcut.

    Each equation (g, e_s) becomes a sparse row in Fractions, found by shifting
    each basis monomial by each generator; the rows split into blocks of one
    weight e_a / x_i, each reduced by _rref.  Each free unknown of the reduced
    row echelon form, in increasing index i * dim + a, gives one element: that
    unknown set to 1, the other free ones to 0, scaled to the smallest integers.
    """
    dim, basis, index = algebra.dim, algebra.basis, algebra._index
    blocks: dict[tuple[int, ...], list[dict[int, Fraction]]] = {}
    for g in algebra.presentation.normalized_generators():
        for m in basis:
            weight = tuple(x - y for x, y in zip(m, g))
            row = {}
            for i, gi in enumerate(g):
                a = index.get(_shift(weight, i, 1)) if gi else None
                if a is not None:
                    row[i * dim + a] = Fraction(gi)
            if row:
                blocks.setdefault(weight, []).append(row)
    pivots: set[int] = set()
    dependents: dict[int, list[tuple[int, Fraction]]] = {}
    for rows in blocks.values():
        for p, row in _rref(rows).items():
            pivots.add(p)
            for col, v in row.items():
                if col != p:
                    dependents.setdefault(col, []).append((p, -v))
    out = []
    for free in range(algebra.num_vars * dim):
        if free in pivots:
            continue
        values = [(free, 1), *dependents.get(free, ())]
        scale = math.lcm(*(v.denominator for _, v in values))
        out.append([(*divmod(col, dim), v.numerator * (scale // v.denominator)) for col, v in values])
    return out


def derivation_matrices_by_element(algebra: WeilAlgebra) -> list[np.ndarray]:
    """The Der(A) matrices built one element at a time, the reference of npk.weil's one scatter.

    Each matrix holds its values in the columns x_i, and the other columns are
    filled by subtracting its Leibniz defect, one bincount over every rebuild
    term per element; each is then checked again by the whole residual.
    """
    src, weight, dest, width = algebra._rebuild
    dim, values = algebra.dim, _derivation_values(algebra)
    matrices = np.zeros((len(values), dim, dim))
    for m, entries in zip(matrices, values):
        for i, a, v in entries:
            m[a, 1 + i] = v  # column 1 + i is d(x_i)
        defect = np.bincount(dest, weight * m.take(src), minlength=dim * width).reshape(dim, width)
        m -= defect[:, :dim]  # leaves the values, fills every other column
        if not _leibniz_residual(algebra, m) <= DERIVATION_TOL:
            raise NotADerivation("a solved basis element fails the Leibniz rule")
    return list(matrices)


def _rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rational rows, keyed by pivot column.

    Each pivot is the lowest column of its row, and no other row has an entry
    in a pivot column, so the result depends only on the span of the rows.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        for p, prow in reduced.items():
            _eliminate(row, prow, p)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        row = {c: v / lead for c, v in row.items()}
        for prow in reduced.values():
            _eliminate(prow, row, p)
        reduced[p] = row
    return reduced


def _eliminate(row: dict[int, Fraction], pivot_row: dict[int, Fraction], p: int) -> None:
    """Subtract the multiple of pivot_row (entry 1 at p) that clears column p of row."""
    factor = row.get(p)
    if not factor:
        return
    for c, v in pivot_row.items():
        x = row.get(c, 0) - factor * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


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
