"""Computable A-valued functions on the near-point manifold.

The class implemented here consists of A-coefficient polynomials in
scalar generators: a generator (alpha, g) denotes the real-valued
function xi -> coefficient alpha of lift(g, xi).  A function is stored as
its canonical monomials (generator tuples sorted by key, each monomial
once) and one read-only (T, dim) matrix whose row t is the A-coefficient
of monomial t.  The class is closed under addition, multiplication,
scaling by A, post-composition with linear maps of A, and the derivation
extensions used by vector fields; it contains every lifted smooth
function and every A-constant, which is all the surrounding theory
manipulates.

Equality of two such functions is decided by evaluation at sampled near
points, never structurally: distinct term lists routinely denote the
same function (e.g. the lift of f*g versus the product of the lifts).
Evaluation runs at a near point or at a block of N of them in one pass; a
near point is a block of one, with (dim,) values instead of (dim, N).  It
lifts each distinct generator function once, from the block's own lift
memo, gathers the generator values through an index plan kept on the
function, takes the product along each monomial and sums the rows per
point in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .expr import ONE, Const, Expr, diff, expr_key
from .points import Chart, NearPoint, NearPoints, TangentVector, lift
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "AFunction",
    "ScalarGenerator",
    "coordinate_derive",
    "dual_projection",
    "lifted_function",
    "tangent_apply",
]


@dataclass(frozen=True)
class ScalarGenerator:
    """The real-valued function xi -> dual-basis coefficient alpha of lift(fn, xi)."""

    alpha: int
    fn: Expr

    @cached_property
    def key(self) -> tuple[int, str]:
        return (self.alpha, expr_key(self.fn))


Monomial = tuple[ScalarGenerator, ...]

_gen_key = attrgetter("key")


class AFunction:
    """A-coefficient polynomial in scalar generators; immutable after construction.

    monos   canonical monomials in key order, no two equal
    coeffs  read-only (len(monos), dim) matrix, no zero row
    """

    __slots__ = ("algebra", "chart", "monos", "coeffs", "_plan")

    def __init__(
        self,
        algebra: WeilAlgebra,
        chart: Chart,
        terms: Iterable[tuple[AElement, Monomial]] = (),
    ):
        monos, rows = [], []
        for coeff, mono in terms:
            if coeff.algebra != algebra:
                raise AlgebraMismatch("coefficient from a different algebra")
            monos.append(tuple(mono))
            rows.append(coeff.coeffs)
        rows = np.array(rows, dtype=float).reshape(len(rows), algebra.dim)
        self._set(algebra, chart, *_nonzero(*_merge(algebra.dim, monos, rows)))

    def _set(self, algebra: WeilAlgebra, chart: Chart, monos: Sequence[Monomial], coeffs: np.ndarray, plan):
        coeffs.flags.writeable = False
        self.algebra = algebra
        self.chart = chart
        self.monos: tuple[Monomial, ...] = tuple(monos)
        self.coeffs: np.ndarray = coeffs
        self._plan = plan

    @classmethod
    def _of(cls, algebra: WeilAlgebra, chart: Chart, monos: Sequence[Monomial], coeffs: np.ndarray, plan=None):
        """Build from rows already in canonical form: distinct monomials in key order, no zero row.

        The fast path that __init__, whose (algebra, chart, terms) signature
        stays public, does not offer.  coeffs becomes the function's own
        read-only matrix, so the caller passes a fresh array; plan, when
        given, is the evaluation plan of these monos.
        """
        phi = object.__new__(cls)
        phi._set(algebra, chart, monos, coeffs, plan)
        return phi

    @property
    def terms(self) -> tuple[tuple[AElement, Monomial], ...]:
        """(coefficient, monomial) pairs in canonical order."""
        return tuple((AElement(self.algebra, row), mono) for row, mono in zip(self.coeffs, self.monos))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(a: AElement, chart: Chart) -> "AFunction":
        return AFunction._of(a.algebra, chart, *_nonzero(((),), a.coeffs[None, :].copy()))

    @staticmethod
    def zero(algebra: WeilAlgebra, chart: Chart) -> "AFunction":
        return AFunction._of(algebra, chart, (), np.zeros((0, algebra.dim)))

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "AFunction") -> None:
        if self.algebra != other.algebra or self.chart != other.chart:
            raise AlgebraMismatch("functions over different algebras or charts")

    def __add__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        return _sum(self.algebra, self.chart, (self, other))

    def __sub__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        rows = np.concatenate([self.coeffs, -other.coeffs])
        return _canonical(self.algebra, self.chart, self.monos + other.monos, rows)

    def __neg__(self) -> "AFunction":
        return AFunction._of(self.algebra, self.chart, self.monos, -self.coeffs, self._plan)

    def __mul__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        if not self.monos or not other.monos:
            return AFunction.zero(self.algebra, self.chart)
        rows = self.algebra.mul_rows(self.coeffs[:, None, :], other.coeffs[None, :, :])
        monos = [m1 + m2 for m1 in self.monos for m2 in other.monos]
        return _canonical(self.algebra, self.chart, monos, rows.reshape(len(monos), self.algebra.dim))

    def scale(self, a: AElement | float) -> "AFunction":
        if isinstance(a, AElement):
            if not self.monos:
                return self
            if a.algebra != self.algebra:
                raise AlgebraMismatch("elements of different Weil algebras")
            rows = self.algebra.mul_rows(a.coeffs, self.coeffs)
        else:
            rows = self.coeffs * float(a)
        return AFunction._of(self.algebra, self.chart, *_nonzero(self.monos, rows, self._plan))

    def is_structurally_zero(self) -> bool:
        return not self.monos

    # -- evaluation -----------------------------------------------------------

    def _evaluation_plan(self) -> tuple[list[Expr], np.ndarray, bool]:
        """(fns, index, padded), built on first use.

        fns are the distinct generator functions (by identity).  Their lifts,
        stacked, followed by a 1.0 when padded, form one vector (one row per
        coefficient at a block); index[t, j] is the position there of the j-th
        generator of monomial t, or -1 (the 1.0) when monomial t has fewer
        generators.
        """
        if self._plan is None:
            dim = self.algebra.dim
            slot: dict[int, int] = {}
            fns: list[Expr] = []
            width = max(1, max(map(len, self.monos), default=0))
            flat: list[int] = []
            for mono in self.monos:
                for gen in mono:
                    s = slot.setdefault(id(gen.fn), len(fns))
                    if s == len(fns):
                        fns.append(gen.fn)
                    flat.append(s * dim + gen.alpha)
                flat.extend([-1] * (width - len(mono)))
            index = np.array(flat, dtype=np.intp).reshape(len(self.monos), width)
            self._plan = (fns, index, not fns or -1 in flat)
        return self._plan

    def evaluate(self, xi: NearPoint | NearPoints) -> AElement | np.ndarray:
        """Value at a near point, or the (dim, N) values at a block of N points.

        The generators' lifts come from the point's or block's own lift memo.
        """
        if xi.algebra != self.algebra:
            raise AlgebraMismatch("near point over a different algebra")
        fns, index, padded = self._evaluation_plan()
        values = [xi._unwrap(lift(fn, xi)) for fn in fns]
        if padded:
            values.append(xi._unwrap(lift(ONE, xi))[:1])  # an absent generator is the constant 1
        stack = values[0] if len(values) == 1 else np.concatenate(values)
        gathered = stack[index]  # (T, width) or (T, width, N)
        scalars = gathered[:, 0]
        for j in range(1, index.shape[1]):
            scalars = scalars * gathered[:, j]
        # row t of point j is coeffs[t] * scalars[t, j]; sum_rows adds the rows per point in order
        rows = self.coeffs.reshape(self.coeffs.shape + (1,) * (scalars.ndim - 1)) * scalars[:, None]
        return xi._wrap(self.algebra.sum_rows(rows))

    def __repr__(self) -> str:
        if not self.monos:
            return "AFunction(0)"
        parts = []
        for coeff, mono in self.terms:
            gens = "*".join(f"gen({g.alpha},{expr_key(g.fn)!r})" for g in mono)
            parts.append(f"[{coeff!r}]" + (f"*{gens}" if gens else ""))
        return "AFunction(" + " + ".join(parts) + ")"


def _merge(dim: int, monos: Sequence[Monomial], rows: np.ndarray) -> tuple[list[Monomial], np.ndarray]:
    """Canonical rows: each monomial sorted by key, equal monomials summed in input order, key order.

    An equal monomial keeps its first spelling.  Zero rows are left for the caller to drop.
    """
    slots: dict[tuple, tuple[int, Monomial]] = {}
    group: list[int] = []
    for mono in monos:
        if len(mono) > 1:
            mono = tuple(sorted(mono, key=_gen_key))
        key = tuple([g.key for g in mono])
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = (len(slots), mono)
        group.append(slot[0])
    if len(slots) < len(group):
        # bincount adds each group's rows in input order, from 0.0
        bins = np.array(group, dtype=np.intp)[:, None] * dim + np.arange(dim)
        rows = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=len(slots) * dim)
        rows = rows.reshape(len(slots), dim)
    ordered = [slot for _, slot in sorted(slots.items())]
    order = [s for s, _ in ordered]
    if order != sorted(order):
        rows = rows[order]
    return [mono for _, mono in ordered], rows


def _nonzero(monos: Sequence[Monomial], coeffs: np.ndarray, plan=None) -> tuple:
    """Drop the zero rows (a NaN row stays); an evaluation plan survives only if none is dropped."""
    keep = coeffs.any(axis=1)
    if np.count_nonzero(keep) < len(keep):
        return tuple(itertools.compress(monos, keep)), coeffs[keep], None
    return monos, coeffs, plan


def _canonical(algebra: WeilAlgebra, chart: Chart, monos: Sequence[Monomial], rows: np.ndarray) -> AFunction:
    """The function sum_t rows[t] * monos[t], in canonical form."""
    return AFunction._of(algebra, chart, *_nonzero(*_merge(algebra.dim, monos, rows)))


def _sum(algebra: WeilAlgebra, chart: Chart, phis: Sequence[AFunction]) -> AFunction:
    """Sum of functions by one merge of their rows, in order."""
    if len(phis) < 2:
        return phis[0] if phis else AFunction.zero(algebra, chart)
    monos = [m for phi in phis for m in phi.monos]
    return _canonical(algebra, chart, monos, np.concatenate([phi.coeffs for phi in phis]))


def lifted_function(f: Expr, algebra: WeilAlgebra, chart: Chart) -> AFunction:
    """The lift of f as a function object: sum_alpha e_alpha * (coefficient alpha of the lift).

    Evaluating at any near point reproduces lift(f, xi) exactly; the expansion
    over the dual basis is what makes the lift manipulable termwise.  Constant
    expressions collapse to constant functions.
    """
    if isinstance(f, Const):
        return AFunction.constant(algebra.scalar(f.value), chart)
    monos = tuple((ScalarGenerator(alpha, f),) for alpha in range(algebra.dim))
    plan = ([f], np.arange(algebra.dim).reshape(algebra.dim, 1), False)
    return AFunction._of(algebra, chart, monos, np.eye(algebra.dim), plan)


def dual_projection(phi: AFunction, alpha: int) -> AFunction:
    """Post-compose with the dual functional: a -> (coefficient alpha of a) * 1.

    This is the coefficient recombination that keeps derivation extensions
    inside the implemented function class; the result is scalar-valued.
    """
    c = phi.coeffs[:, alpha]
    keep = c != 0.0
    rows = c[keep, None] * phi.algebra.unit().coeffs
    return AFunction._of(phi.algebra, phi.chart, tuple(itertools.compress(phi.monos, keep)), rows)


def coordinate_derive(phi: AFunction, i: int) -> AFunction:
    """Derivation extension of the i-th prolonged coordinate field.

    Leibniz over generator products; a generator (alpha, g) goes to
    (alpha, d_i g) and constants die.  These operators commute, and they
    agree with the general extension on prolonged coordinate fields.
    """
    monos, source, factors = [], [], []
    for t, mono in enumerate(phi.monos):
        for j, gen in enumerate(mono):
            dg = diff(gen.fn, i)
            rest = mono[:j] + mono[j + 1:]
            if isinstance(dg, Const):
                # constant generator: dual coefficient is c at slot 0, zero elsewhere
                if dg.value == 0.0 or gen.alpha != 0:
                    continue
                monos.append(rest)
                factors.append(dg.value)
            else:
                monos.append(rest + (ScalarGenerator(gen.alpha, dg),))
                factors.append(1.0)
            source.append(t)
    return _canonical(phi.algebra, phi.chart, monos, phi.coeffs[source] * np.array(factors)[:, None])


def tangent_apply(v: TangentVector, phi: AFunction) -> AElement:
    """Canonical point-derivation extension of a tangent vector, evaluated on phi.

    A-linear in the coefficients, vanishes on constants, agrees with v on
    lifted functions, and satisfies the Leibniz rule relative to evaluation
    at the base near point.  A generator (alpha, g) contributes the dual
    coefficient alpha of v applied to g, a real scalar.  Lifts at the base
    near point come from that point's lift memo.
    """
    if phi.algebra != v.at.algebra:
        raise AlgebraMismatch("function over a different algebra")
    applied: dict[int, list[float]] = {}
    lifted: dict[int, list[float]] = {}
    scalars, rows = [], []
    for t, mono in enumerate(phi.monos):
        at = []  # the generators' values at the base near point, needed only beside another
        for gen in mono if len(mono) > 1 else ():
            c = lifted.get(id(gen.fn))
            if c is None:
                c = lifted[id(gen.fn)] = lift(gen.fn, v.at).coeffs.tolist()
            at.append(c[gen.alpha])
        for j, gen in enumerate(mono):
            c = applied.get(id(gen.fn))
            if c is None:
                c = applied[id(gen.fn)] = v.apply(gen.fn).coeffs.tolist()
            scalar = 1.0
            for k, value in enumerate(at):
                if k != j:
                    scalar *= value
            scalars.append(scalar * c[gen.alpha])
            rows.append(t)
    if not rows:
        return phi.algebra.zero()
    return AElement(phi.algebra, phi.algebra.sum_rows(np.array(scalars)[:, None] * phi.coeffs[rows]))
