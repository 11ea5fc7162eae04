"""Computable A-valued functions on the near-point manifold.

The class implemented here consists of A-coefficient polynomials in
scalar generators: a generator (alpha, g) denotes the real-valued
function xi -> coefficient alpha of lift(g, xi), and a term is an
A-element coefficient times a finite product of generators.  The class
is closed under addition, multiplication, scaling by A, post-composition
with linear maps of A, and the derivation extensions used by vector
fields; it contains every lifted smooth function and every A-constant,
which is all the surrounding theory manipulates.

Equality of two such functions is decided by evaluation at sampled near
points, never structurally: distinct term lists routinely denote the
same function (e.g. the lift of f*g versus the product of the lifts).
Evaluation keeps no lift cache: lift(g, xi) is memoized on the point xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .expr import Const, Expr, diff, expr_key
from .points import Chart, NearPoint, TangentVector, lift
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


def _mono_key(mono: tuple[ScalarGenerator, ...]) -> tuple:
    return tuple(g.key for g in mono)


def _sort_mono(gens: Iterable[ScalarGenerator]) -> tuple[ScalarGenerator, ...]:
    return tuple(sorted(gens, key=lambda g: g.key))


class AFunction:
    """A-coefficient polynomial in scalar generators; immutable after construction."""

    __slots__ = ("algebra", "chart", "terms")

    def __init__(
        self,
        algebra: WeilAlgebra,
        chart: Chart,
        terms: Iterable[tuple[AElement, tuple[ScalarGenerator, ...]]] = (),
    ):
        merged: dict[tuple, list] = {}
        for coeff, mono in terms:
            if coeff.algebra != algebra:
                raise AlgebraMismatch("coefficient from a different algebra")
            mono = _sort_mono(mono)
            key = _mono_key(mono)
            slot = merged.get(key)
            if slot is None:
                merged[key] = [coeff.coeffs.copy(), mono]
            else:
                slot[0] = slot[0] + coeff.coeffs
        kept = []
        for key in sorted(merged):
            coeffs, mono = merged[key]
            if coeffs.any():
                kept.append((AElement(algebra, coeffs), mono))
        self.algebra = algebra
        self.chart = chart
        self.terms: tuple[tuple[AElement, tuple[ScalarGenerator, ...]], ...] = tuple(kept)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(a: AElement, chart: Chart) -> "AFunction":
        return AFunction(a.algebra, chart, [(a, ())])

    @staticmethod
    def zero(algebra: WeilAlgebra, chart: Chart) -> "AFunction":
        return AFunction(algebra, chart, [])

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "AFunction") -> None:
        if self.algebra != other.algebra or self.chart != other.chart:
            raise AlgebraMismatch("functions over different algebras or charts")

    def __add__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        return AFunction(self.algebra, self.chart, self.terms + other.terms)

    def __sub__(self, other: "AFunction") -> "AFunction":
        return self + (-other)

    def __neg__(self) -> "AFunction":
        return AFunction(self.algebra, self.chart, [(-c, m) for c, m in self.terms])

    def __mul__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        out = []
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                out.append((c1 * c2, m1 + m2))
        return AFunction(self.algebra, self.chart, out)

    def scale(self, a: AElement | float) -> "AFunction":
        if isinstance(a, AElement):
            return AFunction(self.algebra, self.chart, [(a * c, m) for c, m in self.terms])
        return AFunction(self.algebra, self.chart, [(c * float(a), m) for c, m in self.terms])

    def is_structurally_zero(self) -> bool:
        return not self.terms

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, xi: NearPoint) -> AElement:
        """Value at xi; the generators' lifts come from the point's own lift memo."""
        if xi.algebra != self.algebra:
            raise AlgebraMismatch("near point over a different algebra")
        acc = np.zeros(self.algebra.dim)
        for coeff, mono in self.terms:
            scalar = 1.0
            for gen in mono:
                scalar *= lift(gen.fn, xi).coefficient(gen.alpha)
            acc = acc + scalar * coeff.coeffs
        return AElement(self.algebra, acc)

    def __repr__(self) -> str:
        if not self.terms:
            return "AFunction(0)"
        parts = []
        for coeff, mono in self.terms:
            gens = "*".join(f"gen({g.alpha},{expr_key(g.fn)!r})" for g in mono)
            parts.append(f"[{coeff!r}]" + (f"*{gens}" if gens else ""))
        return "AFunction(" + " + ".join(parts) + ")"


def lifted_function(f: Expr, algebra: WeilAlgebra, chart: Chart) -> AFunction:
    """The lift of f as a function object: sum_alpha e_alpha * (coefficient alpha of the lift).

    Evaluating at any near point reproduces lift(f, xi) exactly; the expansion
    over the dual basis is what makes the lift manipulable termwise.  Constant
    expressions collapse to constant functions.
    """
    if isinstance(f, Const):
        return AFunction.constant(algebra.scalar(f.value), chart)
    return AFunction(
        algebra,
        chart,
        [(algebra.basis_element(alpha), (ScalarGenerator(alpha, f),)) for alpha in range(algebra.dim)],
    )


def dual_projection(phi: AFunction, alpha: int) -> AFunction:
    """Post-compose with the dual functional: a -> (coefficient alpha of a) * 1.

    This is the coefficient recombination that keeps derivation extensions
    inside the implemented function class; the result is scalar-valued.
    """
    algebra = phi.algebra
    unit = algebra.unit()
    terms = []
    for coeff, mono in phi.terms:
        c = coeff.coeffs[alpha]
        if c != 0.0:
            terms.append((unit * c, mono))
    return AFunction(algebra, phi.chart, terms)


def coordinate_derive(phi: AFunction, i: int) -> AFunction:
    """Derivation extension of the i-th prolonged coordinate field.

    Leibniz over generator products; a generator (alpha, g) goes to
    (alpha, d_i g) and constants die.  These operators commute, and they
    agree with the general extension on prolonged coordinate fields.
    """
    algebra, chart = phi.algebra, phi.chart
    terms = []
    for coeff, mono in phi.terms:
        for j, gen in enumerate(mono):
            dg = diff(gen.fn, i)
            rest = mono[:j] + mono[j + 1:]
            if isinstance(dg, Const):
                if dg.value == 0.0:
                    continue
                # constant generator: dual coefficient is c at slot 0, zero elsewhere
                if gen.alpha != 0:
                    continue
                terms.append((coeff * dg.value, rest))
            else:
                terms.append((coeff, rest + (ScalarGenerator(gen.alpha, dg),)))
    return AFunction(algebra, chart, terms)


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
    algebra = phi.algebra
    apply_cache: dict[int, AElement] = {}

    def applied(g: Expr) -> AElement:
        out = apply_cache.get(id(g))
        if out is None:
            out = v.apply(g)
            apply_cache[id(g)] = out
        return out

    acc = algebra.zero()
    for coeff, mono in phi.terms:
        for j, gen in enumerate(mono):
            scalar = 1.0
            for k, other in enumerate(mono):
                if k != j:
                    scalar *= lift(other.fn, v.at).coefficient(other.alpha)
            derived = applied(gen.fn).coefficient(gen.alpha)
            acc = acc + (scalar * derived) * coeff
    return acc
