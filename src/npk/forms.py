"""A-valued differential forms on the near-point manifold.

A degree-p form is stored against the prolonged coordinate coframe: a
list of A-valued coefficient functions indexed by strictly increasing
p-tuples.  Evaluation against p vector fields contracts with the
A-determinant of their coordinate components, expanded over
permutations (no pivoting makes sense with zero divisors, and degrees
stay tiny).  The exterior-type operator acts on coefficients through
the canonical derivation extensions of the prolonged coordinate fields;
palais_eval values the same derivative by the global formula, with
alternating-sign field applications and bracket corrections, from values
alone (no symbolic contraction, extension or bracket is built), and the
tests keep that formula built symbolically as its reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    DifferentialForm,
    VectorField as BaseField,
    _insert_index,
    _perm_sign,
    _sort_indices,
)
from .fields import AVectorField, prolong
from .functions import AFunction, _extension_values, _sum, coordinate_derive, lifted_function
from .points import Chart, NearPoint, NearPoints
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "AForm",
    "ArityMismatch",
    "DegreeOverflow",
    "exterior_derivative",
    "palais_eval",
    "prolong_form",
    "wedge",
]


class ArityMismatch(ValueError):
    """Number of fields differs from the form degree."""


class DegreeOverflow(ValueError):
    """Operation would produce a form of degree above the chart dimension."""


@dataclass(frozen=True)
class AForm:
    """Degree-p A-form: A-valued coefficients against increasing coordinate index tuples."""

    algebra: WeilAlgebra
    chart: Chart
    degree: int
    terms: tuple[tuple[AFunction, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.chart.n:
            raise DegreeOverflow(f"degree {self.degree} outside 0..{self.chart.n}")
        grouped: dict[tuple[int, ...], list[AFunction]] = {}
        for phi, idx in self.terms:
            if phi.algebra != self.algebra or phi.chart != self.chart:
                raise AlgebraMismatch("coefficient over a different algebra or chart")
            if len(idx) != self.degree:
                raise ValueError(f"index tuple {idx} does not match degree {self.degree}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} not strictly increasing")
            if any(not 0 <= i < self.chart.n for i in idx):
                raise ValueError(f"index out of range in {idx}")
            grouped.setdefault(idx, []).append(phi)
        kept = []
        for idx, phis in sorted(grouped.items()):
            phi = phis[0] if len(phis) == 1 else _sum(self.algebra, self.chart, phis)
            if not phi.is_structurally_zero():
                kept.append((phi, idx))
        object.__setattr__(self, "terms", tuple(kept))

    def _check(self, other: "AForm") -> None:
        if self.algebra != other.algebra or self.chart != other.chart:
            raise AlgebraMismatch("forms over different algebras or charts")

    def coefficient(self, idx: tuple[int, ...]) -> AFunction:
        for phi, i in self.terms:
            if i == idx:
                return phi
        return AFunction.zero(self.algebra, self.chart)

    def __add__(self, other: "AForm") -> "AForm":
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("forms of different degree")
        return AForm(self.algebra, self.chart, self.degree, self.terms + other.terms)

    def __sub__(self, other: "AForm") -> "AForm":
        return self + other.scale_const(-1.0)

    def scale(self, factor: AFunction) -> "AForm":
        return AForm(
            self.algebra, self.chart, self.degree, tuple((factor * phi, idx) for phi, idx in self.terms)
        )

    def scale_const(self, a: AElement | float) -> "AForm":
        return AForm(
            self.algebra, self.chart, self.degree, tuple((phi.scale(a), idx) for phi, idx in self.terms)
        )

    def contract(self, fields: Sequence[AVectorField]) -> AFunction:
        """Pointfree evaluation: returns the A-valued function xi -> eta(X_1..X_p)(xi)."""
        if len(fields) != self.degree:
            raise ArityMismatch(f"degree {self.degree} form applied to {len(fields)} fields")
        for x in fields:
            if x.algebra != self.algebra or x.chart != self.chart:
                raise AlgebraMismatch("field over a different algebra or chart")
        parts = []
        for phi, idx in self.terms:
            dets = []
            for perm in itertools.permutations(range(self.degree)):
                prod = AFunction.constant(
                    self.algebra.scalar(float(_perm_sign(perm))), self.chart
                )
                for row, col in enumerate(perm):
                    prod = prod * fields[row].components[idx[col]]
                dets.append(prod)
            parts.append(phi * _sum(self.algebra, self.chart, dets))
        return _sum(self.algebra, self.chart, parts)

    def evaluate(self, fields: Sequence[AVectorField], xi: NearPoint | NearPoints) -> AElement | np.ndarray:
        """eta(X_1..X_p) at a near point, or its (dim, N) values at a block of N points."""
        if len(fields) != self.degree:
            raise ArityMismatch(f"degree {self.degree} form applied to {len(fields)} fields")
        values = [[xi._unwrap(c.evaluate(xi)) for c in x.components] for x in fields]
        return xi._wrap(self.on_values(values, xi))

    def on_values(self, values: Sequence[Sequence[np.ndarray]], xi: NearPoint | NearPoints,
                  coefficients: Sequence[np.ndarray] | None = None) -> np.ndarray:
        """eta(X_1..X_p) at xi from the coefficients values[r][i] of component i of X_r there,
        (dim,) at a point and (dim, N) at a block: coefficients times A-determinants.

        coefficients, when given, are the values at xi to use in place of the
        coefficient functions', one per term in term order.
        """
        mul = self.algebra.mul_coeffs
        shape = xi.values[0].shape  # the layout of every value at xi
        if coefficients is None:
            coefficients = [xi._unwrap(phi.evaluate(xi)) for phi, _ in self.terms]
        acc = np.zeros(shape)
        for (_, idx), coefficient in zip(self.terms, coefficients):
            det = np.zeros(shape)
            for perm in itertools.permutations(range(self.degree)):
                prod = np.zeros(shape)
                prod[0] = float(_perm_sign(perm))
                for row, col in enumerate(perm):
                    prod = mul(prod, values[row][idx[col]])
                det = det + prod
            acc = acc + mul(coefficient, det)
        return acc

    @staticmethod
    def zero(algebra: WeilAlgebra, chart: Chart, degree: int) -> "AForm":
        return AForm(algebra, chart, degree, ())


def prolong_form(omega: DifferentialForm, algebra: WeilAlgebra, chart: Chart) -> AForm:
    """Prolongation of a base form: lift each coefficient function."""
    if omega.n != chart.n:
        raise ValueError("form dimension differs from chart dimension")
    return AForm(
        algebra,
        chart,
        omega.degree,
        tuple((lifted_function(g, algebra, chart), idx) for g, idx in omega.terms),
    )


def wedge(eta1: AForm, eta2: AForm) -> AForm:
    """Exterior product with shuffle signs on the coordinate index tuples."""
    eta1._check(eta2)
    p, q = eta1.degree, eta2.degree
    if p + q > eta1.chart.n:
        raise DegreeOverflow(f"wedge of degrees {p} and {q} exceeds dimension {eta1.chart.n}")
    terms = []
    for phi1, idx1 in eta1.terms:
        for phi2, idx2 in eta2.terms:
            merged = _sort_indices(idx1 + idx2)
            if merged is None:
                continue
            sign, idx = merged
            terms.append(((phi1 * phi2).scale(float(sign)), idx))
    return AForm(eta1.algebra, eta1.chart, p + q, tuple(terms))


def exterior_derivative(eta: AForm) -> AForm:
    """Coefficientwise operator: d(phi dx_I) = sum_i (extension of d/dx_i^A)(phi) dx_i ^ dx_I.

    coordinate_derive(phi, i) is the extension of the prolonged coordinate
    field d/dx_i^A; palais_eval is the independent route to the same value.
    """
    if eta.degree >= eta.chart.n:
        raise DegreeOverflow(f"cannot raise degree {eta.degree} on an {eta.chart.n}-dim chart")
    terms = []
    for phi, idx in eta.terms:
        for i in range(eta.chart.n):
            slot = _insert_index(i, idx)
            if slot is None:
                continue
            sign, new_idx = slot
            terms.append((coordinate_derive(phi, i).scale(float(sign)), new_idx))
    return AForm(eta.algebra, eta.chart, eta.degree + 1, tuple(terms))


def palais_eval(
    eta: AForm, thetas: Sequence[BaseField], xi: NearPoint | NearPoints
) -> AElement | np.ndarray:
    """Global formula for the derivative of eta on prolonged base fields.

    sum_i (-1)^i Xi~[eta(.. hat i ..)] + sum_{i<j} (-1)^(i+j) eta([Xi,Xj], .. hats ..)
    valued at a near point, or at each point of a block of N at once (a
    (dim, N) array), where Xi is the prolongation of thetas[i], from values
    alone: Xi~ is a derivation, so Xi~[eta(rest)] is sum_I Xi~(phi_I) det_I(rest)
    + phi_I sum_r det_I(rest, row r <- Xi~(row r)), and [Xi,Xj]^k is
    Xi~(Xj^k) - Xj~(Xi^k), each Xi~ by _extension_values and each det_I by
    on_values.  Independent of the coefficientwise route, which it must match.
    """
    if len(thetas) != eta.degree + 1:
        raise ArityMismatch(f"need {eta.degree + 1} fields, got {len(thetas)}")
    fields = [prolong(t, eta.algebra, eta.chart) for t in thetas]
    u = [[xi._unwrap(c.evaluate(xi)) for c in x.components] for x in fields]
    phis = [xi._unwrap(phi.evaluate(xi)) for phi, _ in eta.terms]
    applied = {(i, r): [_extension_values(c, xi, u[i]) for c in x.components]  # Xi~(Xr^k) by k
               for i in range(len(fields)) for r, x in enumerate(fields) if r != i}
    acc = np.zeros(xi.values[0].shape)
    for i in range(len(fields)):
        rest = [r for r in range(len(fields)) if r != i]
        rows = [u[r] for r in rest]
        term = eta.on_values(rows, xi, [_extension_values(phi, xi, u[i]) for phi, _ in eta.terms])
        for s, r in enumerate(rest):
            term = term + eta.on_values(rows[:s] + [applied[i, r]] + rows[s + 1:], xi, phis)
        acc = acc + term * ((-1.0) ** i)
    for i, j in itertools.combinations(range(len(fields)), 2):
        rows = [[a - b for a, b in zip(applied[i, j], applied[j, i])]]
        rows += [u[k] for k in range(len(fields)) if k not in (i, j)]
        acc = acc + eta.on_values(rows, xi, phis) * ((-1.0) ** (i + j))
    return xi._wrap(acc)
