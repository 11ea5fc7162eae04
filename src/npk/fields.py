"""Vector fields on the near-point manifold.

A vector field is modeled as a derivation from smooth functions on the
base chart into A-valued functions, determined by its coordinate
components c_i = X(x_i); applying it to a general f reconstructs the
value through the chain rule, X(f) = sum_i lift(d_i f) * c_i.

Each field extends canonically to a derivation of the A-valued function
algebra itself: A-linear in coefficients, zero on A-constants, X(f) on
the lift of f, and scalar functions stay scalar.  On a scalar generator
(alpha, g) the extension takes the dual coefficient alpha of X(g),
which keeps results inside the implemented function class.  The bracket
built from this extension is an A-Lie bracket on the fields whose
components lie in the lift-generated subalgebra (prolongations,
derivation-induced fields, and their A-function multiples); on bare
generator components the module laws pick up a vertical correction,
see apply_fn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Const, Expr, Var, VectorField as BaseField, diff
from .functions import AFunction, _expansion, _extension, _sum, coordinate_derive, lifted_function
from .points import Chart, NearPoint
from .weil import AElement, AlgebraMismatch, Derivation, WeilAlgebra

__all__ = [
    "AVectorField",
    "bracket",
    "coordinate_prolongation",
    "from_derivation",
    "prolong",
]


@dataclass(frozen=True)
class AVectorField:
    """Derivation into A-valued functions, stored by coordinate components."""

    algebra: WeilAlgebra
    chart: Chart
    components: tuple[AFunction, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.chart.n:
            raise ValueError("component count differs from chart dimension")
        for c in self.components:
            if (c.algebra is not self.algebra or c.chart is not self.chart) and (
                c.algebra != self.algebra or c.chart != self.chart
            ):
                raise AlgebraMismatch("component over a different algebra or chart")
        object.__setattr__(self, "_images", {})  # apply's memo: id(f) -> (f, X(f)); f pins its id

    def _check(self, other: "AVectorField") -> None:
        if self.algebra != other.algebra or self.chart != other.chart:
            raise AlgebraMismatch("fields over different algebras or charts")

    def apply(self, f: Expr) -> AFunction:
        """X(f) = sum_i lift(d_i f) * c_i, built once per expression object."""
        hit = self._images.get(id(f))
        if hit is not None:
            return hit[1]
        parts = []
        for i, c in enumerate(self.components):
            df = diff(f, i)
            if isinstance(df, Const) and df.value == 0.0:
                continue
            parts.append(lifted_function(df, self.algebra, self.chart) * c)
        self._images[id(f)] = (f, _sum(self.algebra, self.chart, parts))
        return self._images[id(f)][1]

    def apply_fn(self, phi: AFunction) -> AFunction:
        """Action of the canonical derivation extension on an A-valued function.

        Leibniz over generator products, A-linear in the coefficients, zero on
        A-constants, and X(f) on the lift of f.  A generator (alpha, g) goes to
        the scalar-valued projection of X(g) onto the dual slot alpha; this is
        the unique extension that keeps scalar functions scalar, and it is the
        classical action of the underlying real vector field.  It is not
        A-linear in X itself: on fields with bare-generator components the
        module laws acquire a correction, see the identity checks.
        """
        if phi.algebra != self.algebra or phi.chart != self.chart:
            raise AlgebraMismatch("function over a different algebra or chart")
        coord = self._coordinate
        if coord is not None:
            return coordinate_derive(phi, coord)
        images: dict[int, AFunction] = {}  # X(g) per distinct generator function g
        for gen in phi.gens:
            if id(gen.fn) not in images:
                images[id(gen.fn)] = self.apply(gen.fn)
        return _extension(phi, images)

    @cached_property
    def _coordinate(self) -> int | None:
        """Index i when this field is the prolongation of d/dx_i, else None."""
        found = None
        for i, c in enumerate(self.components):
            if c.is_structurally_zero():
                continue
            if found is not None or len(c.indices) != 1:
                return None
            row = c.coeffs[0]
            if c.indices[0] or row[0] != 1.0 or np.any(row[1:] != 0.0):
                return None
            found = i
        return found

    def __add__(self, other: "AVectorField") -> "AVectorField":
        self._check(other)
        return AVectorField(
            self.algebra, self.chart, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "AVectorField") -> "AVectorField":
        self._check(other)
        return AVectorField(
            self.algebra, self.chart, tuple(a - b for a, b in zip(self.components, other.components))
        )

    def scale(self, factor: AFunction | AElement | float) -> "AVectorField":
        """Module structure: scaling by an A-valued function or an A-constant."""
        if isinstance(factor, AFunction):
            return AVectorField(
                self.algebra, self.chart, tuple(factor * c for c in self.components)
            )
        return AVectorField(self.algebra, self.chart, tuple(c.scale(factor) for c in self.components))

    def evaluate(self, xi: NearPoint) -> list[AElement]:
        return [c.evaluate(xi) for c in self.components]

    @staticmethod
    def zero(algebra: WeilAlgebra, chart: Chart) -> "AVectorField":
        z = AFunction.zero(algebra, chart)
        return AVectorField(algebra, chart, tuple(z for _ in range(chart.n)))


def prolong(theta: BaseField, algebra: WeilAlgebra, chart: Chart) -> AVectorField:
    """Prolongation of a base vector field: components are the lifted component functions."""
    if theta.n != chart.n:
        raise ValueError("field dimension differs from chart dimension")
    return AVectorField(
        algebra, chart, tuple(lifted_function(c, algebra, chart) for c in theta.components)
    )


def coordinate_prolongation(algebra: WeilAlgebra, chart: Chart, i: int) -> AVectorField:
    """Prolongation of d/dx_i: unit in slot i, zero elsewhere."""
    comps = [AFunction.zero(algebra, chart) for _ in range(chart.n)]
    comps[i] = AFunction.constant(algebra.unit(), chart)
    return AVectorField(algebra, chart, tuple(comps))


def from_derivation(d: Derivation, chart: Chart) -> AVectorField:
    """Field induced by a derivation d of A: evaluation at xi gives -d(xi(x_i)).

    Component i is sum_alpha (coefficient alpha of the coordinate lift) * (-d(e_alpha)).
    """
    algebra = d.algebra
    comps = (_expansion(Var(i), algebra, chart, np.ascontiguousarray(-d.matrix.T)) for i in range(chart.n))
    return AVectorField(algebra, chart, tuple(comps))


def bracket(x: AVectorField, y: AVectorField) -> AVectorField:
    """A-Lie bracket: component i is X~(Y(x_i)) - Y~(X(x_i))."""
    x._check(y)
    comps = tuple(
        x.apply_fn(y.components[i]) - y.apply_fn(x.components[i]) for i in range(x.chart.n)
    )
    return AVectorField(x.algebra, x.chart, comps)
