"""Near points of a chart model and the lift of smooth functions through them.

A chart model is either an open box in R^n or the circle (coordinate
mod 2*pi, functions restricted to trigonometric polynomials).  A near
point of kind A assigns to each coordinate an element of A whose
augmentation is the corresponding coordinate of an ordinary base point
in the chart.  A smooth function f is pushed through a near point xi by
evaluating its expression tree in A with x_i -> xi_i: sums and products
are A-arithmetic, and each primitive g (sin, cos, exp, log, sqrt, 1/x,
x^c) acts on a0 + n through its series, which terminates as n is nilpotent:

    g(a0 + n) = sum_{k <= height} g^(k)(a0) / k! * n^k,

with the coefficients in closed form (`expr.series`) and the sum by
Horner's rule in A.

This is the unique algebra homomorphism extending x_i -> xi_i on the
implemented function class: forward-mode automatic differentiation on
the dual numbers, Taylor (jet) arithmetic in general.  A near point is
the homomorphism f -> lift(f, xi), so it memoizes its own lifts, shared
by everything evaluated at it and freed with it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Add, Call, Const, Div, Expr, Mul, Neg, Pow, Sub, UnknownVariable, Var, diff, series
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "BasePointOutsideTarget",
    "Chart",
    "NearPoint",
    "TangentVector",
    "lift",
    "lift_map",
]

TWO_PI = 2.0 * math.pi


class BasePointOutsideTarget(ValueError):
    """Image base point does not land in the target chart domain."""


@dataclass(frozen=True)
class Chart:
    """Open box in R^n, or the circle (kind 'circle', n = 1)."""

    kind: str  # "box" | "circle"
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "circle":
            if self.intervals not in ((), ((0.0, TWO_PI),)):
                raise ValueError("circle chart takes no intervals")
            object.__setattr__(self, "intervals", ((0.0, TWO_PI),))
        elif self.kind == "box":
            if not self.intervals:
                raise ValueError("box chart needs at least one interval")
            for lo, hi in self.intervals:
                if not lo < hi:
                    raise ValueError(f"empty interval ({lo}, {hi})")
        else:
            raise ValueError(f"unknown chart kind {self.kind!r}")

    @staticmethod
    def box(intervals: Sequence[tuple[float, float]]) -> "Chart":
        return Chart("box", tuple((float(a), float(b)) for a, b in intervals))

    @staticmethod
    def cube(n: int, lo: float = -1.0, hi: float = 1.0) -> "Chart":
        return Chart.box([(lo, hi)] * n)

    @staticmethod
    def circle() -> "Chart":
        return Chart("circle")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != self.n:
            return False
        if self.kind == "circle":
            return True  # periodic coordinate
        return all(lo < p < hi for (lo, hi), p in zip(self.intervals, point))

    def text(self) -> str:
        if self.kind == "circle":
            return "circle"
        if len(set(self.intervals)) == 1:
            lo, hi = self.intervals[0]
            return f"box:[{lo:g},{hi:g}]^{self.n}"
        return "box:" + "x".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)

    @staticmethod
    def parse(text: str) -> "Chart":
        compact = "".join(text.split())
        if compact == "circle":
            return Chart.circle()
        m = re.match(r"^box:\[([^,\]]+),([^,\]]+)\]\^(\d+)$", compact)
        if m is None:
            raise ValueError(f"cannot parse chart {text!r} (expected box:[lo,hi]^n or circle)")
        lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
        return Chart.cube(n, lo, hi)


class NearPoint:
    """Point of the near-point manifold: one A-element per chart coordinate."""

    __slots__ = ("algebra", "chart", "coords", "_lifts")

    def __init__(self, algebra: WeilAlgebra, chart: Chart, coords: Sequence[AElement]):
        coords = tuple(coords)
        if len(coords) != chart.n:
            raise ValueError(f"expected {chart.n} coordinates, got {len(coords)}")
        for c in coords:
            if c.algebra != algebra:
                raise AlgebraMismatch("coordinate from a different algebra")
        base = [c.augmentation for c in coords]
        if not chart.contains(base):
            raise ValueError(f"base point {base} outside chart {chart.text()}")
        self.algebra = algebra
        self.chart = chart
        self.coords = coords
        self._lifts: dict[int, tuple[Expr, AElement]] = {}  # id(f) -> (f, lift); f pins its id

    def base(self) -> np.ndarray:
        return np.array([c.augmentation for c in self.coords])

    def to_json(self) -> str:
        return json.dumps([list(c.coeffs) for c in self.coords])

    @staticmethod
    def from_json(text: str, algebra: WeilAlgebra, chart: Chart) -> "NearPoint":
        data = json.loads(text)
        return NearPoint(algebra, chart, [algebra.element(c) for c in data])

    def __repr__(self) -> str:
        return f"NearPoint({', '.join(repr(c) for c in self.coords)})"


def lift(f: Expr, xi: NearPoint) -> AElement:
    """Push f through the near point: evaluate the tree of f in A, with x_i -> xi_i.

    Memoized on xi, so the result is shared: callers must not mutate it in place.
    """
    hit = xi._lifts.get(id(f))
    if hit is None:
        hit = xi._lifts[id(f)] = (f, _jet(f, xi))
    return hit[1]


def _jet(e: Expr, xi: NearPoint) -> AElement:
    if isinstance(e, Const):
        return xi.algebra.scalar(e.value)
    if isinstance(e, Var):
        if e.index >= len(xi.coords):
            raise UnknownVariable(f"x{e.index + 1}")
        return xi.coords[e.index]
    if isinstance(e, Add):
        return _jet(e.left, xi) + _jet(e.right, xi)
    if isinstance(e, Sub):
        return _jet(e.left, xi) - _jet(e.right, xi)
    if isinstance(e, Mul):
        return _jet(e.left, xi) * _jet(e.right, xi)
    if isinstance(e, Div):
        return _jet(e.left, xi) * _compose("1/x", _jet(e.right, xi))
    if isinstance(e, Neg):
        return -_jet(e.arg, xi)
    if isinstance(e, Pow):
        if isinstance(e.exponent, Const):
            return _compose(float(e.exponent.value), _jet(e.base, xi))
        # general base^exponent = exp(exponent * log(base))
        return _compose("exp", _jet(e.exponent, xi) * _compose("log", _jet(e.base, xi)))
    if isinstance(e, Call):
        return _compose(e.fn, _jet(e.arg, xi))
    raise TypeError(f"not an expression: {e!r}")


def _compose(g: str | float, a: AElement) -> AElement:
    """g(a0 + n) = sum_{k <= height} c_k n^k for a primitive g and nilpotent n.

    `expr.series` gives the coefficients c_k = g^(k)(a0) / k! in closed form
    (and owns every domain check); the sum is Horner's rule on coefficient
    arrays, c_0 + n (c_1 + n (c_2 + ... + n c_h)): height products in A.
    """
    algebra = a.algebra
    c = series(g, a.augmentation, algebra.height)
    n = a.coeffs.copy()
    n[0] = 0.0
    acc = np.zeros(algebra.dim)
    acc[0] = c[-1]
    for ck in reversed(c[:-1]):
        acc = algebra.mul_coeffs(acc, n)
        acc[0] += ck
    return AElement(algebra, acc)


def lift_map(h: Sequence[Expr], xi: NearPoint, target: Chart) -> NearPoint:
    """Lift of the smooth map with components h: coordinates lift(h_j, xi)."""
    if len(h) != target.n:
        raise ValueError(f"map has {len(h)} components, target chart has {target.n}")
    coords = [lift(hj, xi) for hj in h]
    base = [c.augmentation for c in coords]
    if not target.contains(base):
        raise BasePointOutsideTarget(f"image base point {base} outside {target.text()}")
    return NearPoint(xi.algebra, target, coords)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a near point: a Leibniz map from smooth functions into A.

    Determined by its values on the coordinates; on a general function it acts
    through the chain rule v(f) = sum_i lift(d_i f, at) * components[i].
    """

    at: NearPoint
    components: tuple[AElement, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.at.chart.n:
            raise ValueError("component count differs from chart dimension")
        for u in self.components:
            if u.algebra != self.at.algebra:
                raise AlgebraMismatch("component from a different algebra")

    def apply(self, f: Expr) -> AElement:
        acc = self.at.algebra.zero()
        for i, u in enumerate(self.components):
            acc = acc + lift(diff(f, i), self.at) * u
        return acc

    def apply_fn(self, phi) -> AElement:
        """Action of the unique point-derivation extension on an A-valued function."""
        from .functions import tangent_apply

        return tangent_apply(self, phi)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        if other.at is not self.at and other.at.coords != self.at.coords:
            raise ValueError("tangent vectors at different points")
        return TangentVector(self.at, tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, a: AElement) -> "TangentVector":
        return TangentVector(self.at, tuple(a * u for u in self.components))
