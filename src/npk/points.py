"""Near points of a chart model and the lift of smooth functions through them.

A chart model is either an open box in R^n or the circle (coordinate
mod 2*pi, functions restricted to trigonometric polynomials).  A near
point of kind A assigns to each coordinate an element of A whose
augmentation is the corresponding coordinate of an ordinary base point
in the chart.  A smooth function f is pushed through a near point xi by
evaluating its expression tree in A with x_i -> xi_i: sums and products
are A-arithmetic, except that a constant factor c (c times the unit of A)
scales, and each primitive g (sin, cos, exp, log, sqrt, 1/x, x^c) acts on
a0 + n through its series, which terminates as n is nilpotent:

    g(a0 + n) = sum_{k <= height} g^(k)(a0) / k! * n^k,

with the coefficients in closed form (`expr.series`) and the sum by
Horner's rule in A from the highest nonzero coefficient.  A `Polynomial`
leaf runs the operations of the tree it spells, term by term.

This is the unique algebra homomorphism extending x_i -> xi_i on the
implemented function class: forward-mode automatic differentiation on
the dual numbers, Taylor (jet) arithmetic in general.

A block of N near points (`NearPoints`) is one coefficient-major (n, dim, N)
array; the tree is evaluated once per node for the whole block, on raw
(dim, N) arrays, column j being point j.  A `NearPoint` is a block of one
that runs the same code on (dim,) arrays and hands out `AElement`s.  A point
or a block is the homomorphism f -> lift(f, xi), so it memoizes its own
lifts, shared by everything evaluated on it and freed with it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Add, Call, Const, Div, Expr, Mul, Neg, Polynomial, Pow, Sub, UnknownVariable, Var, diff, evaluate
from .expr import constant_exponent, series
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "BasePointOutsideTarget",
    "Chart",
    "NearPoint",
    "NearPoints",
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
    """Point of the near-point manifold: one A-element per chart coordinate.

    values[i] is the (dim,) coefficients of coordinate i; _wrap and _unwrap
    turn the coefficients of a value here into an AElement and back.
    """

    __slots__ = ("algebra", "chart", "coords", "values", "_lifts")

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
        self._set(algebra, chart, coords)

    @classmethod
    def _of(cls, algebra: WeilAlgebra, chart: Chart, coords: Sequence[AElement]) -> "NearPoint":
        """The point of coordinates already checked to lie over the chart: __init__ without its checks."""
        self = cls.__new__(cls)
        self._set(algebra, chart, tuple(coords))
        return self

    def _set(self, algebra: WeilAlgebra, chart: Chart, coords: tuple[AElement, ...]) -> None:
        self.algebra = algebra
        self.chart = chart
        self.coords = coords
        self.values = tuple(c.coeffs for c in coords)
        self._lifts: dict[int, tuple[Expr, AElement]] = {}  # id(f) -> (f, lift); f pins its id

    def base(self) -> np.ndarray:
        return np.array([c.augmentation for c in self.coords])

    def _wrap(self, coeffs: np.ndarray) -> AElement:
        return AElement(self.algebra, coeffs)

    @staticmethod
    def _unwrap(value: AElement) -> np.ndarray:
        return value.coeffs

    def to_json(self) -> str:
        return json.dumps([list(c.coeffs) for c in self.coords])

    @staticmethod
    def from_json(text: str, algebra: WeilAlgebra, chart: Chart) -> "NearPoint":
        return NearPoint(algebra, chart, [algebra.element(c) for c in coefficient_lists(text)])

    def __repr__(self) -> str:
        return f"NearPoint({', '.join(repr(c) for c in self.coords)})"


class NearPoints:
    """A block of N near points over one algebra and chart, held coefficient-major.

    values is a read-only (n, dim, N) array: values[i] is the (dim, N)
    coefficient array of coordinate i, column j that of point j.  A value at
    the block, such as a lift, is a read-only (dim, N) array whose column j is
    the value at point j, so _wrap and _unwrap hand the array on.
    """

    __slots__ = ("algebra", "chart", "values", "_lifts")

    def __init__(self, algebra: WeilAlgebra, chart: Chart, values: Sequence[np.ndarray]):
        values = np.array(values, dtype=float, order="C")
        if values.ndim != 3 or values.shape[:2] != (chart.n, algebra.dim) or not values.shape[2]:
            raise ValueError(f"expected an ({chart.n}, {algebra.dim}, N) array, N >= 1, got shape {values.shape}")
        for base in _bases(values):
            if not chart.contains(base):
                raise ValueError(f"base point {base} outside chart {chart.text()}")
        self._set(algebra, chart, values)

    @classmethod
    def _of(cls, algebra: WeilAlgebra, chart: Chart, values: Sequence[np.ndarray]) -> "NearPoints":
        """The block of coordinates already checked to lie over the chart: __init__ without its checks."""
        self = cls.__new__(cls)
        self._set(algebra, chart, np.array(values, dtype=float, order="C"))
        return self

    def _set(self, algebra: WeilAlgebra, chart: Chart, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.algebra = algebra
        self.chart = chart
        self.values = values
        self._lifts: dict[int, tuple[Expr, np.ndarray]] = {}  # id(f) -> (f, lift); f pins its id

    @staticmethod
    def stack(points: Sequence[NearPoint]) -> "NearPoints":
        """The block whose column j is points[j]."""
        if not points:
            raise ValueError("a block needs at least one point")
        algebra, chart = points[0].algebra, points[0].chart
        if any(p.algebra != algebra or p.chart != chart for p in points):
            raise AlgebraMismatch("points over different algebras or charts")
        return NearPoints(algebra, chart, np.stack([p.values for p in points], axis=-1))

    def points(self) -> list[NearPoint]:
        """The NearPoint of each column, each coordinate a fresh copy: the inverse of stack."""
        return [NearPoint._of(self.algebra, self.chart, [AElement(self.algebra, v.copy()) for v in point])
                for point in self.values.transpose(2, 0, 1)]

    def base(self) -> np.ndarray:
        """The (n, N) array of base points, column j that of point j."""
        return self.values[:, 0, :]

    @staticmethod
    def _wrap(coeffs: np.ndarray) -> np.ndarray:
        coeffs.flags.writeable = False
        return coeffs

    @staticmethod
    def _unwrap(value: np.ndarray) -> np.ndarray:
        return value


def coefficient_lists(text: str) -> list:
    """The JSON of a near point, checked to be a list of coefficient lists of numbers, one per coordinate."""
    # an int beyond the float range reads as inf, as 1e400 does; NaN and Infinity read as strings, refused below
    data = json.loads(text, parse_int=float, parse_constant=str)
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise ValueError(f"expected a near point as a list of coefficient lists, one per coordinate, got {text}")
    for c in itertools.chain.from_iterable(data):
        if not isinstance(c, (float, list)):  # a list is left to algebra.element, which names the shape
            raise ValueError(f"expected numbers as coefficients, got {json.dumps(c)} in {text}")
    return data


def _bases(values: Sequence[np.ndarray]) -> list[list[float]]:
    """The base point of each point, from the coordinates' (dim,) or (dim, N) coefficient arrays."""
    return np.array([v[0] for v in values]).reshape(len(values), -1).T.tolist()


def lift(f: Expr, xi: NearPoint | NearPoints) -> AElement | np.ndarray:
    """Push f through the near point: evaluate the tree of f in A, with x_i -> xi_i.

    At a NearPoint the lift is an AElement; at a block of N points it is the
    (dim, N) array whose column j is the lift at point j.  Memoized on xi, so
    the result is shared: callers must not mutate it in place.
    """
    hit = xi._lifts.get(id(f))
    if hit is None:
        hit = xi._lifts[id(f)] = (f, xi._wrap(_jet(f, xi)))
    return hit[1]


def _jet(e: Expr, xi: NearPoint | NearPoints) -> np.ndarray:
    """Coefficients of the lift of e: (dim,) at a point, (dim, N) at a block, column by column."""
    if isinstance(e, Polynomial):
        return _polynomial_jet(e, xi)
    if isinstance(e, Const):
        out = np.zeros(xi.values[0].shape)
        out[0] = e.value
        return out
    if isinstance(e, Var):
        if e.index >= len(xi.values):
            raise UnknownVariable(f"x{e.index + 1}")
        return xi.values[e.index]
    if isinstance(e, Add):
        return _jet(e.left, xi) + _jet(e.right, xi)
    if isinstance(e, Mul):  # a constant factor c.1 scales: mul_coeffs(c.1, v) is c * v + 0.0 for finite v
        if isinstance(e.left, Const):
            return e.left.value * _jet(e.right, xi) + 0.0
        if isinstance(e.right, Const):
            return e.right.value * _jet(e.left, xi) + 0.0
        return xi.algebra.mul_coeffs(_jet(e.left, xi), _jet(e.right, xi))
    if isinstance(e, Pow):
        if constant_exponent(e):  # x^c with c a number, however it is spelled
            c = e.exponent.value if isinstance(e.exponent, Const) else evaluate(e.exponent, ())
            return _compose(float(c), _jet(e.base, xi), xi.algebra)
        # general base^exponent = exp(exponent * log(base))
        exponent, log = _jet(e.exponent, xi), _compose("log", _jet(e.base, xi), xi.algebra)
        return _compose("exp", xi.algebra.mul_coeffs(exponent, log), xi.algebra)
    if isinstance(e, Call):
        return _compose(e.fn, _jet(e.arg, xi), xi.algebra)
    if isinstance(e, Sub):
        return _jet(e.left, xi) - _jet(e.right, xi)
    if isinstance(e, Neg):
        return -_jet(e.arg, xi)
    if isinstance(e, Div):
        if isinstance(e.left, Const):
            return e.left.value * _compose("1/x", _jet(e.right, xi), xi.algebra) + 0.0
        return xi.algebra.mul_coeffs(_jet(e.left, xi), _compose("1/x", _jet(e.right, xi), xi.algebra))
    raise TypeError(f"not an expression: {e!r}")


def _polynomial_jet(p: Polynomial, xi: NearPoint | NearPoints) -> np.ndarray:
    """The lift of p's tree: c*x_i^e*x_j^f.. is c * x_i^e + 0.0 (x_i^e if c = 1) times the rest; terms add in order."""
    algebra, acc = xi.algebra, None
    for c, m in p.terms:
        term = None
        for i, e in enumerate(m):
            if not e:
                continue
            if i >= len(xi.values):
                raise UnknownVariable(f"x{i + 1}")
            factor = xi.values[i] if e == 1 else _compose(float(e), xi.values[i], algebra)
            term = (factor if c == 1.0 else c * factor + 0.0) if term is None else algebra.mul_coeffs(term, factor)
        if term is None:  # a constant term
            term = np.zeros(xi.values[0].shape)
            term[0] = c
        acc = term if acc is None else acc + term
    return acc


def _compose(g: str | float, a: np.ndarray, algebra: WeilAlgebra) -> np.ndarray:
    """g(a0 + n) = sum_{k <= height} c_k n^k for a primitive g and nilpotent n, column by column.

    `expr.series` gives the coefficients c_k = g^(k)(a0) / k! in closed form
    (and owns every domain check): floats at a point, one row of N per k at a
    block.  The sum is Horner's rule, c_0 + n (c_1 + n (c_2 + ... + n c_top)),
    from the highest nonzero coefficient c_top (a zero row must be zero in
    every column); its first step is the scale c_top * n, so a primitive costs
    top - 1 products in A.  n's side of the product table is gathered once, so
    each product is one gather of acc, one multiply and one bincount, as
    mul_coeffs(acc, n) computes it.  For finite n every step equals the full
    Horner sum from c_height bit for bit.
    """
    h, n = algebra.height, a.copy()
    n[0] = 0.0
    if a.ndim == 1:
        c, nonzero = series(g, float(a[0]), h), bool
    else:
        c, nonzero = np.array([series(g, a0, h) for a0 in a[0].tolist()]).T, np.count_nonzero
    if not h:  # A = R: the lift is the value
        return np.full(a.shape, c[0])
    top = h
    while top > 1 and not nonzero(c[top]):
        top -= 1
    acc = c[top] * n + 0.0
    if top > 1:
        right = n[algebra._right]  # n's side of the product table, the same in every step
        for k in range(top - 1, 0, -1):
            acc[0] += c[k]
            acc = algebra.mul_gathered(acc, right)
    acc[0] += c[0]
    return acc


def lift_map(h: Sequence[Expr], xi: NearPoint | NearPoints, target: Chart) -> NearPoint | NearPoints:
    """Lift of the smooth map with components h: coordinates lift(h_j, xi), at a point or a block.

    Each image base point is checked against the target here, so the image is
    built without the constructor's checks.
    """
    if len(h) != target.n:
        raise ValueError(f"map has {len(h)} components, target chart has {target.n}")
    coords = [lift(hj, xi) for hj in h]
    for base in _bases([xi._unwrap(c) for c in coords]):
        if not target.contains(base):
            raise BasePointOutsideTarget(f"image base point {base} outside {target.text()}")
    return type(xi)._of(xi.algebra, target, coords)  # NearPoint and NearPoints take their coordinates alike


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
        p, q = self.at, other.at
        if p is not q and (p.algebra != q.algebra or p.chart != q.chart
                           or not all(map(np.array_equal, p.values, q.values))):
            raise ValueError("tangent vectors at different points")
        return TangentVector(self.at, tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, a: AElement) -> "TangentVector":
        return TangentVector(self.at, tuple(a * u for u in self.components))
