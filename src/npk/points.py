"""Near points of a chart model and the nilpotent Taylor lift.

A chart model is either an open box in R^n or the circle (coordinate
mod 2*pi, functions restricted to trigonometric polynomials).  A near
point of kind A assigns to each coordinate an element of A whose
augmentation is the corresponding coordinate of an ordinary base point
in the chart.  Smooth functions are pushed through a near point by the
finite Taylor formula

    lift(f, xi) = sum_{|beta| <= height} D^beta f(x) / beta! * nu^beta

where x is the base point and nu_i = xi_i - x_i are nilpotent, so the
sum terminates.  This is the unique algebra homomorphism extending the
assignment x_i -> xi_i on the implemented function class, and it is
first-order forward-mode automatic differentiation when A is the dual
numbers, and higher-order jet propagation in general.  A near point is
the homomorphism f -> lift(f, xi), so it memoizes its own lifts, shared
by everything evaluated at it and freed with it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, diff, evaluate
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "BasePointOutsideTarget",
    "Chart",
    "NearPoint",
    "TangentVector",
    "lift",
    "lift_map",
    "multi_indices",
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


def multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length n with total degree <= max_degree, graded-lex."""
    out = [
        beta
        for beta in itertools.product(range(max_degree + 1), repeat=n)
        if sum(beta) <= max_degree
    ]
    out.sort(key=lambda b: (sum(b), tuple(-e for e in b)))
    return out


def _partial(f: Expr, beta: tuple[int, ...]) -> Expr:
    out = f
    for i, e in enumerate(beta):
        for _ in range(e):
            out = diff(out, i)
    return out


def lift(f: Expr, xi: NearPoint) -> AElement:
    """Push f through the near point: truncated Taylor expansion in the nilpotent parts.

    Memoized on xi, so the result is shared: callers must not mutate it in place.
    """
    hit = xi._lifts.get(id(f))
    if hit is None:
        hit = xi._lifts[id(f)] = (f, _taylor(f, xi))
    return hit[1]


def _taylor(f: Expr, xi: NearPoint) -> AElement:
    algebra = xi.algebra
    base = xi.base()
    h = algebra.height
    n = xi.chart.n
    # nilpotent offsets and their powers up to the height
    nil_powers: list[list[AElement]] = []
    for c in xi.coords:
        nu = c - algebra.scalar(c.augmentation)
        powers = [algebra.unit()]
        for _ in range(h):
            powers.append(powers[-1] * nu)
        nil_powers.append(powers)
    acc = algebra.zero()
    for beta in multi_indices(n, h):
        value = evaluate(_partial(f, beta), base)
        if value == 0.0:
            continue
        factorial = 1
        for e in beta:
            factorial *= math.factorial(e)
        term = algebra.scalar(value / factorial)
        for i, e in enumerate(beta):
            if e:
                term = term * nil_powers[i][e]
        acc = acc + term
    return acc


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
