"""Seeded random probes: expressions, near points, functions, fields, forms.

All generation is driven by an explicit numpy Generator so that every
verification report is reproducible from its seed.  Sampled base points
stay inside the unit box intersected with the chart domain, and
generated expressions keep log/sqrt arguments near 1, so the property
suites run clear of singular loci.  Near points come as one `NearPoints`
block per probe block, drawn once, or as a `NearPoint` drawn alone.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .expr import (
    DifferentialForm,
    Expr,
    VectorField,
    add,
    call,
    const,
    form,
    mul,
    polynomial,
    var,
)
from .fields import AVectorField, prolong
from .functions import AFunction, ScalarGenerator, lifted_function
from .points import Chart, NearPoint, NearPoints, TangentVector
from .weil import AElement, Derivation, LinearEndo, WeilAlgebra, derivation_basis

__all__ = [
    "random_a_element",
    "random_base_field",
    "random_base_form",
    "random_derivation",
    "random_expr",
    "random_field",
    "random_function",
    "random_lifted_field",
    "random_lifted_function",
    "random_near_point",
    "random_near_points",
    "random_polynomial",
    "random_tangent_vector",
    "random_trig_polynomial",
]


def _coeff(rng: np.random.Generator) -> float:
    """rng.uniform(-2.0, 2.0) rounded to 3 places, drawn as -2.0 + 4.0 * rng.random(): the same bits, cheaper."""
    return round(-2.0 + 4.0 * rng.random(), 3)


@lru_cache(maxsize=None)
def _monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the monomials of degree at most `degree` in n variables, in product order."""
    return tuple(m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) <= degree)


def random_polynomial(rng: np.random.Generator, n: int, degree: int = 2, terms: int = 3) -> Expr:
    """Random sparse polynomial with rounded coefficients: a constant, then 1..terms monomials, one leaf."""
    monomials = _monomials(n, degree)
    drawn = [(_coeff(rng), monomials[0])]  # the zero exponents come first in product order
    for _ in range(int(rng.integers(1, terms + 1))):
        m = monomials[int(rng.integers(0, len(monomials)))]
        drawn.append((_coeff(rng), m))
    return polynomial(drawn)


def random_expr(rng: np.random.Generator, n: int, transcendental: bool = True) -> Expr:
    """Random smooth expression, safe to evaluate (and lift) on the unit box."""
    base = random_polynomial(rng, n, degree=2, terms=2)
    if not transcendental:
        return base
    kind = int(rng.integers(0, 5))
    i = int(rng.integers(0, n))
    if kind == 0:
        return add(base, call("sin", var(i)))
    if kind == 1:
        return add(base, call("cos", mul(const(_coeff(rng)), var(i))))
    if kind == 2:
        return add(base, call("exp", mul(const(0.5), var(i))))
    if kind == 3:
        # argument stays in 1 + (-0.5, 0.5) on the unit box
        shifted = add(const(1.0), mul(const(0.4), var(i)))
        return add(base, call("log", shifted))
    return base


def random_trig_polynomial(rng: np.random.Generator, max_freq: int = 3) -> Expr:
    out: Expr = const(_coeff(rng))
    for k in range(1, max_freq + 1):
        if rng.random() < 0.6:
            kx = mul(const(float(k)), var(0))
            out = add(out, mul(const(_coeff(rng)), call("sin" if rng.random() < 0.5 else "cos", kx)))
    return out


def random_chart_expr(rng: np.random.Generator, chart: Chart, transcendental: bool = True) -> Expr:
    if chart.kind == "circle":
        return random_trig_polynomial(rng)
    return random_expr(rng, chart.n, transcendental)


def random_a_element(rng: np.random.Generator, algebra: WeilAlgebra) -> AElement:
    return algebra.element(np.round(rng.uniform(-1.0, 1.0, size=algebra.dim), 3))


def _draw(rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart, k: int) -> np.ndarray:
    """The (k, n, dim) coefficients of k random near points, from one rng.random call.

    rng.uniform(low, high) maps a draw u of rng.random to low + (high - low) * u,
    so these are the values, and the stream position, of drawing point by point
    and coordinate by coordinate a base by rng.uniform, in the chart clipped to
    the unit box and 5% in from each end, and then dim coefficients by
    rng.uniform(-0.5, 0.5, dim), the first of them replaced by the base.
    A box chart one of whose intervals misses (-1, 1) has no such draw: ValueError.
    """
    bounds = [(max(lo, -1.0), min(hi, 1.0)) if chart.kind == "box" else (lo, hi) for lo, hi in chart.intervals]
    if any(lo >= hi for lo, hi in bounds):
        raise ValueError(f"chart {chart.text()} misses the unit box: random base points are drawn in the chart "
                         "clipped to [-1, 1] in each coordinate")
    low = np.array([lo + 0.05 * (hi - lo) for lo, hi in bounds])
    scale = np.array([hi - 0.05 * (hi - lo) for lo, hi in bounds]) - low
    c = rng.random((k, chart.n, algebra.dim + 1))
    c[:, :, 1:] -= 0.5  # -0.5 + 1.0 * u, exactly
    c[:, :, 1] = low + scale * c[:, :, 0]
    return c[:, :, 1:]


def random_near_points(rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart, k: int) -> NearPoints:
    """A block of k random near points, drawn at once: column j is the j-th point of the draw."""
    return NearPoints(algebra, chart, _draw(rng, algebra, chart, k).transpose(1, 2, 0))


def random_near_point(rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart) -> NearPoint:
    """Column 0 of a block of one from the same draw; each coordinate owns its coefficients, as from algebra.element."""
    # _draw puts every base 5% inside the chart, so NearPoint's checks cannot fail
    return NearPoint._of(algebra, chart, [AElement(algebra, v.copy()) for v in _draw(rng, algebra, chart, 1)[0]])


def random_tangent_vector(
    rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart
) -> TangentVector:
    at = random_near_point(rng, algebra, chart)
    comps = tuple(random_a_element(rng, algebra) for _ in range(chart.n))
    return TangentVector(at, comps)


def random_function(
    rng: np.random.Generator,
    algebra: WeilAlgebra,
    chart: Chart,
    max_terms: int = 2,
    max_monomial: int = 2,
    transcendental: bool = False,
) -> AFunction:
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        mono = tuple(
            ScalarGenerator(
                int(rng.integers(0, algebra.dim)),
                random_chart_expr(rng, chart, transcendental),
            )
            for _ in range(int(rng.integers(0, max_monomial + 1)))
        )
        terms.append((random_a_element(rng, algebra), mono))
    return AFunction(algebra, chart, terms)


def random_field(
    rng: np.random.Generator,
    algebra: WeilAlgebra,
    chart: Chart,
    max_terms: int = 2,
    max_monomial: int = 1,
) -> AVectorField:
    return AVectorField(
        algebra,
        chart,
        tuple(
            random_function(rng, algebra, chart, max_terms, max_monomial)
            for _ in range(chart.n)
        ),
    )


def random_base_field(rng: np.random.Generator, chart: Chart) -> VectorField:
    return VectorField(
        tuple(random_chart_expr(rng, chart, transcendental=False) for _ in range(chart.n))
    )


def random_lifted_function(
    rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart, factors: int = 2
) -> AFunction:
    """Random element of the subalgebra generated by lifts and A-constants."""
    out = AFunction.constant(random_a_element(rng, algebra), chart)
    for _ in range(int(rng.integers(1, factors + 1))):
        g = random_chart_expr(rng, chart, transcendental=False)
        out = out * lifted_function(g, algebra, chart)
    return out


def random_lifted_field(
    rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart, decorate: bool = False
) -> AVectorField:
    """Random field whose components lie in the lift-generated subalgebra.

    Scaled prolongation a * lift(g) * theta^A; this is the probe class on
    which the module laws of the bracket hold identically (the canonical
    extension is pinned by lift agreement there).
    """
    x = prolong(random_base_field(rng, chart), algebra, chart)
    x = x.scale(random_a_element(rng, algebra))
    if decorate:
        g = random_polynomial(rng, chart.n, degree=1, terms=1)
        x = x.scale(lifted_function(g, algebra, chart))
    return x


def random_base_form(
    rng: np.random.Generator, chart: Chart, degree: int, coeff_degree: int = 2
) -> DifferentialForm:
    n = chart.n
    coeffs = {}
    for idx in itertools.combinations(range(n), degree):
        if degree == 0 or rng.random() < 0.8:
            if chart.kind == "circle":
                coeffs[idx] = random_trig_polynomial(rng)
            else:
                coeffs[idx] = random_polynomial(rng, n, coeff_degree)
    if not coeffs:
        first = tuple(range(degree))
        coeffs[first] = random_polynomial(rng, n, coeff_degree)
    return form(n, degree, coeffs)


def random_derivation(rng: np.random.Generator, algebra: WeilAlgebra) -> Derivation:
    """Random combination of the derivation basis (the zero map when Der(A) = 0)."""
    basis = derivation_basis(algebra)
    if not basis:
        return Derivation(LinearEndo(algebra, np.zeros((algebra.dim, algebra.dim))))
    weights = np.round(rng.uniform(-1.0, 1.0, size=len(basis)), 3)
    matrix = sum(w * d.matrix for w, d in zip(weights, basis))
    return Derivation(LinearEndo(algebra, matrix))
