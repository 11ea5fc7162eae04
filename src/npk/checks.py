"""Randomized verification suites for the calculus on near-point manifolds.

Every law of the theory is turned into a named residual check: both
sides are computed symbolically, evaluated at seeded random near points,
and the maximal coefficient deviation is compared against a tolerance.
Probe data (fields, functions, derivations) is refreshed every few
sample points so a single degenerate draw cannot mask a failure, and
everything is reproducible from (seed, samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import sampling as sp
from .cohomology import (
    ACombination,
    NotClosed,
    a_primitive,
    circle_h1_class,
    circle_primitive,
    h0_check,
)
from .expr import (
    Expr,
    const,
    contract_form,
    diff,
    evaluate,
    exterior_derivative as d_base,
    form,
    lie_bracket,
    mul,
    var,
)
from .fields import AVectorField, bracket, from_derivation, prolong
from .functions import AFunction, lifted_function
from .forms import AForm, exterior_derivative as d_a, palais_eval, prolong_form, wedge
from .points import Chart, NearPoint, lift, lift_map
from .sampling import (
    random_a_element,
    random_base_field,
    random_base_form,
    random_derivation,
    random_field,
    random_function,
    random_near_point,
    random_tangent_vector,
)
from .weil import WeilAlgebra, build_algebra, parse_presentation

__all__ = [
    "CATALOG",
    "CheckRecord",
    "IDENTITIES",
    "SUITES",
    "SuiteReport",
    "UnknownIdentity",
    "catalog_algebras",
    "check_identity",
    "run_cohomology_model",
    "run_suite",
]

PROBE_BLOCK = 10

CATALOG = (
    "R",
    "R[x]/(x^2)",
    "R[x]/(x^3)",
    "R[x]/(x^4)",
    "R[x,y]/(x^2,x*y,y^2)",
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)",
)


def catalog_algebras() -> list[WeilAlgebra]:
    return [build_algebra(parse_presentation(text)) for text in CATALOG]


class UnknownIdentity(ValueError):
    """Identity name outside the registered set."""


@dataclass
class CheckRecord:
    check: str
    algebra: str
    chart: str
    samples: int
    seed: int
    max_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "algebra": self.algebra,
            "chart": self.chart,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    command: str
    config: dict
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "pass": self.passed,
        }


# -- residual helpers ---------------------------------------------------------


def _worst(residual: float, value: float) -> float:
    """max(residual, value), except that a non-finite argument is returned as is.

    max(0.0, nan) is 0.0, so a plain max fold lets a NaN residual pass;
    here NaN and inf stick to the residual and fail the record.
    """
    if not math.isfinite(residual):
        return residual
    if not math.isfinite(value):
        return value
    return max(residual, value)


def _blocks(samples: int) -> Iterator[int]:
    remaining = samples
    while remaining > 0:
        size = min(PROBE_BLOCK, remaining)
        remaining -= size
        yield size


def _field_residual(
    x: AVectorField, y: AVectorField, points: Sequence[NearPoint]
) -> float:
    out = 0.0
    for xi in points:
        for cx, cy in zip(x.components, y.components):
            out = _worst(out, (cx.evaluate(xi) - cy.evaluate(xi)).max_abs())
    return out


def _field_zero_residual(x: AVectorField, points: Sequence[NearPoint]) -> float:
    out = 0.0
    for xi in points:
        for c in x.components:
            out = _worst(out, c.evaluate(xi).max_abs())
    return out


def _fn_residual(phi: AFunction, psi: AFunction, points: Sequence[NearPoint]) -> float:
    out = 0.0
    for xi in points:
        out = _worst(out, (phi.evaluate(xi) - psi.evaluate(xi)).max_abs())
    return out


def _points(rng: np.random.Generator, algebra: WeilAlgebra, chart: Chart, k: int) -> list[NearPoint]:
    return [random_near_point(rng, algebra, chart) for _ in range(k)]


# -- Lie-suite identities -------------------------------------------------------


def _check_jacobi(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        x = random_field(rng, algebra, chart)
        y = random_field(rng, algebra, chart)
        z = random_field(rng, algebra, chart)
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        residual = _worst(residual, _field_zero_residual(total, _points(rng, algebra, chart, block)))
    return residual


def _check_antisymmetry(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        x = random_field(rng, algebra, chart)
        y = random_field(rng, algebra, chart)
        total = bracket(x, y) + bracket(y, x)
        residual = _worst(residual, _field_zero_residual(total, _points(rng, algebra, chart, block)))
    return residual


def _check_a_bilinearity(algebra, chart, rng, samples):
    """[a*X, Y] = a*[X, Y] = [X, a*Y] on fields with lift-generated components.

    The canonical extension is pinned by lift agreement only on the
    lift-generated subalgebra; fields with bare-generator components carry a
    vertical correction there, so the module laws are probed on scaled
    prolongations (the class the underlying theory manipulates).
    """
    residual = 0.0
    for block in _blocks(samples):
        x = sp.random_lifted_field(rng, algebra, chart, decorate=bool(rng.integers(0, 2)))
        y = sp.random_lifted_field(rng, algebra, chart)
        a = random_a_element(rng, algebra)
        base = bracket(x, y).scale(a)
        points = _points(rng, algebra, chart, block)
        residual = _worst(residual, _field_residual(bracket(x.scale(a), y), base, points))
        residual = _worst(residual, _field_residual(bracket(x, y.scale(a)), base, points))
    return residual


def _check_prop11_tilde_bracket(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        x = random_field(rng, algebra, chart)
        y = random_field(rng, algebra, chart)
        phi = random_function(rng, algebra, chart)
        lhs = bracket(x, y).apply_fn(phi)
        rhs = x.apply_fn(y.apply_fn(phi)) - y.apply_fn(x.apply_fn(phi))
        residual = _worst(residual, _fn_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop11_tilde_scale(algebra, chart, rng, samples):
    """Extension of phi*X equals phi times the extension of X, on lift-generated inputs."""
    residual = 0.0
    for block in _blocks(samples):
        x = random_field(rng, algebra, chart)
        phi = random_function(rng, algebra, chart)
        psi = sp.random_lifted_function(rng, algebra, chart)
        lhs = x.scale(phi).apply_fn(psi)
        rhs = phi * x.apply_fn(psi)
        residual = _worst(residual, _fn_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop12(algebra, chart, rng, samples):
    """[X, phi*Y] = X~(phi)*Y + phi*[X, Y], with X drawn from the lift-generated class."""
    residual = 0.0
    for block in _blocks(samples):
        x = sp.random_lifted_field(rng, algebra, chart)
        y = random_field(rng, algebra, chart)
        phi = random_function(rng, algebra, chart)
        lhs = bracket(x, y.scale(phi))
        rhs = y.scale(x.apply_fn(phi)) + bracket(x, y).scale(phi)
        residual = _worst(residual, _field_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop17_bracket(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        t1 = random_base_field(rng, chart)
        t2 = random_base_field(rng, chart)
        lhs = bracket(prolong(t1, algebra, chart), prolong(t2, algebra, chart))
        rhs = prolong(lie_bracket(t1, t2), algebra, chart)
        residual = _worst(residual, _field_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop17_scale(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        t = random_base_field(rng, chart)
        f = sp.random_chart_expr(rng, chart, transcendental=False)
        lhs = prolong(t.scale(f), algebra, chart)
        rhs = prolong(t, algebra, chart).scale(lifted_function(f, algebra, chart))
        residual = _worst(residual, _field_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop19_dstar_bracket(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        d1 = random_derivation(rng, algebra)
        d2 = random_derivation(rng, algebra)
        lhs = bracket(from_derivation(d1, chart), from_derivation(d2, chart))
        rhs = from_derivation(d1.commutator(d2), chart)
        residual = _worst(residual, _field_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop19_dstar_scale(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        d = random_derivation(rng, algebra)
        a = random_a_element(rng, algebra)
        lhs = from_derivation(d.scale(a), chart)
        rhs = from_derivation(d, chart).scale(a)
        residual = _worst(residual, _field_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_prop19_dstar_theta(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        d = random_derivation(rng, algebra)
        t = random_base_field(rng, chart)
        total = bracket(from_derivation(d, chart), prolong(t, algebra, chart))
        residual = _worst(residual, _field_zero_residual(total, _points(rng, algebra, chart, block)))
    return residual


# -- lift- and tangent-suite identities ----------------------------------------


def _check_lift_add(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        g = sp.random_chart_expr(rng, chart)
        for xi in _points(rng, algebra, chart, block):
            residual = _worst(residual, (lift(f + g, xi) - (lift(f, xi) + lift(g, xi))).max_abs())
    return residual


def _check_lift_mul(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        g = sp.random_chart_expr(rng, chart)
        for xi in _points(rng, algebra, chart, block):
            residual = _worst(residual, (lift(mul(f, g), xi) - lift(f, xi) * lift(g, xi)).max_abs())
    return residual


def _check_lift_scale(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        lam = float(rng.uniform(-2.0, 2.0))
        scaled = mul(const(lam), f)
        for xi in _points(rng, algebra, chart, block):
            residual = _worst(residual, (lift(scaled, xi) - lam * lift(f, xi)).max_abs())
    return residual


def _check_lift_base(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        for xi in _points(rng, algebra, chart, block):
            residual = _worst(residual, abs(lift(f, xi).augmentation - evaluate(f, xi.base())))
    return residual


def _check_lift_map_compose(algebra, chart, rng, samples):
    target = Chart.box([(-float("inf"), float("inf"))] * chart.n)
    residual = 0.0
    for block in _blocks(samples):
        h = [sp.random_polynomial(rng, chart.n) for _ in range(chart.n)]
        phi = sp.random_polynomial(rng, chart.n)
        composed = _substitute(phi, h)
        for xi in _points(rng, algebra, chart, block):
            image = lift_map(h, xi, target)
            residual = _worst(residual, (lift(composed, xi) - lift(phi, image)).max_abs())
    return residual


def _check_lift_dual_derivative(algebra, chart, rng, samples):
    """Dual numbers do first-order forward AD: lift(f) = f(x) + sum_i d_i f(x) b_i eps."""
    if algebra.dim != 2:
        return 0.0
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        partials = [diff(f, i) for i in range(chart.n)]
        for xi in _points(rng, algebra, chart, block):
            base = xi.base()
            slope = sum(
                evaluate(p, base) * xi.coords[i].coefficient(1) for i, p in enumerate(partials)
            )
            expected = algebra.element([evaluate(f, base), slope])
            residual = _worst(residual, (lift(f, xi) - expected).max_abs())
    return residual


def _check_gamma_agrees(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        phi = lifted_function(f, algebra, chart)
        for xi in _points(rng, algebra, chart, block):
            residual = _worst(residual, (phi.evaluate(xi) - lift(f, xi)).max_abs())
    return residual


def _check_gamma_morphism(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        f = sp.random_chart_expr(rng, chart)
        g = sp.random_chart_expr(rng, chart)
        lhs = lifted_function(mul(f, g), algebra, chart)
        rhs = lifted_function(f, algebra, chart) * lifted_function(g, algebra, chart)
        residual = _worst(residual, _fn_residual(lhs, rhs, _points(rng, algebra, chart, block)))
    return residual


def _check_tangent_leibniz(algebra, chart, rng, samples):
    residual = 0.0
    for _ in range(samples):
        v = random_tangent_vector(rng, algebra, chart)
        f = sp.random_chart_expr(rng, chart)
        g = sp.random_chart_expr(rng, chart)
        lhs = v.apply(mul(f, g))
        rhs = v.apply(f) * lift(g, v.at) + lift(f, v.at) * v.apply(g)
        residual = _worst(residual, (lhs - rhs).max_abs())
    return residual


def _check_tangent_extension(algebra, chart, rng, samples):
    """A-linearity, vanishing on constants, agreement on lifts, pointwise Leibniz."""
    residual = 0.0
    for _ in range(samples):
        v = random_tangent_vector(rng, algebra, chart)
        f = sp.random_chart_expr(rng, chart)
        a = random_a_element(rng, algebra)
        phi = random_function(rng, algebra, chart)
        psi = random_function(rng, algebra, chart)
        residual = _worst(residual, v.apply_fn(AFunction.constant(a, chart)).max_abs())
        residual = _worst(residual, (v.apply_fn(lifted_function(f, algebra, chart)) - v.apply(f)).max_abs())
        residual = _worst(residual, (v.apply_fn(phi.scale(a)) - a * v.apply_fn(phi)).max_abs())
        leibniz = v.apply_fn(phi * psi) - (
            v.apply_fn(phi) * psi.evaluate(v.at) + phi.evaluate(v.at) * v.apply_fn(psi)
        )
        residual = _worst(residual, leibniz.max_abs())
    return residual


def _substitute(phi: Expr, h: Sequence[Expr]) -> Expr:
    """phi(h_1, .., h_n) by structural substitution."""
    from . import expr as ex

    if isinstance(phi, ex.Const):
        return phi
    if isinstance(phi, ex.Var):
        return h[phi.index]
    if isinstance(phi, ex.Add):
        return ex.add(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, ex.Sub):
        return ex.sub(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, ex.Mul):
        return ex.mul(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, ex.Div):
        return ex.div(_substitute(phi.left, h), _substitute(phi.right, h))
    if isinstance(phi, ex.Neg):
        return ex.neg(_substitute(phi.arg, h))
    if isinstance(phi, ex.Pow):
        return ex.power(_substitute(phi.base, h), _substitute(phi.exponent, h))
    if isinstance(phi, ex.Call):
        return ex.call(phi.fn, _substitute(phi.arg, h))
    raise TypeError(f"not an expression: {phi!r}")


# -- forms-suite identities -----------------------------------------------------


def _decomposable_check(algebra, chart, rng, samples, degree):
    if chart.n < degree:
        return 0.0
    residual = 0.0
    for block in _blocks(samples):
        omega = random_base_form(rng, chart, degree)
        eta = prolong_form(omega, algebra, chart)
        thetas = [random_base_field(rng, chart) for _ in range(degree)]
        fs = [sp.random_polynomial(rng, chart.n) for _ in range(degree)]
        args = [
            prolong(t, algebra, chart).scale(lifted_function(f, algebra, chart))
            for t, f in zip(thetas, fs)
        ]
        base_value = contract_form(omega, thetas)
        for xi in _points(rng, algebra, chart, block):
            lhs = eta.evaluate(args, xi)
            rhs = lift(base_value, xi)
            for f in fs:
                rhs = rhs * lift(f, xi)
            residual = _worst(residual, (lhs - rhs).max_abs())
    return residual


def _check_thm20_p1(algebra, chart, rng, samples):
    return _decomposable_check(algebra, chart, rng, samples, 1)


def _check_thm20_p2(algebra, chart, rng, samples):
    return _decomposable_check(algebra, chart, rng, samples, 2)


def _form_residual(e1: AForm, e2: AForm, rng, algebra, chart, points) -> float:
    if e1.degree != e2.degree:
        raise ValueError("degree mismatch in form comparison")
    residual = 0.0
    for xi in points:
        probes = [
            prolong(random_base_field(rng, chart), algebra, chart) for _ in range(e1.degree)
        ]
        residual = _worst(residual, (e1.evaluate(probes, xi) - e2.evaluate(probes, xi)).max_abs())
    return residual


def _check_da_naturality(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        degree = int(rng.integers(0, chart.n))
        omega = random_base_form(rng, chart, degree)
        lhs = d_a(prolong_form(omega, algebra, chart))
        rhs = prolong_form(d_base(omega), algebra, chart)
        residual = _worst(
            residual,
            _form_residual(lhs, rhs, rng, algebra, chart, _points(rng, algebra, chart, block)),
        )
    return residual


def _check_da_linearity(algebra, chart, rng, samples):
    residual = 0.0
    for block in _blocks(samples):
        degree = int(rng.integers(0, chart.n))
        eta = _random_aform(rng, algebra, chart, degree)
        a = random_a_element(rng, algebra)
        lhs = d_a(eta.scale_const(a))
        rhs = d_a(eta).scale_const(a)
        residual = _worst(
            residual,
            _form_residual(lhs, rhs, rng, algebra, chart, _points(rng, algebra, chart, block)),
        )
    return residual


def _check_da_squared(algebra, chart, rng, samples):
    if chart.n < 2:
        return 0.0
    residual = 0.0
    for block in _blocks(samples):
        degree = int(rng.integers(0, chart.n - 1))
        eta = _random_aform(rng, algebra, chart, degree)
        dd = d_a(d_a(eta))
        zero = AForm.zero(algebra, chart, dd.degree)
        residual = _worst(
            residual,
            _form_residual(dd, zero, rng, algebra, chart, _points(rng, algebra, chart, block)),
        )
    return residual


def _check_palais_route(algebra, chart, rng, samples):
    """Alternating-sum formula matches the coefficientwise route.

    Probed on prolonged fields and lift-generated coefficients, the class on
    which the two constructions are provably the same operator.
    """
    residual = 0.0
    for block in _blocks(samples):
        degree = int(rng.integers(0, chart.n))
        eta = _random_aform(rng, algebra, chart, degree, lifted=True)
        deta = d_a(eta)
        thetas = [random_base_field(rng, chart) for _ in range(degree + 1)]
        lifted = [prolong(t, algebra, chart) for t in thetas]
        for xi in _points(rng, algebra, chart, block):
            lhs = palais_eval(eta, thetas, xi)
            rhs = deta.evaluate(lifted, xi)
            residual = _worst(residual, (lhs - rhs).max_abs())
    return residual


def _check_wedge_commutativity(algebra, chart, rng, samples):
    if chart.n < 2:
        return 0.0
    residual = 0.0
    for block in _blocks(samples):
        p = 1
        q = int(rng.integers(1, chart.n))
        e1 = _random_aform(rng, algebra, chart, p)
        e2 = _random_aform(rng, algebra, chart, q)
        lhs = wedge(e2, e1)
        rhs = wedge(e1, e2).scale_const((-1.0) ** (p * q))
        residual = _worst(
            residual,
            _form_residual(lhs, rhs, rng, algebra, chart, _points(rng, algebra, chart, block)),
        )
    return residual


def _check_wedge_leibniz(algebra, chart, rng, samples):
    if chart.n < 2:
        return 0.0
    residual = 0.0
    for block in _blocks(samples):
        p = int(rng.integers(0, chart.n - 1))
        q = int(rng.integers(0, chart.n - p - 1))
        e1 = _random_aform(rng, algebra, chart, p)
        e2 = _random_aform(rng, algebra, chart, q)
        lhs = d_a(wedge(e1, e2))
        rhs = wedge(d_a(e1), e2) + wedge(e1, d_a(e2)).scale_const((-1.0) ** p)
        residual = _worst(
            residual,
            _form_residual(lhs, rhs, rng, algebra, chart, _points(rng, algebra, chart, block)),
        )
    return residual


def _random_aform(rng, algebra, chart, degree, lifted: bool = False) -> AForm:
    import itertools as it

    terms = []
    for idx in it.combinations(range(chart.n), degree):
        if rng.uniform() < 0.75 or not terms:
            if lifted:
                phi = sp.random_lifted_function(rng, algebra, chart)
            else:
                phi = random_function(rng, algebra, chart, max_terms=1, max_monomial=1)
            terms.append((phi, idx))
    return AForm(algebra, chart, degree, tuple(terms))


IDENTITIES: dict[str, Callable] = {
    "jacobi": _check_jacobi,
    "antisymmetry": _check_antisymmetry,
    "a-bilinearity": _check_a_bilinearity,
    "prop11-tilde-bracket": _check_prop11_tilde_bracket,
    "prop11-tilde-scale": _check_prop11_tilde_scale,
    "prop12": _check_prop12,
    "prop17-bracket": _check_prop17_bracket,
    "prop17-scale": _check_prop17_scale,
    "prop19-dstar-bracket": _check_prop19_dstar_bracket,
    "prop19-dstar-scale": _check_prop19_dstar_scale,
    "prop19-dstar-theta": _check_prop19_dstar_theta,
    "lift-add": _check_lift_add,
    "lift-mul": _check_lift_mul,
    "lift-scale": _check_lift_scale,
    "lift-base": _check_lift_base,
    "lift-map-compose": _check_lift_map_compose,
    "lift-dual-derivative": _check_lift_dual_derivative,
    "gamma-agrees-with-lift": _check_gamma_agrees,
    "gamma-morphism": _check_gamma_morphism,
    "tangent-leibniz": _check_tangent_leibniz,
    "tangent-extension": _check_tangent_extension,
    "thm20-eval-p1": _check_thm20_p1,
    "thm20-eval-p2": _check_thm20_p2,
    "da-naturality": _check_da_naturality,
    "da-linearity": _check_da_linearity,
    "da-squared-zero": _check_da_squared,
    "palais-route": _check_palais_route,
    "wedge-graded-commutativity": _check_wedge_commutativity,
    "wedge-leibniz": _check_wedge_leibniz,
}

LIE_SUITE = (
    "jacobi",
    "antisymmetry",
    "a-bilinearity",
    "prop11-tilde-bracket",
    "prop11-tilde-scale",
    "prop12",
    "prop17-bracket",
    "prop17-scale",
    "prop19-dstar-bracket",
    "prop19-dstar-scale",
    "prop19-dstar-theta",
)

LIFT_SUITE = (
    "lift-add",
    "lift-mul",
    "lift-scale",
    "lift-base",
    "lift-map-compose",
    "lift-dual-derivative",
    "gamma-agrees-with-lift",
    "gamma-morphism",
    "tangent-leibniz",
    "tangent-extension",
)

FORMS_SUITE = (
    "thm20-eval-p1",
    "thm20-eval-p2",
    "da-naturality",
    "da-linearity",
    "da-squared-zero",
    "palais-route",
    "wedge-graded-commutativity",
    "wedge-leibniz",
)

SUITES: dict[str, tuple[str, ...]] = {
    "lie": LIE_SUITE,
    "lift": LIFT_SUITE,
    "forms": FORMS_SUITE,
    "all": LIE_SUITE + LIFT_SUITE + FORMS_SUITE,
}


def check_identity(
    name: str,
    algebra: WeilAlgebra,
    chart: Chart,
    seed: int = 0,
    samples: int = 50,
    tol: float = 1e-8,
) -> CheckRecord:
    """Run one named identity; the residual is the max deviation over all samples."""
    fn = IDENTITIES.get(name)
    if fn is None:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {sorted(IDENTITIES)}")
    rng = np.random.default_rng(seed)
    residual = float(fn(algebra, chart, rng, samples))
    return CheckRecord(
        check=name,
        algebra=algebra.text,
        chart=chart.text(),
        samples=samples,
        seed=seed,
        max_residual=residual,
        passed=residual <= tol,
    )


def run_suite(
    suite: str,
    algebra: WeilAlgebra,
    chart: Chart,
    seed: int = 0,
    samples: int = 50,
    tol: float = 1e-8,
) -> SuiteReport:
    if suite not in SUITES:
        raise UnknownIdentity(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    report = SuiteReport(
        command="check",
        config={
            "suite": suite,
            "algebra": algebra.text,
            "chart": chart.text(),
            "seed": seed,
            "samples": samples,
            "tol": tol,
        },
    )
    for name in SUITES[suite]:
        report.records.append(check_identity(name, algebra, chart, seed, samples, tol))
    return report


# -- cohomology models ----------------------------------------------------------


def run_poincare_model(
    algebra: WeilAlgebra, chart: Chart, seed: int = 0, samples: int = 10, tol: float = 1e-9
) -> list[CheckRecord]:
    """Random closed positive-degree combinations on a box get certified primitives."""
    rng = np.random.default_rng(seed)
    records = []
    n = chart.n
    for degree in range(1, n + 1):
        residual = 0.0
        for _ in range(samples):
            seed_comb = ACombination(
                algebra,
                n,
                degree - 1,
                tuple(
                    (random_a_element(rng, algebra), random_base_form(rng, chart, degree - 1))
                    for _ in range(2)
                ),
            )
            eta = seed_comb.differential()  # closed by construction
            primitive = a_primitive(eta, chart, tol=1e-10)
            lhs = d_a(primitive.to_aform(chart))
            rhs = eta.to_aform(chart)
            residual = _worst(
                residual,
                _form_residual(lhs, rhs, rng, algebra, chart, _points(rng, algebra, chart, 3)),
            )
        records.append(
            CheckRecord(
                check=f"poincare-primitive-p{degree}",
                algebra=algebra.text,
                chart=chart.text(),
                samples=samples,
                seed=seed,
                max_residual=residual,
                passed=residual <= tol,
            )
        )
    return records


def run_circle_model(
    algebra: WeilAlgebra, seed: int = 0, samples: int = 10, tol: float = 1e-9
) -> list[CheckRecord]:
    """Class map on the circle: linear, kills exact forms, splits off exact parts."""
    rng = np.random.default_rng(seed)
    chart = Chart.circle()
    kernel_residual = 0.0
    split_residual = 0.0
    linear_residual = 0.0
    for _ in range(samples):
        # exact form: class must vanish and the primitive must reproduce it
        zero_form = ACombination(
            algebra,
            1,
            0,
            tuple(
                (random_a_element(rng, algebra), form(1, 0, {(): sp.random_trig_polynomial(rng)}))
                for _ in range(2)
            ),
        )
        eta_exact = zero_form.differential()
        kernel_residual = _worst(kernel_residual, circle_h1_class(eta_exact).max_abs())

        # general form: eta = class . dx + d(primitive)
        eta = ACombination(
            algebra,
            1,
            1,
            tuple(
                (random_a_element(rng, algebra), form(1, 1, {(0,): sp.random_trig_polynomial(rng)}))
                for _ in range(2)
            ),
        )
        cls, primitive = circle_primitive(eta)
        for _ in range(4):
            t = float(rng.uniform(0.0, 2.0 * np.pi))
            direct = algebra.zero()
            for a, omega in eta.terms:
                direct = direct + evaluate(omega.coefficient((0,)), [t]) * a
            reconstructed = cls
            for a, omega in primitive.terms:
                reconstructed = reconstructed + evaluate(diff(omega.coefficient(()), 0), [t]) * a
            split_residual = _worst(split_residual, (direct - reconstructed).max_abs())

        # A-linearity of the class map
        a = random_a_element(rng, algebra)
        scaled = ACombination(algebra, 1, 1, tuple((a * c, w) for c, w in eta.terms))
        linear_residual = _worst(
            linear_residual, (circle_h1_class(scaled) - a * circle_h1_class(eta)).max_abs()
        )
    def mk(name: str, res: float) -> CheckRecord:
        return CheckRecord(name, algebra.text, chart.text(), samples, seed, res, res <= tol)

    return [
        mk("circle-class-kills-exact", kernel_residual),
        mk("circle-class-splitting", split_residual),
        mk("circle-class-a-linear", linear_residual),
    ]


def run_h0_model(
    algebra: WeilAlgebra, chart: Chart, seed: int = 0, samples: int = 10, tol: float = 1e-8
) -> list[CheckRecord]:
    """Closed 0-forms are the A-constants, including telescoping representations."""
    rng = np.random.default_rng(seed)
    const_residual = 0.0
    telescope_residual = 0.0
    detect_failures = 0
    for trial in range(samples):
        a = random_a_element(rng, algebra)
        value = h0_check(AFunction.constant(a, chart), samples=5, seed=seed + trial)
        const_residual = _worst(const_residual, (value - a).max_abs())

        f = sp.random_chart_expr(rng, chart)
        g = sp.random_chart_expr(rng, chart)
        phi = (
            lifted_function(f + g, algebra, chart)
            - lifted_function(f, algebra, chart)
            - lifted_function(g, algebra, chart)
            + AFunction.constant(a, chart)
        )
        value = h0_check(phi, samples=5, seed=seed + trial)
        telescope_residual = _worst(telescope_residual, (value - a).max_abs())

        try:
            h0_check(lifted_function(var(0), algebra, chart), samples=5, seed=seed + trial)
            detect_failures += 1
        except NotClosed:
            pass
    def mk(name: str, res: float) -> CheckRecord:
        return CheckRecord(name, algebra.text, chart.text(), samples, seed, res, res <= tol)

    records = [
        mk("h0-constant", const_residual),
        mk("h0-telescope", telescope_residual),
        mk("h0-detects-nonclosed", float(detect_failures)),
    ]
    records[-1].passed = detect_failures == 0
    return records


def run_cohomology_model(
    model: str,
    algebra: WeilAlgebra,
    chart: Chart,
    seed: int = 0,
    samples: int = 10,
    tol: float = 1e-9,
) -> SuiteReport:
    report = SuiteReport(
        command="cohomology",
        config={
            "model": model,
            "algebra": algebra.text,
            "chart": chart.text(),
            "seed": seed,
            "samples": samples,
            "tol": tol,
        },
    )
    if model == "poincare":
        report.records = run_poincare_model(algebra, chart, seed, samples, tol)
    elif model == "circle":
        report.records = run_circle_model(algebra, seed, samples, tol)
    elif model == "h0":
        report.records = run_h0_model(algebra, chart, seed, samples, max(tol, 1e-8))
    else:
        raise ValueError(f"unknown cohomology model {model!r}")
    return report
