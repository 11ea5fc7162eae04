"""Randomized verification suites for the calculus on near-point manifolds.

Every law of the theory is turned into a named residual check: both
sides are computed symbolically, evaluated at seeded random near points,
and the maximal coefficient deviation is compared against a tolerance.
Probe data (fields, functions, derivations) is refreshed every few
sample points so a single degenerate draw cannot mask a failure, and
everything is reproducible from (seed, samples).

An identity is declared, not coded: a sampler draws the probe data and
returns the (lhs, rhs) pairs that must agree, and its comparison kind says
how a pair is compared.  One driver owns the sample blocks, the near-point
draws and the residual fold for all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial, reduce
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
    VectorField,
    _substitute,
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
from .points import Chart, NearPoint, NearPoints, lift, lift_map
from .weil import WeilAlgebra

__all__ = [
    "CATALOG",
    "CheckRecord",
    "IDENTITIES",
    "SUITES",
    "SuiteReport",
    "UnknownIdentity",
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
        """JSON-ready record; a non-finite residual is the string "nan", "inf" or "-inf".

        json.dumps would write the bare tokens NaN and Infinity, which are not JSON.
        """
        residual = self.max_residual
        return {
            "check": self.check,
            "algebra": self.algebra,
            "chart": self.chart,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": residual if math.isfinite(residual) else str(float(residual)),
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


def _record(check: str, algebra: WeilAlgebra, chart: Chart, samples: int, seed: int,
            residual: float, tol: float) -> CheckRecord:
    residual = float(residual)  # a NaN or inf residual fails whatever the tolerance
    return CheckRecord(check, algebra.text, chart.text(), samples, seed, residual,
                       math.isfinite(residual) and residual <= tol)


def _report(command: str, key: str, value: str, algebra: WeilAlgebra, chart: Chart,
            seed: int, samples: int, tol: float) -> SuiteReport:
    config = {key: value, "algebra": algebra.text, "chart": chart.text(),
              "seed": seed, "samples": samples, "tol": tol}
    return SuiteReport(command, config)


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


def _gap(lhs, rhs) -> float:
    """|lhs - rhs| for numbers, the largest coefficient for A-elements; rhs None is zero."""
    delta = lhs if rhs is None else lhs - rhs
    return abs(delta) if isinstance(delta, float) else delta.max_abs()


def _gaps(lhs: np.ndarray, rhs: np.ndarray | None) -> np.ndarray:
    """_gap at each point of a block, for (N,) numbers or (dim, N) values."""
    delta = lhs if rhs is None else lhs - rhs
    return np.abs(delta).reshape(-1, delta.shape[-1]).max(axis=0)


def _fold(values: Sequence[float]) -> float:
    """The NaN-sticky max of values, taken in order from 0.0."""
    return reduce(_worst, values, 0.0)


def _field_residual(x: AVectorField, y: AVectorField | None, block: NearPoints) -> float:
    """Largest componentwise deviation of x from y (None: zero) on a block, folded point by point."""
    ys = [None] * len(x.components) if y is None else y.components
    gaps = [_gaps(cx.evaluate(block), None if cy is None else cy.evaluate(block)) for cx, cy in zip(x.components, ys)]
    return _fold(np.stack(gaps, axis=-1).ravel().tolist())


def _form_residual(e1: AForm, e2: AForm, rng, block: NearPoints) -> float:
    """Compare on fresh prolonged probe fields, drawn per point after the block.

    Evaluation draws nothing, so all probes are drawn first; each is valued at
    its own point, and both forms on the block.
    """
    if e1.degree != e2.degree:
        raise ValueError("degree mismatch in form comparison")
    points = block.points() if e1.degree else []  # a 0-form takes no probes
    probes = [[sp.random_base_field(rng, block.chart) for _ in range(e1.degree)] for _ in points]
    values = _probe_values(probes, points, e1.degree, block.chart.n)
    return _fold(_gaps(e1.on_values(values, block), e2.on_values(values, block)).tolist())


def _probe_values(probes: Sequence[Sequence[VectorField]], points: Sequence[NearPoint], degree: int, n: int) -> list:
    """values[r][i]: the (dim, N) values of component i of the prolongation of probes[j][r] at points[j].

    A prolonged field's value at a point is the lift of its base components
    there plus 0.0, as AFunction.evaluate values a lifted_function, so it
    never gives a -0.0.
    """
    return [
        [np.stack([lift(p[r].components[i], xi).coeffs for p, xi in zip(probes, points)], axis=-1) + 0.0
         for i in range(n)]
        for r in range(degree)
    ]


# -- the driver -----------------------------------------------------------------


@dataclass(frozen=True)
class _Identity:
    """One law: sample(rng, algebra, chart) -> [(lhs, rhs), ...] compared by kind.

    fields     -- A-vector fields, componentwise at the near points (rhs None: zero);
    forms      -- A-forms on fresh prolonged probe fields at each near point;
    points     -- sides map a block of near points to its (dim, N) A-values
                  or (N,) numbers;
    samples    -- A-elements (or numbers) per sample; no near points are drawn.

    All kinds but "samples" draw probe data once per block of PROBE_BLOCK
    samples and then the block's near points, in that order, and evaluate
    both sides on the whole block at once; the deviations are folded in point
    order.  If skip(algebra, chart) holds, the identity is vacuous there and
    reports 0.0.
    """

    kind: str
    sample: Callable
    skip: Callable[[WeilAlgebra, Chart], bool] | None = None

    def __call__(self, algebra: WeilAlgebra, chart: Chart, rng, samples: int) -> float:
        """The residual: the NaN-sticky max deviation over all samples."""
        residual = 0.0
        if self.skip is not None and self.skip(algebra, chart):
            return residual
        if self.kind == "samples":
            for _ in range(samples):
                for lhs, rhs in self.sample(rng, algebra, chart):
                    residual = _worst(residual, _gap(lhs, rhs))
            return residual
        for size in _blocks(samples):
            pairs = self.sample(rng, algebra, chart)
            block = sp.random_near_points(rng, algebra, chart, size)  # one lift memo for all the pairs
            for lhs, rhs in pairs:
                residual = _worst(residual, self._compare(lhs, rhs, block, rng))
        return residual

    def _compare(self, lhs, rhs, block: NearPoints, rng) -> float:
        if self.kind == "forms":
            return _form_residual(lhs, rhs, rng, block)
        if self.kind == "fields":
            return _field_residual(lhs, rhs, block)
        return _fold(_gaps(lhs(block), rhs(block)).tolist())


def _below(n: int) -> Callable[[WeilAlgebra, Chart], bool]:
    """Guard for identities that need a chart of dimension at least n."""
    return lambda algebra, chart: chart.n < n


# -- Lie suite ------------------------------------------------------------------


def _jacobi(rng, algebra, chart):
    x, y, z = (sp.random_field(rng, algebra, chart) for _ in range(3))
    total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    return [(total, None)]


def _antisymmetry(rng, algebra, chart):
    x, y = (sp.random_field(rng, algebra, chart) for _ in range(2))
    return [(bracket(x, y) + bracket(y, x), None)]


def _a_bilinearity(rng, algebra, chart):
    """[a*X, Y] = a*[X, Y] = [X, a*Y] on fields with lift-generated components.

    The canonical extension is pinned by lift agreement only on the
    lift-generated subalgebra; fields with bare-generator components carry a
    vertical correction there, so the module laws are probed on scaled
    prolongations (the class the underlying theory manipulates).
    """
    x = sp.random_lifted_field(rng, algebra, chart, decorate=bool(rng.integers(0, 2)))
    y = sp.random_lifted_field(rng, algebra, chart)
    a = sp.random_a_element(rng, algebra)
    base = bracket(x, y).scale(a)
    return [(bracket(x.scale(a), y), base), (bracket(x, y.scale(a)), base)]


def _prop11_tilde_bracket(rng, algebra, chart):
    x, y = (sp.random_field(rng, algebra, chart) for _ in range(2))
    phi = sp.random_function(rng, algebra, chart)
    rhs = x.apply_fn(y.apply_fn(phi)) - y.apply_fn(x.apply_fn(phi))
    return [(bracket(x, y).apply_fn(phi).evaluate, rhs.evaluate)]


def _prop11_tilde_scale(rng, algebra, chart):
    """Extension of phi*X equals phi times the extension of X, on lift-generated inputs."""
    x = sp.random_field(rng, algebra, chart)
    phi = sp.random_function(rng, algebra, chart)
    psi = sp.random_lifted_function(rng, algebra, chart)
    return [(x.scale(phi).apply_fn(psi).evaluate, (phi * x.apply_fn(psi)).evaluate)]


def _prop12(rng, algebra, chart):
    """[X, phi*Y] = X~(phi)*Y + phi*[X, Y], with X drawn from the lift-generated class."""
    x = sp.random_lifted_field(rng, algebra, chart)
    y = sp.random_field(rng, algebra, chart)
    phi = sp.random_function(rng, algebra, chart)
    return [(bracket(x, y.scale(phi)), y.scale(x.apply_fn(phi)) + bracket(x, y).scale(phi))]


def _prop17_bracket(rng, algebra, chart):
    t1, t2 = (sp.random_base_field(rng, chart) for _ in range(2))
    lhs = bracket(prolong(t1, algebra, chart), prolong(t2, algebra, chart))
    return [(lhs, prolong(lie_bracket(t1, t2), algebra, chart))]


def _prop17_scale(rng, algebra, chart):
    t = sp.random_base_field(rng, chart)
    f = sp.random_chart_expr(rng, chart, transcendental=False)
    rhs = prolong(t, algebra, chart).scale(lifted_function(f, algebra, chart))
    return [(prolong(t.scale(f), algebra, chart), rhs)]


def _prop19_dstar_bracket(rng, algebra, chart):
    d1, d2 = (sp.random_derivation(rng, algebra) for _ in range(2))
    lhs = bracket(from_derivation(d1, chart), from_derivation(d2, chart))
    return [(lhs, from_derivation(d1.commutator(d2), chart))]


def _prop19_dstar_scale(rng, algebra, chart):
    d = sp.random_derivation(rng, algebra)
    a = sp.random_a_element(rng, algebra)
    return [(from_derivation(d.scale(a), chart), from_derivation(d, chart).scale(a))]


def _prop19_dstar_theta(rng, algebra, chart):
    d = sp.random_derivation(rng, algebra)
    t = sp.random_base_field(rng, chart)
    return [(bracket(from_derivation(d, chart), prolong(t, algebra, chart)), None)]


LIE_SUITE = {
    "jacobi": _Identity("fields", _jacobi),
    "antisymmetry": _Identity("fields", _antisymmetry),
    "a-bilinearity": _Identity("fields", _a_bilinearity),
    "prop11-tilde-bracket": _Identity("points", _prop11_tilde_bracket),
    "prop11-tilde-scale": _Identity("points", _prop11_tilde_scale),
    "prop12": _Identity("fields", _prop12),
    "prop17-bracket": _Identity("fields", _prop17_bracket),
    "prop17-scale": _Identity("fields", _prop17_scale),
    "prop19-dstar-bracket": _Identity("fields", _prop19_dstar_bracket),
    "prop19-dstar-scale": _Identity("fields", _prop19_dstar_scale),
    "prop19-dstar-theta": _Identity("fields", _prop19_dstar_theta),
}


# -- lift and tangent suite -------------------------------------------------------


def _lift_add(rng, algebra, chart):
    f, g = (sp.random_chart_expr(rng, chart) for _ in range(2))
    return [(lambda b: lift(f + g, b), lambda b: lift(f, b) + lift(g, b))]


def _lift_mul(rng, algebra, chart):
    f, g = (sp.random_chart_expr(rng, chart) for _ in range(2))
    return [(lambda b: lift(mul(f, g), b), lambda b: algebra.mul_coeffs(lift(f, b), lift(g, b)))]


def _lift_scale(rng, algebra, chart):
    f = sp.random_chart_expr(rng, chart)
    lam = -2.0 + 4.0 * rng.random()  # rng.uniform(-2.0, 2.0), bit for bit
    scaled = mul(const(lam), f)
    return [(lambda b: lift(scaled, b), lambda b: lift(f, b) * lam)]


def _lift_base(rng, algebra, chart):
    f = sp.random_chart_expr(rng, chart)
    return [(lambda b: lift(f, b)[0], lambda b: np.array([evaluate(f, base) for base in b.base().T]))]


def _lift_map_compose(rng, algebra, chart):
    target = Chart.box([(-float("inf"), float("inf"))] * chart.n)
    h = [sp.random_polynomial(rng, chart.n) for _ in range(chart.n)]
    phi = sp.random_polynomial(rng, chart.n)
    composed = _substitute(phi, h)
    return [(lambda b: lift(composed, b), lambda b: lift(phi, lift_map(h, b, target)))]


def _lift_dual_derivative(rng, algebra, chart):
    """Dual numbers do first-order forward AD: lift(f) = f(x) + sum_i d_i f(x) b_i eps."""
    f = sp.random_chart_expr(rng, chart)
    partials = [diff(f, i) for i in range(chart.n)]

    def expected(b):
        values = []
        for base, eps in zip(b.base().T, b.values[:, 1].T):
            slope = sum(evaluate(p, base) * eps[i] for i, p in enumerate(partials))
            values.append([evaluate(f, base), slope])
        return np.array(values).T

    return [(lambda b: lift(f, b), expected)]


def _gamma_agrees(rng, algebra, chart):
    """lifted_function(f) evaluates to lift(f).

    This holds by construction: AFunction.evaluate values a lifted_function as
    the memoised lift plus 0.0.  The dual-basis expansion route is pinned by
    test_lift_evaluates_as_its_rows_bit_for_bit in tests/test_functions.py.
    """
    f = sp.random_chart_expr(rng, chart)
    phi = lifted_function(f, algebra, chart)
    return [(phi.evaluate, lambda b: lift(f, b))]


def _gamma_morphism(rng, algebra, chart):
    f, g = (sp.random_chart_expr(rng, chart) for _ in range(2))
    rhs = lifted_function(f, algebra, chart) * lifted_function(g, algebra, chart)
    return [(lifted_function(mul(f, g), algebra, chart).evaluate, rhs.evaluate)]


def _tangent_leibniz(rng, algebra, chart):
    v = sp.random_tangent_vector(rng, algebra, chart)
    f, g = (sp.random_chart_expr(rng, chart) for _ in range(2))
    rhs = v.apply(f) * lift(g, v.at) + lift(f, v.at) * v.apply(g)
    return [(v.apply(mul(f, g)), rhs)]


def _tangent_extension(rng, algebra, chart):
    """A-linearity, vanishing on constants, agreement on lifts, pointwise Leibniz."""
    v = sp.random_tangent_vector(rng, algebra, chart)
    f = sp.random_chart_expr(rng, chart)
    a = sp.random_a_element(rng, algebra)
    phi = sp.random_function(rng, algebra, chart)
    psi = sp.random_function(rng, algebra, chart)
    leibniz = v.apply_fn(phi) * psi.evaluate(v.at) + phi.evaluate(v.at) * v.apply_fn(psi)
    return [
        (v.apply_fn(AFunction.constant(a, chart)), None),
        (v.apply_fn(lifted_function(f, algebra, chart)), v.apply(f)),
        (v.apply_fn(phi.scale(a)), a * v.apply_fn(phi)),
        (v.apply_fn(phi * psi), leibniz),
    ]


LIFT_SUITE = {
    "lift-add": _Identity("points", _lift_add),
    "lift-mul": _Identity("points", _lift_mul),
    "lift-scale": _Identity("points", _lift_scale),
    "lift-base": _Identity("points", _lift_base),
    "lift-map-compose": _Identity("points", _lift_map_compose),
    "lift-dual-derivative": _Identity(
        "points", _lift_dual_derivative, skip=lambda algebra, chart: algebra.dim != 2
    ),
    "gamma-agrees-with-lift": _Identity("points", _gamma_agrees),
    "gamma-morphism": _Identity("points", _gamma_morphism),
    "tangent-leibniz": _Identity("samples", _tangent_leibniz),
    "tangent-extension": _Identity("samples", _tangent_extension),
}


# -- forms suite ------------------------------------------------------------------


def _thm20(degree, rng, algebra, chart):
    """eta^A(f_1^A t_1^A, ..) = f_1^A .. (eta(t_1, ..))^A on decomposable arguments."""
    omega = sp.random_base_form(rng, chart, degree)
    eta = prolong_form(omega, algebra, chart)
    thetas = [sp.random_base_field(rng, chart) for _ in range(degree)]
    fs = [sp.random_polynomial(rng, chart.n) for _ in range(degree)]
    args = [
        prolong(t, algebra, chart).scale(lifted_function(f, algebra, chart))
        for t, f in zip(thetas, fs)
    ]
    base_value = contract_form(omega, thetas)

    def rhs(b):
        return reduce(lambda acc, f: algebra.mul_coeffs(acc, lift(f, b)), fs, lift(base_value, b))

    return [(lambda b: eta.evaluate(args, b), rhs)]


def _da_naturality(rng, algebra, chart):
    degree = int(rng.integers(0, chart.n))
    omega = sp.random_base_form(rng, chart, degree)
    return [(d_a(prolong_form(omega, algebra, chart)), prolong_form(d_base(omega), algebra, chart))]


def _da_linearity(rng, algebra, chart):
    degree = int(rng.integers(0, chart.n))
    eta = _random_aform(rng, algebra, chart, degree)
    a = sp.random_a_element(rng, algebra)
    return [(d_a(eta.scale_const(a)), d_a(eta).scale_const(a))]


def _da_squared(rng, algebra, chart):
    degree = int(rng.integers(0, chart.n - 1))
    dd = d_a(d_a(_random_aform(rng, algebra, chart, degree)))
    return [(dd, AForm.zero(algebra, chart, dd.degree))]


def _palais_route(rng, algebra, chart):
    """Alternating-sum formula matches the coefficientwise route.

    Probed on prolonged fields and lift-generated coefficients, the class on
    which the two constructions are provably the same operator.
    """
    degree = int(rng.integers(0, chart.n))
    eta = _random_aform(rng, algebra, chart, degree, lifted=True)
    deta = d_a(eta)
    thetas = [sp.random_base_field(rng, chart) for _ in range(degree + 1)]
    lifted = [prolong(t, algebra, chart) for t in thetas]
    return [(lambda b: palais_eval(eta, thetas, b), lambda b: deta.evaluate(lifted, b))]


def _wedge_commutativity(rng, algebra, chart):
    p = 1
    q = int(rng.integers(1, chart.n))
    e1 = _random_aform(rng, algebra, chart, p)
    e2 = _random_aform(rng, algebra, chart, q)
    return [(wedge(e2, e1), wedge(e1, e2).scale_const((-1.0) ** (p * q)))]


def _wedge_leibniz(rng, algebra, chart):
    p = int(rng.integers(0, chart.n - 1))
    q = int(rng.integers(0, chart.n - p - 1))
    e1 = _random_aform(rng, algebra, chart, p)
    e2 = _random_aform(rng, algebra, chart, q)
    rhs = wedge(d_a(e1), e2) + wedge(e1, d_a(e2)).scale_const((-1.0) ** p)
    return [(d_a(wedge(e1, e2)), rhs)]


def _random_aform(rng, algebra, chart, degree, lifted: bool = False) -> AForm:
    terms = []
    for idx in itertools.combinations(range(chart.n), degree):
        if rng.random() < 0.75 or not terms:
            if lifted:
                phi = sp.random_lifted_function(rng, algebra, chart)
            else:
                phi = sp.random_function(rng, algebra, chart, max_terms=1, max_monomial=1)
            terms.append((phi, idx))
    return AForm(algebra, chart, degree, tuple(terms))


FORMS_SUITE = {
    "thm20-eval-p1": _Identity("points", partial(_thm20, 1), skip=_below(1)),
    "thm20-eval-p2": _Identity("points", partial(_thm20, 2), skip=_below(2)),
    "da-naturality": _Identity("forms", _da_naturality),
    "da-linearity": _Identity("forms", _da_linearity),
    "da-squared-zero": _Identity("forms", _da_squared, skip=_below(2)),
    "palais-route": _Identity("points", _palais_route),
    "wedge-graded-commutativity": _Identity("forms", _wedge_commutativity, skip=_below(2)),
    "wedge-leibniz": _Identity("forms", _wedge_leibniz, skip=_below(2)),
}

IDENTITIES: dict[str, _Identity] = {**LIE_SUITE, **LIFT_SUITE, **FORMS_SUITE}

SUITES: dict[str, tuple[str, ...]] = {
    "lie": tuple(LIE_SUITE),
    "lift": tuple(LIFT_SUITE),
    "forms": tuple(FORMS_SUITE),
    "all": tuple(IDENTITIES),
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
    identity = IDENTITIES.get(name)
    if identity is None:
        raise UnknownIdentity(f"unknown identity {name!r}; known: {sorted(IDENTITIES)}")
    residual = identity(algebra, chart, np.random.default_rng(seed), samples)
    return _record(name, algebra, chart, samples, seed, residual, tol)


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
    report = _report("check", "suite", suite, algebra, chart, seed, samples, tol)
    for name in SUITES[suite]:
        report.records.append(check_identity(name, algebra, chart, seed, samples, tol))
    return report


# -- cohomology models ----------------------------------------------------------
#
# A model returns (check name, residual, tolerance) triples; run_cohomology_model
# turns them into records.


def _random_combination(rng, algebra, n, degree, draw_form) -> ACombination:
    """a_1 omega_1 + a_2 omega_2, drawing each a_k before its omega_k."""
    terms = tuple((sp.random_a_element(rng, algebra), draw_form()) for _ in range(2))
    return ACombination(algebra, n, degree, terms)


def _poincare_model(algebra, chart, rng, seed, samples, tol):
    """Random closed positive-degree combinations on a box get certified primitives."""
    out = []
    n = chart.n
    for degree in range(1, n + 1):
        residual = 0.0
        for _ in range(samples):
            seed_comb = _random_combination(
                rng, algebra, n, degree - 1, lambda: sp.random_base_form(rng, chart, degree - 1)
            )
            eta = seed_comb.differential()  # closed by construction
            primitive = a_primitive(eta, chart)
            lhs = d_a(primitive.to_aform(chart))
            rhs = eta.to_aform(chart)
            residual = _worst(residual, _form_residual(lhs, rhs, rng, sp.random_near_points(rng, algebra, chart, 3)))
        out.append((f"poincare-primitive-p{degree}", residual, tol))
    return out


def _circle_model(algebra, chart, rng, seed, samples, tol):
    """Class map on the circle: linear, kills exact forms, splits off exact parts."""
    kernel_residual = 0.0
    split_residual = 0.0
    linear_residual = 0.0
    for _ in range(samples):
        # exact form: class must vanish and the primitive must reproduce it
        zero_form = _random_combination(
            rng, algebra, 1, 0, lambda: form(1, 0, {(): sp.random_trig_polynomial(rng)})
        )
        eta_exact = zero_form.differential()
        kernel_residual = _worst(kernel_residual, circle_h1_class(eta_exact).max_abs())

        # general form: eta = class . dx + d(primitive)
        eta = _random_combination(
            rng, algebra, 1, 1, lambda: form(1, 1, {(0,): sp.random_trig_polynomial(rng)})
        )
        cls, primitive = circle_primitive(eta)  # cls is the class of eta, reused below
        for _ in range(4):
            t = 2.0 * np.pi * rng.random()  # rng.uniform(0.0, 2.0 * np.pi), bit for bit
            direct = algebra.zero()
            for a, omega in eta.terms:
                direct = direct + evaluate(omega.coefficient((0,)), [t]) * a
            reconstructed = cls
            for a, omega in primitive.terms:
                reconstructed = reconstructed + evaluate(diff(omega.coefficient(()), 0), [t]) * a
            split_residual = _worst(split_residual, (direct - reconstructed).max_abs())

        # A-linearity of the class map
        a = sp.random_a_element(rng, algebra)
        scaled = ACombination(algebra, 1, 1, tuple((a * c, w) for c, w in eta.terms))
        linear_residual = _worst(
            linear_residual, (circle_h1_class(scaled) - a * cls).max_abs()
        )
    return [
        ("circle-class-kills-exact", kernel_residual, tol),
        ("circle-class-splitting", split_residual, tol),
        ("circle-class-a-linear", linear_residual, tol),
    ]


def _h0_model(algebra, chart, rng, seed, samples, tol):
    """Closed 0-forms are the A-constants, including telescoping representations."""
    const_residual = 0.0
    telescope_residual = 0.0
    detect_failures = 0
    for trial in range(samples):
        a = sp.random_a_element(rng, algebra)
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
    tol = max(tol, 1e-8)
    return [
        ("h0-constant", const_residual, tol),
        ("h0-telescope", telescope_residual, tol),
        # the count of non-closed inputs that went undetected must be exactly 0
        ("h0-detects-nonclosed", float(detect_failures), 0.0),
    ]


_MODELS = {"poincare": _poincare_model, "circle": _circle_model, "h0": _h0_model}


def run_cohomology_model(
    model: str,
    algebra: WeilAlgebra,
    chart: Chart,
    seed: int = 0,
    samples: int = 10,
    tol: float = 1e-9,
) -> SuiteReport:
    """Run one cohomology model; the circle model always works on the circle chart."""
    run = _MODELS.get(model)
    if run is None:
        raise ValueError(f"unknown cohomology model {model!r}")
    if model == "circle":
        chart = Chart.circle()
    report = _report("cohomology", "model", model, algebra, chart, seed, samples, tol)
    rng = np.random.default_rng(seed)
    report.records = [
        _record(name, algebra, chart, samples, seed, residual, check_tol)
        for name, residual, check_tol in run(algebra, chart, rng, seed, samples, tol)
    ]
    return report
