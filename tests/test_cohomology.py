import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import npk.cohomology
from npk.cohomology import (
    ACombination,
    NonPolynomialCoefficient,
    NonTrigPolynomial,
    NotClosed,
    NotConstant,
    NotStarShaped,
    PolyForm,
    a_primitive,
    circle_h1_class,
    circle_primitive,
    closure_residual,
    d_poly,
    expr_to_poly,
    h0_check,
    homotopy_poly,
    inject,
    poincare_homotopy,
    trig_coefficients,
)
from npk.expr import Const, Polynomial, evaluate, form, parse, unparse
from npk.expr import exterior_derivative as d_base
from npk.fields import prolong
from npk.forms import exterior_derivative as d_a
from npk.functions import AFunction, lifted_function
from npk.points import Chart
from npk.sampling import (
    random_a_element,
    random_base_field,
    random_near_point,
    random_polynomial,
    random_trig_polynomial,
)

CHART = Chart.cube(2)


def test_expr_to_poly_exact():
    p = expr_to_poly(parse("x1^2 + 2*x1*x2 - 0.5", 2), 2)
    assert p == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 0): Fraction(-1, 2)}
    back = PolyForm(2, 0, {(): p}).to_form().coefficient(())
    assert isinstance(back, Polynomial) and unparse(back) == "-0.5 + x1^2 + 2*x1*x2"
    assert expr_to_poly(back, 2) == p


def test_expr_to_poly_rejects_transcendental():
    with pytest.raises(NonPolynomialCoefficient):
        expr_to_poly(parse("sin(x1)", 2), 2)
    with pytest.raises(NonPolynomialCoefficient):
        expr_to_poly(parse("x1/x2", 2), 2)


def test_homotopy_example_product():
    # K(x2 dx1 + x1 dx2) = x1 x2, whose differential returns the input
    omega = form(2, 1, {(0,): parse("x2", 2), (1,): parse("x1", 2)})
    k = poincare_homotopy(omega, CHART)
    assert expr_to_poly(k.coefficient(()), 2) == {(1, 1): Fraction(1)}
    assert PolyForm.from_form(d_base(k)) == PolyForm.from_form(omega)


def test_homotopy_example_constant():
    omega = form(2, 1, {(0,): Const(1.0)})
    k = poincare_homotopy(omega, CHART)
    assert expr_to_poly(k.coefficient(()), 2) == {(1, 0): Fraction(1)}


def test_homotopy_identity_on_open_form():
    # dK + Kd = id on x1 dx2
    omega = form(2, 1, {(1,): parse("x1", 2)})
    pf = PolyForm.from_form(omega)
    total = d_poly(homotopy_poly(pf))
    kd = homotopy_poly(d_poly(pf))
    combined = {
        idx: dict(total.coeffs.get(idx, {})) for idx in set(total.coeffs) | set(kd.coeffs)
    }
    for idx, poly in kd.coeffs.items():
        tgt = combined.setdefault(idx, {})
        for exps, c in poly.items():
            tgt[exps] = tgt.get(exps, Fraction(0)) + c
    cleaned = {idx: {e: c for e, c in poly.items() if c} for idx, poly in combined.items()}
    cleaned = {idx: poly for idx, poly in cleaned.items() if poly}
    assert cleaned == {idx: dict(p) for idx, p in pf.coeffs.items()}


def test_homotopy_identity_exact_random():
    # exact rational identity over n <= 3, coefficient degree <= 4, all degrees
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        chart = Chart.cube(n)
        for degree in range(1, n + 1):
            for _ in range(5):
                coeffs = {
                    idx: random_polynomial(rng, n, degree=4)
                    for idx in itertools.combinations(range(n), degree)
                }
                pf = PolyForm.from_form(form(n, degree, coeffs))
                lhs = d_poly(homotopy_poly(pf))
                rhs = homotopy_poly(d_poly(pf)) if degree < n else PolyForm(n, degree, {})
                total: dict = {}
                for part in (lhs.coeffs, rhs.coeffs):
                    for idx, poly in part.items():
                        tgt = total.setdefault(idx, {})
                        for exps, c in poly.items():
                            value = tgt.get(exps, Fraction(0)) + c
                            if value:
                                tgt[exps] = value
                            else:
                                tgt.pop(exps, None)
                total = {idx: poly for idx, poly in total.items() if poly}
                assert total == {idx: dict(p) for idx, p in pf.coeffs.items() if p}


def test_homotopy_requires_star_shaped():
    omega = form(1, 1, {(0,): Const(1.0)})
    with pytest.raises(NotStarShaped):
        poincare_homotopy(omega, Chart.box([(0.5, 2.0)]))
    with pytest.raises(NotStarShaped):
        poincare_homotopy(omega, Chart.circle())


def test_inject_unit_matches_prolongation(dual):
    from npk.forms import prolong_form

    omega = form(2, 1, {(0,): parse("x2", 2)})
    rng = np.random.default_rng(1)
    lhs = inject(dual.unit(), omega, CHART)
    rhs = prolong_form(omega, dual, CHART)
    probes = [prolong(random_base_field(rng, CHART), dual, CHART)]
    for _ in range(5):
        xi = random_near_point(rng, dual, CHART)
        assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-12


def test_inject_zero(dual):
    omega = form(2, 1, {(0,): parse("x2", 2)})
    assert inject(dual.zero(), omega, CHART).terms == ()


def test_chain_map_law(catalog):
    # 200 random (a, omega) pairs per algebra
    rng = np.random.default_rng(2)
    for algebra in catalog:
        for _ in range(200):
            degree = int(rng.integers(0, 2))
            coeffs = {
                idx: random_polynomial(rng, 2)
                for idx in itertools.combinations(range(2), degree)
            }
            omega = form(2, degree, coeffs)
            a = random_a_element(rng, algebra)
            lhs = d_a(inject(a, omega, CHART))
            rhs = inject(a, d_base(omega), CHART)
            probes = [
                prolong(random_base_field(rng, CHART), algebra, CHART)
                for _ in range(degree + 1)
            ]
            xi = random_near_point(rng, algebra, CHART)
            assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-9


def test_a_primitive_example(dual):
    # eps * (x2 dx1 + x1 dx2) has primitive eps * x1 x2
    eps = dual.basis_element(1)
    omega = form(2, 1, {(0,): parse("x2", 2), (1,): parse("x1", 2)})
    eta = ACombination(dual, 2, 1, ((eps, omega),))
    primitive = a_primitive(eta, CHART)
    assert primitive.degree == 0
    ((a, w),) = primitive.terms
    assert np.array_equal(a.coeffs, eps.coeffs)
    assert expr_to_poly(w.coefficient(()), 2) == {(1, 1): Fraction(1)}


def test_a_primitive_closed_two_form(dual):
    # x1 dx1 ^ dx2 is exact; the rational layer recovers it exactly, the
    # float boundary to within an ulp
    omega = form(2, 2, {(0, 1): parse("x1", 2)})
    pf = PolyForm.from_form(omega)
    assert d_poly(homotopy_poly(pf)) == pf
    eta = ACombination(dual, 2, 2, ((dual.unit(), omega),))
    primitive = a_primitive(eta, CHART)
    ((_, w),) = primitive.terms
    diff_back = PolyForm.from_form(d_base(w)).coeffs[(0, 1)]
    assert abs(float(diff_back[(1, 0)]) - 1.0) <= 1e-15


def test_a_primitive_globally_closed_combination(dual):
    # summands individually open, the combination closed slot-by-slot
    eps = dual.basis_element(1)
    omega1 = form(2, 1, {(1,): parse("x1", 2)})           # d = dx1^dx2
    omega2 = form(2, 1, {(0,): parse("x2", 2)})           # d = -dx1^dx2
    eta = ACombination(dual, 2, 1, ((eps, omega1), (eps, omega2)))
    assert closure_residual(eta) == 0.0
    primitive = a_primitive(eta, CHART)
    lhs = d_a(primitive.to_aform(CHART))
    rhs = eta.to_aform(CHART)
    rng = np.random.default_rng(30)
    probes = [prolong(random_base_field(rng, CHART), dual, CHART)]
    for _ in range(5):
        xi = random_near_point(rng, dual, CHART)
        assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-12


def test_a_primitive_rejects_open_form(dual):
    omega = form(2, 1, {(1,): parse("x1", 2)})  # d(x1 dx2) = dx1^dx2 != 0
    eta = ACombination(dual, 2, 1, ((dual.unit(), omega),))
    assert closure_residual(eta) > 0.5
    with pytest.raises(NotClosed):
        a_primitive(eta, CHART)


def test_a_primitive_certified_by_evaluation(catalog):
    rng = np.random.default_rng(3)
    from npk.sampling import random_base_form

    for algebra in catalog:
        for degree in (1, 2):
            seed = ACombination(
                algebra,
                2,
                degree - 1,
                tuple(
                    (random_a_element(rng, algebra), random_base_form(rng, CHART, degree - 1))
                    for _ in range(2)
                ),
            )
            eta = seed.differential()
            primitive = a_primitive(eta, CHART)
            lhs = d_a(primitive.to_aform(CHART))
            rhs = eta.to_aform(CHART)
            probes = [
                prolong(random_base_field(rng, CHART), algebra, CHART) for _ in range(degree)
            ]
            for _ in range(3):
                xi = random_near_point(rng, algebra, CHART)
                assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-9


def test_trig_coefficients_and_mean():
    tc = trig_coefficients(parse("3 + cos(x1)", 1))
    assert tc.mean == pytest.approx(3.0, abs=1e-12)
    assert tc.cos_terms[0] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(c) < 1e-12 for c in tc.cos_terms[1:])
    # products linearize: sin(x)*cos(x) = sin(2x)/2
    tc2 = trig_coefficients(parse("sin(x1)*cos(x1)", 1))
    assert tc2.mean == pytest.approx(0.0, abs=1e-12)
    assert tc2.sin_terms[1] == pytest.approx(0.5, abs=1e-12)


def _trig_coefficients_by_angle(g, max_freq=8):
    """The sums angle by angle, with one scalar evaluate per angle and no snapping."""
    n = 2 * max_freq + 1
    angles = [2.0 * math.pi * j / n for j in range(n)]
    values = [evaluate(g, [t]) for t in angles]
    cos_terms = [2.0 / n * sum(v * math.cos(k * t) for v, t in zip(values, angles)) for k in range(1, max_freq + 1)]
    sin_terms = [2.0 / n * sum(v * math.sin(k * t) for v, t in zip(values, angles)) for k in range(1, max_freq + 1)]
    return sum(values) / n, cos_terms, sin_terms


def test_trig_coefficients_in_one_walk_match_the_sums_by_angle(monkeypatch):
    rng = np.random.default_rng(23)
    real, walks = npk.cohomology.evaluate, []
    monkeypatch.setattr(npk.cohomology, "evaluate", lambda g, point: walks.append(len(point[0])) or real(g, point))
    for g in [random_trig_polynomial(rng) for _ in range(10)] + [parse("1 + 2*sin(3*x1) - cos(8*x1)", 1)]:
        walks.clear()
        tc = trig_coefficients(g)
        assert walks == [17 + 7]  # the grid and the off-grid probes
        mean, cos_terms, sin_terms = _trig_coefficients_by_angle(g)
        assert type(tc.mean) is float and all(type(c) is float for c in tc.cos_terms + tc.sin_terms)
        assert np.allclose([tc.mean, *tc.cos_terms, *tc.sin_terms], [mean, *cos_terms, *sin_terms], rtol=0, atol=1e-13)


def test_trig_rejects_non_trig():
    with pytest.raises(NonTrigPolynomial):
        trig_coefficients(parse("exp(x1)", 1))
    with pytest.raises(NonTrigPolynomial):
        trig_coefficients(parse("sin(0.5*x1)", 1))  # half frequency is off the lattice
    with pytest.raises(NonTrigPolynomial, match="evaluation failed on the circle: division by zero"):
        trig_coefficients(parse("1/(x1 - 0.31)", 1))  # 0.31 is the first off-grid probe


def test_circle_class_examples(dual):
    circle = Chart.circle()
    assert circle.n == 1
    # (3 + cos x) dx: class 3, exact part cos x dx = d(sin x)
    eta = ACombination(dual, 1, 1, ((dual.unit(), form(1, 1, {(0,): parse("3 + cos(x1)", 1)})),))
    cls = circle_h1_class(eta)
    assert np.allclose(cls.coeffs, [3.0, 0.0], atol=1e-12)

    # eps sin(x) dx: class 0, primitive -eps cos x
    eps = dual.basis_element(1)
    eta2 = ACombination(dual, 1, 1, ((eps, form(1, 1, {(0,): parse("sin(x1)", 1)})),))
    cls2, primitive = circle_primitive(eta2)
    assert cls2.max_abs() <= 1e-12
    ((a, w),) = primitive.terms
    value = a.coeffs[1] * math.cos(1.234) * -1.0
    from npk.expr import evaluate

    assert evaluate(w.coefficient(()), [1.234]) * a.coeffs[1] == pytest.approx(value, abs=1e-9)

    # dx: class 1 (the generator)
    eta3 = ACombination(dual, 1, 1, ((dual.unit(), form(1, 1, {(0,): Const(1.0)})),))
    assert np.allclose(circle_h1_class(eta3).coeffs, [1.0, 0.0], atol=1e-14)


def test_circle_class_kills_exact_and_splits(dual):
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = random_trig_polynomial(rng)
        zero_form = ACombination(
            dual, 1, 0, ((random_a_element(rng, dual), form(1, 0, {(): f})),)
        )
        eta = zero_form.differential()
        assert circle_h1_class(eta).max_abs() <= 1e-10

        g = random_trig_polynomial(rng)
        eta2 = ACombination(dual, 1, 1, ((random_a_element(rng, dual), form(1, 1, {(0,): g})),))
        cls, primitive = circle_primitive(eta2)
        from npk.expr import diff, evaluate

        for t in rng.uniform(0, 2 * math.pi, 5):
            direct = dual.zero()
            for a, w in eta2.terms:
                direct = direct + evaluate(w.coefficient((0,)), [t]) * a
            recon = cls
            for a, w in primitive.terms:
                recon = recon + evaluate(diff(w.coefficient(()), 0), [t]) * a
            assert (direct - recon).max_abs() <= 1e-9


def test_h0_constant(catalog):
    rng = np.random.default_rng(5)
    for algebra in catalog:
        a = random_a_element(rng, algebra)
        out = h0_check(AFunction.constant(a, CHART), samples=10, seed=3)
        assert (out - a).max_abs() <= 1e-12


def test_h0_rejects_nonconstant(dual):
    with pytest.raises(NotClosed):
        h0_check(lifted_function(parse("x1", 2), dual, CHART), samples=10, seed=3)


def test_h0_telescope(plane_jet):
    f, g = parse("x1^2 + sin(x1)", 2), parse("x1^2", 2)
    phi = (
        lifted_function(parse("x1^2 + sin(x1)", 2), plane_jet, CHART)
        - lifted_function(g, plane_jet, CHART)
        - lifted_function(parse("sin(x1)", 2), plane_jet, CHART)
    )
    out = h0_check(phi, samples=10, seed=4)
    assert out.max_abs() <= 1e-10


def test_h0_on_circle(dual):
    circle = Chart.circle()
    a = dual.element([0.7, -0.3])
    out = h0_check(AFunction.constant(a, circle), samples=10, seed=5)
    assert (out - a).max_abs() <= 1e-12


def test_h0_nan_differential_is_not_closed(dual):
    # a NaN residual used to pass both `residual > tol` tests and return nan + nan*x
    phi = lifted_function(parse("x1", 2), dual, CHART).scale(dual.element([math.nan, 0.0]))
    with pytest.raises(NotClosed):
        h0_check(phi, samples=10, seed=3)


def test_h0_nan_constant_is_not_constant(dual):
    with pytest.raises(NotConstant):
        h0_check(AFunction.constant(dual.element([math.nan, 0.0]), CHART), samples=10, seed=3)


def _seeded_combination(rng, algebra, chart, degree):
    """a_1 omega_1 + a_2 omega_2 with random polynomial base forms, as the Poincare model draws them."""
    from npk.sampling import random_base_form

    terms = tuple((random_a_element(rng, algebra), random_base_form(rng, chart, degree)) for _ in range(2))
    return ACombination(algebra, chart.n, degree, terms)


def _symbolic_closure_residual(eta):
    """The symbolic route: d of each summand as an expression tree, then the slotwise rational sum."""
    d_eta = eta.differential()
    worst = 0.0
    for alpha in range(eta.algebra.dim):
        slot: dict = {}
        for a, omega in d_eta.terms:
            weight = Fraction(float(a.coeffs[alpha]))
            for idx, poly in PolyForm.from_form(omega).coeffs.items():
                for exps, c in poly.items():
                    slot[idx, exps] = slot.get((idx, exps), 0) + weight * c
        worst = max([worst, *(abs(float(v)) for v in slot.values())])
    return worst


def test_closure_residual_is_exactly_zero_on_closed_combinations(catalog):
    # d(d(seed)) in float expression trees leaves rounding residue on a few of
    # these; the exact d on the rational forms leaves none
    for algebra in catalog:
        for n in (2, 3):
            chart = Chart.cube(n)
            for seed in range(40):
                rng = np.random.default_rng(seed)
                for degree in range(1, n + 1):
                    eta = _seeded_combination(rng, algebra, chart, degree - 1).differential()
                    assert closure_residual(eta) == 0.0, (algebra.text, n, seed, degree)


def test_closure_residual_matches_symbolic_route_on_open_combinations(catalog):
    rng = np.random.default_rng(6)
    for algebra in catalog:
        for n in (2, 3):
            chart = Chart.cube(n)
            for degree in range(1, n):
                for _ in range(3):
                    eta = _seeded_combination(rng, algebra, chart, degree)
                    expected = _symbolic_closure_residual(eta)
                    assert abs(closure_residual(eta) - expected) <= 1e-12 * expected


def test_a_primitive_terms_are_the_homotopy_of_each_term(catalog):
    from npk.expr import unparse

    rng = np.random.default_rng(7)
    chart = Chart.cube(3)
    for algebra in catalog:
        for degree in (1, 2, 3):
            eta = _seeded_combination(rng, algebra, chart, degree - 1).differential()
            primitive = a_primitive(eta, chart)
            for (a, w), (b, omega) in zip(primitive.terms, eta.terms, strict=True):
                expected = poincare_homotopy(omega, chart)
                assert a is b
                assert [(unparse(g), idx) for g, idx in w.terms] == [(unparse(g), idx) for g, idx in expected.terms]


def _count_trig_calls(monkeypatch):
    import npk.cohomology

    calls = []
    original = npk.cohomology.trig_coefficients

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(npk.cohomology, "trig_coefficients", counted)
    return calls


def test_circle_primitive_analyses_each_term_once(monkeypatch, dual):
    calls = _count_trig_calls(monkeypatch)
    rng = np.random.default_rng(8)
    terms = tuple(
        (random_a_element(rng, dual), form(1, 1, {(0,): random_trig_polynomial(rng)})) for _ in range(3)
    )
    circle_primitive(ACombination(dual, 1, 1, terms))
    assert len(calls) == 3


def test_circle_model_analyses_six_terms_per_sample(monkeypatch, dual):
    from npk.checks import run_cohomology_model

    calls = _count_trig_calls(monkeypatch)
    assert run_cohomology_model("circle", dual, Chart.circle(), seed=3, samples=4).passed
    assert len(calls) == 6 * 4


def test_circle_class_is_the_class_circle_primitive_returns(catalog):
    rng = np.random.default_rng(9)
    for algebra in catalog:
        for _ in range(5):
            terms = tuple(
                (random_a_element(rng, algebra), form(1, 1, {(0,): random_trig_polynomial(rng)}))
                for _ in range(2)
            )
            eta = ACombination(algebra, 1, 1, terms)
            assert np.array_equal(circle_h1_class(eta).coeffs, circle_primitive(eta)[0].coeffs)
