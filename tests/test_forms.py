import collections
import itertools

import numpy as np
import pytest

from npk.cohomology import ACombination
from npk.expr import Const, VectorField, form, parse
from npk.expr import exterior_derivative as d_base
import npk.fields
import npk.forms
import npk.functions
from npk.fields import AVectorField, bracket, prolong
from npk.forms import (
    AForm,
    ArityMismatch,
    DegreeOverflow,
    _perm_sign,
    exterior_derivative,
    palais_eval,
    prolong_form,
    wedge,
)
from npk.functions import AFunction, lifted_function
from npk.points import Chart, NearPoint, NearPoints, lift
from npk.sampling import (
    random_a_element,
    random_base_field,
    random_base_form,
    random_field,
    random_function,
    random_lifted_field,
    random_lifted_function,
    random_near_point,
    random_near_points,
)
from npk.weil import build_algebra, parse_presentation

CHART = Chart.cube(2)


def _coords(algebra):
    """The prolongations of d/dx1 and d/dx2."""
    return [prolong(VectorField(tuple(Const(float(j == i)) for j in range(2))), algebra, CHART) for i in range(2)]


def test_area_form_on_coordinates(plane_jet):
    eta = prolong_form(form(2, 2, {(0, 1): Const(1.0)}), plane_jet, CHART)
    d1, d2 = _coords(plane_jet)
    xi = random_near_point(np.random.default_rng(0), plane_jet, CHART)
    assert np.array_equal(eta.evaluate([d1, d2], xi).coeffs, plane_jet.unit().coeffs)
    assert np.array_equal(eta.evaluate([d2, d1], xi).coeffs, (-plane_jet.unit()).coeffs)
    assert eta.evaluate([d1, d1], xi).max_abs() == 0.0


def test_a_linearity_in_fields(dual):
    eta = prolong_form(form(2, 1, {(0,): Const(1.0)}), dual, CHART)
    rng = np.random.default_rng(1)
    a = random_a_element(rng, dual)
    x = _coords(dual)[0].scale(AFunction.constant(a, CHART))
    xi = random_near_point(rng, dual, CHART)
    assert (eta.evaluate([x], xi) - a).max_abs() <= 1e-12


def test_decomposable_evaluation_law(catalog):
    # eta^A(f1^A t1^A, f2^A t2^A) = f1^A f2^A (eta(t1, t2))^A
    from npk.expr import contract_form

    rng = np.random.default_rng(2)
    omega = form(2, 2, {(0, 1): parse("x1 + x2", 2)})
    t1 = VectorField((parse("x2", 2), Const(1.0)))
    t2 = VectorField((Const(1.0), parse("x1", 2)))
    f1, f2 = parse("x1*x2", 2), parse("x1 + 2", 2)
    base_value = contract_form(omega, [t1, t2])
    for algebra in catalog:
        eta = prolong_form(omega, algebra, CHART)
        args = [
            prolong(t1, algebra, CHART).scale(lifted_function(f1, algebra, CHART)),
            prolong(t2, algebra, CHART).scale(lifted_function(f2, algebra, CHART)),
        ]
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            lhs = eta.evaluate(args, xi)
            rhs = lift(f1, xi) * lift(f2, xi) * lift(base_value, xi)
            assert (lhs - rhs).max_abs() <= 1e-9


def test_wedge_of_coordinate_coframes(plane_jet):
    dx1 = prolong_form(form(2, 1, {(0,): Const(1.0)}), plane_jet, CHART)
    dx2 = prolong_form(form(2, 1, {(1,): Const(1.0)}), plane_jet, CHART)
    area = wedge(dx1, dx2)
    assert len(area.terms) == 1 and area.terms[0][1] == (0, 1)
    assert wedge(dx1, dx1).terms == ()


def test_wedge_graded_commutativity(plane_jet):
    rng = np.random.default_rng(3)
    phi = random_lifted_function(rng, plane_jet, CHART)
    psi = random_lifted_function(rng, plane_jet, CHART)
    e1 = AForm(plane_jet, CHART, 1, ((phi, (0,)),))
    e2 = AForm(plane_jet, CHART, 1, ((psi, (1,)),))
    lhs = wedge(e2, e1)
    rhs = wedge(e1, e2).scale_const(-1.0)
    probes = [prolong(random_base_field(rng, CHART), plane_jet, CHART) for _ in range(2)]
    for _ in range(5):
        xi = random_near_point(rng, plane_jet, CHART)
        assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-10


def test_wedge_commutativity_even_sign(plane_jet):
    # p = 1, q = 2: the swap sign is +1
    chart3 = Chart.cube(3)
    one = prolong_form(form(3, 1, {(1,): parse("x1", 3)}), plane_jet, chart3)
    two = prolong_form(form(3, 2, {(0, 2): parse("x3", 3)}), plane_jet, chart3)
    rng = np.random.default_rng(32)
    probes = [
        prolong(random_base_field(rng, chart3), plane_jet, chart3) for _ in range(3)
    ]
    for _ in range(5):
        xi = random_near_point(rng, plane_jet, chart3)
        lhs = wedge(two, one).evaluate(probes, xi)
        rhs = wedge(one, two).evaluate(probes, xi)
        assert (lhs - rhs).max_abs() <= 1e-10


def test_wedge_degree_overflow(dual):
    dx1 = prolong_form(form(2, 1, {(0,): Const(1.0)}), dual, CHART)
    area = prolong_form(form(2, 2, {(0, 1): Const(1.0)}), dual, CHART)
    with pytest.raises(DegreeOverflow):
        wedge(dx1, area)


def test_exterior_derivative_product_formula(dual):
    # d of the lift of x1*x2, evaluated on coordinate prolongations
    eta = AForm(dual, CHART, 0, ((lifted_function(parse("x1*x2", 2), dual, CHART), ()),))
    deta = exterior_derivative(eta)
    d1, d2 = _coords(dual)
    rng = np.random.default_rng(4)
    for _ in range(10):
        xi = random_near_point(rng, dual, CHART)
        assert (deta.evaluate([d1], xi) - lift(parse("x2", 2), xi)).max_abs() <= 1e-12
        assert (deta.evaluate([d2], xi) - lift(parse("x1", 2), xi)).max_abs() <= 1e-12


def test_exterior_derivative_constant_is_zero(dual):
    a = dual.element([0.5, 2.0])
    eta = AForm(dual, CHART, 0, ((AFunction.constant(a, CHART), ()),))
    assert exterior_derivative(eta).terms == ()


def test_dd_zero(catalog):
    rng = np.random.default_rng(5)
    for algebra in catalog:
        phi = random_lifted_function(rng, algebra, CHART)
        dd = exterior_derivative(exterior_derivative(AForm(algebra, CHART, 0, ((phi, ()),))))
        probes = [prolong(random_base_field(rng, CHART), algebra, CHART) for _ in range(2)]
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert dd.evaluate(probes, xi).max_abs() <= 1e-10


def test_naturality(catalog):
    rng = np.random.default_rng(6)
    omega = form(2, 1, {(0,): parse("x2^2", 2), (1,): parse("x1*x2", 2)})
    for algebra in catalog:
        lhs = exterior_derivative(prolong_form(omega, algebra, CHART))
        rhs = prolong_form(d_base(omega), algebra, CHART)
        probes = [prolong(random_base_field(rng, CHART), algebra, CHART) for _ in range(2)]
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert (lhs.evaluate(probes, xi) - rhs.evaluate(probes, xi)).max_abs() <= 1e-9


def test_degree_zero_post(catalog):
    # evaluating d(phi) on a field recovers the extension applied to phi
    rng = np.random.default_rng(7)
    for algebra in catalog:
        phi = random_lifted_function(rng, algebra, CHART)
        eta = AForm(algebra, CHART, 0, ((phi, ()),))
        deta = exterior_derivative(eta)
        x = prolong(random_base_field(rng, CHART), algebra, CHART)
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            lhs = deta.evaluate([x], xi)
            rhs = x.apply_fn(phi).evaluate(xi)
            assert (lhs - rhs).max_abs() <= 1e-9


def _palais_by_symbols(eta, thetas):
    """Reference global formula, built symbolically: the contraction with all but one prolonged
    field, its derivation extension, and the bracket of each pair; returns its valuation at xi."""
    lifted = [prolong(t, eta.algebra, eta.chart) for t in thetas]
    extended = [x.apply_fn(eta.contract(lifted[:i] + lifted[i + 1:])) for i, x in enumerate(lifted)]
    corrections = []
    for i, j in itertools.combinations(range(len(lifted)), 2):
        rest = [lifted[k] for k in range(len(lifted)) if k not in (i, j)]
        corrections.append(([bracket(lifted[i], lifted[j])] + rest, (-1.0) ** (i + j)))

    def value(xi):
        acc = np.zeros(xi.values[0].shape)
        for i, phi in enumerate(extended):
            acc = acc + xi._unwrap(phi.evaluate(xi)) * ((-1.0) ** i)
        for fields, sign in corrections:
            acc = acc + xi._unwrap(eta.evaluate(fields, xi)) * sign
        return acc

    return value


def _palais_probe(rng, algebra, chart, degree, factors=2, limit=None):
    """A degree-p form with lift-generated and general coefficients on its first limit indices,
    and p + 1 base fields."""
    terms = []
    for k, idx in enumerate(itertools.islice(itertools.combinations(range(chart.n), degree), limit)):
        if k % 2:
            phi = random_function(rng, algebra, chart, max_terms=3, max_monomial=3, transcendental=True)
        else:
            phi = random_lifted_function(rng, algebra, chart, factors=factors)
        terms.append((phi, idx))
    eta = AForm(algebra, chart, degree, tuple(terms))
    return eta, [random_base_field(rng, chart) for _ in range(degree + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_palais_values_match_the_symbolic_route(catalog, n):
    rng = np.random.default_rng(16 + n)
    chart = Chart.cube(n)
    for algebra in list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]:
        for degree in range(n):
            # at dim 27 the symbolic reference is kept to two small coefficients, as it takes seconds
            small = {"factors": 1, "limit": 2} if algebra.dim > 20 else {}
            eta, thetas = _palais_probe(rng, algebra, chart, degree, **small)
            reference_at = _palais_by_symbols(eta, thetas)
            points = [random_near_point(rng, algebra, chart) for _ in range(3)]
            for xi in (points[0], NearPoints.stack(points)):
                got = xi._unwrap(palais_eval(eta, thetas, xi))
                reference = reference_at(xi)
                assert got.shape == reference.shape
                assert np.abs(got - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


def test_palais_eval_builds_no_symbolic_function(monkeypatch, plane_jet):
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((AFunction, "__mul__"), (AVectorField, "apply"), (AVectorField, "apply_fn"),
                        (AForm, "contract"), (npk.functions, "_extension"), (npk.fields, "_extension")):
        count(owner, name)
    for module in (npk.fields, npk.forms):  # wherever the bracket can be reached by name
        if hasattr(module, "bracket"):
            count(module, "bracket")
    rng = np.random.default_rng(18)
    chart = Chart.cube(3)
    for degree in range(3):
        eta, thetas = _palais_probe(rng, plane_jet, chart, degree)
        xi = random_near_point(rng, plane_jet, chart)
        calls.clear()
        palais_eval(eta, thetas, xi)
        palais_eval(eta, thetas, NearPoints.stack([xi, random_near_point(rng, plane_jet, chart)]))
        assert not calls, dict(calls)


def test_palais_degree_zero(dual):
    # single-term formula: theta~ applied to the lift of f
    rng = np.random.default_rng(8)
    f = parse("x1^2*x2", 2)
    eta = AForm(dual, CHART, 0, ((lifted_function(f, dual, CHART), ()),))
    theta = VectorField((parse("x2", 2), parse("x1", 2)))
    for _ in range(10):
        xi = random_near_point(rng, dual, CHART)
        out = palais_eval(eta, [theta], xi)
        expected = lift(theta.apply(f), xi)
        assert (out - expected).max_abs() <= 1e-10


def test_palais_matches_coefficient_route(plane_jet):
    rng = np.random.default_rng(9)
    eta = prolong_form(form(2, 1, {(0,): parse("x2", 2)}), plane_jet, CHART)
    deta = exterior_derivative(eta)
    thetas = [
        VectorField((Const(1.0), Const(0.0))),
        VectorField((Const(0.0), Const(1.0))),
    ]
    lifted = [prolong(t, plane_jet, CHART) for t in thetas]
    for _ in range(20):
        xi = random_near_point(rng, plane_jet, CHART)
        assert (palais_eval(eta, thetas, xi) - deta.evaluate(lifted, xi)).max_abs() <= 1e-9


def test_palais_constant_coefficients_on_coordinates(plane_jet):
    # with constant coefficients and coordinate fields the bracket terms vanish
    eta = prolong_form(form(2, 1, {(0,): Const(2.0), (1,): Const(-1.0)}), plane_jet, CHART)
    thetas = [
        VectorField((Const(1.0), Const(0.0))),
        VectorField((Const(0.0), Const(1.0))),
    ]
    xi = random_near_point(np.random.default_rng(10), plane_jet, CHART)
    assert palais_eval(eta, thetas, xi).max_abs() <= 1e-12


def test_exterior_operator_three_dimensional(dual, plane_jet):
    # module invariants run up to n = 3
    from npk.checks import check_identity

    chart3 = Chart.cube(3)
    for algebra in (dual, plane_jet):
        for name in ("da-squared-zero", "da-naturality", "palais-route"):
            record = check_identity(name, algebra, chart3, seed=31, samples=30, tol=1e-9)
            assert record.passed, f"{name}: {record.max_residual:.3e}"


def test_block_evaluation_matches_single_points_bit_for_bit(catalog):
    rng = np.random.default_rng(15)
    chart = Chart.cube(3)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        for degree, size in ((1, 1), (2, 3), (3, 5), (2, 10)):
            terms = [(random_function(rng, algebra, chart, max_terms=2), idx)
                     for idx in itertools.combinations(range(3), degree)]
            eta = AForm(algebra, chart, degree, tuple(terms))
            fields = [random_field(rng, algebra, chart) for _ in range(degree)]
            points = [random_near_point(rng, algebra, chart) for _ in range(size)]
            block = NearPoints.stack(points)
            got = eta.evaluate(fields, block)
            assert got.shape == (algebra.dim, size)
            expected = np.stack([eta.evaluate(fields, xi).coeffs for xi in points], axis=-1)
            assert np.array_equal(got, expected, equal_nan=True)
            lifted = AForm(algebra, chart, degree - 1, tuple(
                (random_lifted_function(rng, algebra, chart), idx)
                for idx in itertools.combinations(range(3), degree - 1)))
            thetas = [random_base_field(rng, chart) for _ in range(degree)]
            got = palais_eval(lifted, thetas, block)
            expected = np.stack([palais_eval(lifted, thetas, xi).coeffs for xi in points], axis=-1)
            assert np.array_equal(got, expected, equal_nan=True)


def test_arity_and_degree_errors(dual):
    eta = prolong_form(form(2, 1, {(0,): Const(1.0)}), dual, CHART)
    with pytest.raises(ArityMismatch):
        eta.evaluate([], random_near_point(np.random.default_rng(11), dual, CHART))
    area = prolong_form(form(2, 2, {(0, 1): Const(1.0)}), dual, CHART)
    with pytest.raises(DegreeOverflow):
        exterior_derivative(area)
    with pytest.raises(ArityMismatch):
        palais_eval(eta, [], random_near_point(np.random.default_rng(12), dual, CHART))


# -- one canonicalization per operation reproduces the pairwise fold --------------

SIX_DIM = "R[x,y]/(x^3,x^2*y,x*y^2,y^3)"


def _fold_merge(terms):
    """Reference AForm merge: merged[idx] = merged[idx] + phi, one sum per repeat."""
    merged = {}
    for phi, idx in terms:
        merged[idx] = merged[idx] + phi if idx in merged else phi
    return [(phi, idx) for idx, phi in sorted(merged.items()) if not phi.is_structurally_zero()]


def _fold_contract(eta, fields):
    """Reference contraction: determinant and result summed one product at a time."""
    out = AFunction.zero(eta.algebra, eta.chart)
    for phi, idx in eta.terms:
        det = AFunction.zero(eta.algebra, eta.chart)
        for perm in itertools.permutations(range(eta.degree)):
            sign = float(_perm_sign(perm))
            prod = AFunction.constant(eta.algebra.scalar(sign), eta.chart)
            for row, col in enumerate(perm):
                prod = prod * fields[row].components[idx[col]]
            det = det + prod
        out = out + phi * det
    return out


def _fold_to_aform(comb, chart):
    """Reference ACombination.to_aform: out = out + a * prolong_form(omega), merged per step."""
    out = []
    for a, omega in comb.terms:
        out = _fold_merge(out + list(prolong_form(omega, comb.algebra, chart).scale_const(a).terms))
    return out


def _terms_equal(phi, psi):
    def keys(f):
        return [tuple(g.key for g in mono) for _, mono in f.terms]

    return keys(phi) == keys(psi) and all(
        np.array_equal(a.coeffs, b.coeffs) for (a, _), (b, _) in zip(phi.terms, psi.terms)
    )


def _form_terms_equal(eta, reference):
    return [idx for _, idx in eta.terms] == [idx for _, idx in reference] and all(
        _terms_equal(phi, psi) for (phi, _), (psi, _) in zip(eta.terms, reference)
    )


@pytest.mark.parametrize("presentation", ["R[x]/(x^2)", SIX_DIM])
def test_form_sums_and_contraction_match_pairwise_fold(presentation):
    algebra = build_algebra(parse_presentation(presentation))
    chart = Chart.cube(3)
    rng = np.random.default_rng(40)
    for degree in (1, 2, 3, 1, 2, 3):
        terms = []
        for idx in itertools.combinations(range(3), degree):
            count = int(rng.integers(1, 4))
            phis = [random_function(rng, algebra, chart, max_terms=3) for _ in range(count)]
            if rng.uniform() < 0.3:
                phis = [phis[0], -phis[0]]  # repeats that cancel: the index must drop out
            terms.extend((phi, idx) for phi in phis)
        eta = AForm(algebra, chart, degree, tuple(terms))
        assert _form_terms_equal(eta, _fold_merge(terms))

        fields = [
            random_field(rng, algebra, chart) if k % 2 else random_lifted_field(rng, algebra, chart)
            for k in range(degree)
        ]
        assert _terms_equal(eta.contract(fields), _fold_contract(eta, fields))

        summands = tuple(
            (random_a_element(rng, algebra), random_base_form(rng, chart, degree)) for _ in range(3)
        )
        comb = ACombination(algebra, 3, degree, summands)
        assert _form_terms_equal(comb.to_aform(chart), _fold_to_aform(comb, chart))


# -- on_values against every product in A, kept as its reference ------------------------------


def _on_values_by_products(eta, values, xi, coefficients):
    """eta(X_1..X_p) at xi with each permutation's product started from the A-element sign * 1."""
    mul, shape = eta.algebra.mul_coeffs, xi.values[0].shape
    acc = np.zeros(shape)
    for (_, idx), coefficient in zip(eta.terms, coefficients):
        det = np.zeros(shape)
        for perm in itertools.permutations(range(eta.degree)):
            prod = np.zeros(shape)
            prod[0] = float(_perm_sign(perm))
            for row, col in enumerate(perm):
                prod = mul(prod, values[row][idx[col]])
            det = det + prod
        acc = acc + mul(coefficient, det)
    return acc


def _signed(rng, shape):
    """Uniform values with some entries +0.0 and some -0.0."""
    v = rng.uniform(-1.0, 1.0, shape)
    v[rng.random(shape) < 0.2] = 0.0
    v[rng.random(shape) < 0.2] = -0.0
    return v


def test_on_values_matches_the_product_route_byte_for_byte(catalog):
    rng = np.random.default_rng(71)
    chart = Chart.cube(3)
    for algebra in [*catalog, build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]:
        unit = AFunction.constant(algebra.unit(), chart)
        for degree in range(4):
            eta = AForm(algebra, chart, degree, tuple((unit, idx) for idx in itertools.combinations(range(3), degree)))
            for size in (1, 5, 10):
                block = random_near_points(rng, algebra, chart, size)
                for xi in (block.points()[0], block):
                    shape = xi.values[0].shape
                    values = [[_signed(rng, shape) for _ in range(3)] for _ in range(degree)]
                    coefficients = [_signed(rng, shape) for _ in eta.terms]
                    got = eta.on_values(values, xi, coefficients)
                    assert got.tobytes() == _on_values_by_products(eta, values, xi, coefficients).tobytes()
