import itertools

import numpy as np
import pytest

from npk.expr import Const, Var, VectorField, diff, lie_bracket, parse
from npk.fields import (
    AVectorField,
    bracket,
    from_derivation,
    prolong,
)
from npk.functions import AFunction, ScalarGenerator, coordinate_derive, lifted_function
from npk.points import Chart, NearPoint, NearPoints
from npk.sampling import (
    random_a_element,
    random_derivation,
    random_expr,
    random_field,
    random_function,
    random_lifted_field,
    random_lifted_function,
    random_near_point,
    random_near_points,
)
from npk.weil import AlgebraMismatch, build_algebra, derivation_basis, parse_presentation
from npk.checks import check_identity, UnknownIdentity
from oracles import dual_projection

CHART = Chart.cube(2)


def _coordinate(algebra, i):
    """The prolongation of d/dx_i on CHART."""
    return prolong(VectorField(tuple(Const(float(j == i)) for j in range(CHART.n))), algebra, CHART)


def _field_residual(x, y, points):
    return max(
        (cx.evaluate(xi) - cy.evaluate(xi)).max_abs()
        for xi in points
        for cx, cy in zip(x.components, y.components)
    )


def test_apply_coordinate_field(plane_jet):
    x = _coordinate(plane_jet, 0)
    f = parse("x1^2 + x2", 2)
    out = x.apply(f)
    expected = lifted_function(parse("2*x1", 2), plane_jet, CHART)
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = random_near_point(rng, plane_jet, CHART)
        assert (out.evaluate(xi) - expected.evaluate(xi)).max_abs() <= 1e-12


def test_apply_constant_is_zero(plane_jet):
    rng = np.random.default_rng(1)
    x = random_field(rng, plane_jet, CHART)
    assert x.apply(Const(4.2)).is_structurally_zero()


def test_apply_chain_rule_example(dual):
    # X with c1 = lift(x2): X(x1^2) evaluates to 2 xi(x1) xi(x2)
    c1 = lifted_function(parse("x2", 2), dual, CHART)
    x = AVectorField(dual, CHART, (c1, AFunction.zero(dual, CHART)))
    rng = np.random.default_rng(2)
    for _ in range(10):
        xi = random_near_point(rng, dual, CHART)
        out = x.apply(parse("x1^2", 2)).evaluate(xi)
        expected = 2.0 * xi.coords[0] * xi.coords[1]
        assert (out - expected).max_abs() <= 1e-12


def test_apply_derivation_law(catalog):
    from npk.points import lift
    from npk.sampling import random_expr

    rng = np.random.default_rng(3)
    for algebra in catalog:
        x = random_field(rng, algebra, CHART)
        f, g = random_expr(rng, 2), random_expr(rng, 2)
        lhs = x.apply(f * g)
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            rhs = x.apply(f).evaluate(xi) * lift(g, xi) + lift(f, xi) * x.apply(g).evaluate(xi)
            assert (lhs.evaluate(xi) - rhs).max_abs() <= 1e-9


def test_extension_on_constants(plane_jet):
    rng = np.random.default_rng(4)
    x = random_field(rng, plane_jet, CHART)
    a = random_a_element(rng, plane_jet)
    assert x.apply_fn(AFunction.constant(a, CHART)).is_structurally_zero()


def test_extension_on_lift(catalog):
    from npk.sampling import random_expr

    rng = np.random.default_rng(5)
    for algebra in catalog:
        x = random_field(rng, algebra, CHART)
        f = random_expr(rng, 2)
        lhs = x.apply_fn(lifted_function(f, algebra, CHART))
        rhs = x.apply(f)
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert (lhs.evaluate(xi) - rhs.evaluate(xi)).max_abs() <= 1e-9


def test_extension_leibniz(catalog):
    rng = np.random.default_rng(6)
    for algebra in catalog:
        x = random_field(rng, algebra, CHART)
        phi = random_function(rng, algebra, CHART)
        psi = random_function(rng, algebra, CHART)
        lhs = x.apply_fn(phi * psi)
        rhs = x.apply_fn(phi) * psi + phi * x.apply_fn(psi)
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert (lhs.evaluate(xi) - rhs.evaluate(xi)).max_abs() <= 1e-9


def test_extension_gamma_product_leibniz(dual):
    # coordinate prolongation on a product of two lifted coordinates
    x = _coordinate(dual, 0)
    phi = lifted_function(parse("x1", 2), dual, CHART) * lifted_function(parse("x2", 2), dual, CHART)
    out = x.apply_fn(phi)
    expected = lifted_function(parse("x2", 2), dual, CHART)
    rng = np.random.default_rng(7)
    for _ in range(10):
        xi = random_near_point(rng, dual, CHART)
        assert (out.evaluate(xi) - expected.evaluate(xi)).max_abs() <= 1e-12


def test_coordinate_derive_matches_general_extension(catalog):
    # the direct d/dx_i^A route and apply_fn of the prolonged coordinate field act as oracles for each other
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    rng = np.random.default_rng(16)
    polynomials = (Var(0), Var(1), parse("x1*x2", 2))
    for algebra in algebras:
        # polynomial generators have constant derivatives (kept at slot 0, dropped elsewhere); slots run over 0..dim-1
        gens = [ScalarGenerator(alpha, g) for alpha in range(algebra.dim) for g in polynomials]
        polynomial = AFunction(algebra, CHART, [
            (random_a_element(rng, algebra), tuple(gens[k] for k in rng.choice(len(gens), size=int(rng.integers(1, 4)))))
            for _ in range(6)
        ])
        phi = random_function(rng, algebra, CHART, max_terms=4, max_monomial=3, transcendental=True)
        points = random_near_points(rng, algebra, CHART, 6).points()
        block = NearPoints.stack(points[1:])
        for f in (phi, polynomial, phi * polynomial, polynomial + random_lifted_function(rng, algebra, CHART, factors=2)):
            for i in range(CHART.n):
                direct = coordinate_derive(f, i)
                general = _coordinate(algebra, i).apply_fn(f)
                assert [[g.key for g in m] for m in direct.monos] == [[g.key for g in m] for m in general.monos]
                assert direct.coeffs.tobytes() == general.coeffs.tobytes()  # one fold: every row ends in + 0.0
                assert direct.evaluate(points[0]).coeffs.tobytes() == general.evaluate(points[0]).coeffs.tobytes()
                assert direct.evaluate(block).tobytes() == general.evaluate(block).tobytes()


def test_bracket_coordinates_commute(plane_jet):
    x = _coordinate(plane_jet, 0)
    y = _coordinate(plane_jet, 1)
    out = bracket(x, y)
    assert all(c.is_structurally_zero() for c in out.components)


def test_bracket_alternating(catalog):
    rng = np.random.default_rng(8)
    for algebra in catalog:
        x = random_field(rng, algebra, CHART)
        zero = bracket(x, x)
        points = [random_near_point(rng, algebra, CHART) for _ in range(5)]
        assert _field_residual(zero, AVectorField.zero(algebra, CHART), points) <= 1e-12


def test_bracket_prolongation_law(catalog):
    rng = np.random.default_rng(9)
    t1 = VectorField((parse("x1*x2", 2), parse("x2", 2)))
    t2 = VectorField((parse("x1", 2), parse("x1 + x2", 2)))
    base = lie_bracket(t1, t2)
    for algebra in catalog:
        lhs = bracket(prolong(t1, algebra, CHART), prolong(t2, algebra, CHART))
        rhs = prolong(base, algebra, CHART)
        points = [random_near_point(rng, algebra, CHART) for _ in range(5)]
        assert _field_residual(lhs, rhs, points) <= 1e-9


def test_bracket_morphism_property(catalog):
    # extension of the bracket acts as the commutator of the extensions
    rng = np.random.default_rng(10)
    for algebra in catalog:
        x = random_field(rng, algebra, CHART)
        y = random_field(rng, algebra, CHART)
        phi = random_function(rng, algebra, CHART)
        lhs = bracket(x, y).apply_fn(phi)
        rhs = x.apply_fn(y.apply_fn(phi)) - y.apply_fn(x.apply_fn(phi))
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert (lhs.evaluate(xi) - rhs.evaluate(xi)).max_abs() <= 1e-8


def test_module_laws_on_lifted_fields(plane_jet):
    rng = np.random.default_rng(11)
    points = [random_near_point(rng, plane_jet, CHART) for _ in range(5)]
    for _ in range(5):
        x = random_lifted_field(rng, plane_jet, CHART, decorate=True)
        y = random_lifted_field(rng, plane_jet, CHART)
        a = random_a_element(rng, plane_jet)
        assert _field_residual(bracket(x.scale(a), y), bracket(x, y).scale(a), points) <= 1e-9
        assert _field_residual(bracket(x, y.scale(a)), bracket(x, y).scale(a), points) <= 1e-9


def test_prolongation_components(dual):
    theta = VectorField((Const(1.0), Const(0.0)))
    x = prolong(theta, dual, CHART)
    xi = random_near_point(np.random.default_rng(12), dual, CHART)
    assert np.array_equal(x.components[0].evaluate(xi).coeffs, dual.unit().coeffs)
    assert x.components[1].is_structurally_zero()


def test_from_derivation_dual(dual):
    # d = (x -> x): at a + b eps the component evaluates to -b eps
    (d,) = derivation_basis(dual)
    sign = d.matrix[1, 1]  # basis vector may come scaled; normalize in the check
    field = from_derivation(d, Chart.cube(1))
    a, b = 0.25, 1.5
    xi = NearPoint(dual, Chart.cube(1), [dual.element([a, b])])
    out = field.components[0].evaluate(xi)
    assert np.allclose(out.coeffs, [0.0, -sign * b])


def test_from_derivation_jet3(jet3):
    # d with x -> x^2: at a + t the component evaluates to -t^2
    import numpy as np
    from npk.weil import Derivation, LinearEndo

    m = np.zeros((3, 3))
    m[:, 1] = [0.0, 0.0, 1.0]  # d(t) = t^2
    m[:, 2] = [0.0, 0.0, 0.0]  # forced: d(t^2) = 2 t d(t) = 2 t^3 = 0
    d = Derivation(LinearEndo(jet3, m))
    field = from_derivation(d, Chart.cube(1))
    xi = NearPoint(jet3, Chart.cube(1), [jet3.element([0.3, 1.0, 0.0])])
    out = field.components[0].evaluate(xi)
    assert np.allclose(out.coeffs, [0.0, 0.0, -1.0])


def test_from_derivation_zero(dual):
    import numpy as np
    from npk.weil import Derivation, LinearEndo

    zero = Derivation(LinearEndo(dual, np.zeros((2, 2))))
    field = from_derivation(zero, CHART)
    assert all(c.is_structurally_zero() for c in field.components)


def test_dstar_commutes_with_prolongation_worked_example(dual):
    # theta = x1 d/dx2, d the generator of Der(dual numbers): bracket vanishes
    import numpy as np
    from npk.weil import Derivation, LinearEndo

    d = Derivation(LinearEndo(dual, np.array([[0.0, 0.0], [0.0, 1.0]])))
    theta = VectorField((Const(0.0), parse("x1", 2)))
    z = bracket(from_derivation(d, CHART), prolong(theta, dual, CHART))
    rng = np.random.default_rng(20)
    for _ in range(10):
        xi = random_near_point(rng, dual, CHART)
        assert max(c.evaluate(xi).max_abs() for c in z.components) == 0.0


def test_check_identity_api(dual):
    record = check_identity("jacobi", dual, CHART, seed=5, samples=10)
    assert record.passed and record.samples == 10
    with pytest.raises(UnknownIdentity):
        check_identity("not-an-identity", dual, CHART)


def test_check_identity_tol_zero_fails(dual):
    record = check_identity("tangent-leibniz", dual, CHART, seed=5, samples=10, tol=0.0)
    assert not record.passed


def test_field_mismatch(dual, jet3):
    x = AVectorField.zero(dual, CHART)
    y = AVectorField.zero(jet3, CHART)
    with pytest.raises(AlgebraMismatch):
        bracket(x, y)


# -- one canonicalization per operation reproduces the pairwise fold --------------

SIX_DIM = "R[x,y]/(x^3,x^2*y,x*y^2,y^3)"


def _fold_apply(x, f):
    """Reference X(f): out = out + lift(d_i f) * c_i, re-canonicalized per component."""
    out = AFunction.zero(x.algebra, x.chart)
    for i, c in enumerate(x.components):
        df = diff(f, i)
        if isinstance(df, Const) and df.value == 0.0:
            continue
        out = out + lifted_function(df, x.algebra, x.chart) * c
    return out


def _fold_apply_fn(x, phi):
    """Reference extension on a non-coordinate field: one sum per generator occurrence."""
    out = AFunction.zero(x.algebra, x.chart)
    for coeff, mono in phi.terms:
        for j, gen in enumerate(mono):
            rest = AFunction(x.algebra, x.chart, [(coeff, mono[:j] + mono[j + 1:])])
            out = out + rest * dual_projection(_fold_apply(x, gen.fn), gen.alpha)
    return out


def _terms_equal(phi, psi):
    def keys(f):
        return [tuple(g.key for g in mono) for _, mono in f.terms]

    return keys(phi) == keys(psi) and all(
        np.array_equal(a.coeffs, b.coeffs) for (a, _), (b, _) in zip(phi.terms, psi.terms)
    )


@pytest.mark.parametrize("presentation", ["R[x]/(x^2)", SIX_DIM])
def test_apply_and_extension_match_pairwise_fold(presentation):
    algebra = build_algebra(parse_presentation(presentation))
    chart = Chart.cube(3)
    rng = np.random.default_rng(30)
    for _ in range(3):
        fields = [
            random_field(rng, algebra, chart),
            random_lifted_field(rng, algebra, chart, decorate=True),
            from_derivation(random_derivation(rng, algebra), chart),
        ]
        f = random_expr(rng, chart.n)
        phis = [
            random_function(rng, algebra, chart, max_terms=3),
            random_lifted_function(rng, algebra, chart),
            fields[1].components[0],
        ]
        for x in fields:
            assert _terms_equal(x.apply(f), _fold_apply(x, f))
            for phi in phis:
                assert _terms_equal(x.apply_fn(phi), _fold_apply_fn(x, phi))


def test_extension_builds_a_fixed_number_of_functions(dual, monkeypatch):
    # over a fixed generator set, AFunction constructions must not grow with the term count
    rng = np.random.default_rng(31)
    x = random_field(rng, dual, CHART)
    gens = [ScalarGenerator(alpha, parse(g, 2)) for g in ("x1*x2", "x1 + x2") for alpha in range(2)]
    monos = [m for k in (1, 2, 3) for m in itertools.combinations_with_replacement(gens, k)]
    phis = [
        AFunction(dual, CHART, [(random_a_element(rng, dual), m) for m in monos[:t]])
        for t in (4, 12, 30)
    ]
    assert [len(phi.terms) for phi in phis] == [4, 12, 30]
    built = []
    init = AFunction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AFunction, "__init__", counting_init)
    counts = []
    for phi in phis:
        built.clear()
        x.apply_fn(phi)
        counts.append(len(built))
    assert counts[0] == counts[1] == counts[2]
