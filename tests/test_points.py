import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npk.expr import (
    ONE,
    Add,
    Call,
    Const,
    Div,
    DomainError,
    Expr,
    Mul,
    Neg,
    Polynomial,
    Pow,
    Sub,
    UnknownVariable,
    Var,
    const,
    constant_exponent,
    diff,
    evaluate,
    expr_key,
    mul,
    parse,
    series,
    unparse,
)
from npk.weil import build_algebra, parse_presentation

_DUAL_JET = build_algebra(parse_presentation("R[x,y]/(x^3,x^2*y,x*y^2,y^3)"))
from npk.points import (
    BasePointOutsideTarget,
    Chart,
    NearPoint,
    NearPoints,
    TangentVector,
    lift,
    lift_map,
)
from npk.sampling import random_chart_expr, random_expr, random_near_point, random_near_points
from npk.weil import AElement, AlgebraMismatch, WeilAlgebra


def test_chart_parse_and_text():
    c = Chart.parse("box:[-1,1]^3")
    assert c.n == 3 and c.kind == "box"
    assert c.text() == "box:[-1,1]^3"
    assert Chart.parse("circle").kind == "circle"
    with pytest.raises(ValueError):
        Chart.parse("torus")


def test_chart_contains():
    c = Chart.cube(2)
    assert c.contains([0.0, 0.5])
    assert not c.contains([1.0, 0.0])  # boundary excluded
    assert Chart.circle().contains([7.5])


def test_near_point_validation(dual):
    chart = Chart.cube(1)
    with pytest.raises(ValueError):
        NearPoint(dual, chart, [dual.element([2.0, 1.0])])  # base outside box
    jet = Chart.cube(2)
    with pytest.raises(ValueError):
        NearPoint(dual, jet, [dual.element([0.0, 1.0])])  # wrong arity


def test_near_point_json_roundtrip(dual):
    chart = Chart.cube(2)
    xi = NearPoint(dual, chart, [dual.element([0.5, 1.0]), dual.element([-0.25, 2.0])])
    text = xi.to_json()
    assert text == "[[0.5, 1.0], [-0.25, 2.0]]"
    back = NearPoint.from_json(text, dual, chart)
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(xi.coords, back.coords))


def test_lift_dual_square(dual):
    xi = NearPoint(dual, Chart.cube(1), [dual.element([0.5, 2.0])])
    out = lift(parse("x1^2", 1), xi)
    assert np.allclose(out.coeffs, [0.25, 2.0])  # a^2 + 2ab eps


def test_lift_constant(catalog):
    for algebra in catalog:
        xi = random_near_point(np.random.default_rng(0), algebra, Chart.cube(1))
        out = lift(Const(3.5), xi)
        expected = np.zeros(algebra.dim)
        expected[0] = 3.5
        assert np.array_equal(out.coeffs, expected)


def test_lift_sin_taylor(jet3):
    # symbolic Taylor oracle to order two: sin(a + t) with t^3 = 0
    a = 0.37
    xi = NearPoint(jet3, Chart.cube(1), [jet3.element([a, 1.0, 0.0])])
    out = lift(parse("sin(x1)", 1), xi)
    assert np.allclose(out.coeffs, [math.sin(a), math.cos(a), -math.sin(a) / 2.0], atol=1e-15)


def test_lift_homomorphism_suite(catalog):
    rng = np.random.default_rng(21)
    chart = Chart.cube(2)
    for algebra in catalog:
        for _ in range(25):
            f, g = random_expr(rng, 2), random_expr(rng, 2)
            xi = random_near_point(rng, algebra, chart)
            lf, lg = lift(f, xi), lift(g, xi)
            assert (lift(f + g, xi) - (lf + lg)).max_abs() <= 1e-9
            assert (lift(f * g, xi) - lf * lg).max_abs() <= 1e-9
            lam = float(rng.uniform(-2, 2))
            assert (lift(Const(lam) * f, xi) - lam * lf).max_abs() <= 1e-9


def test_lift_base_point_naturality(catalog):
    from npk.expr import evaluate

    rng = np.random.default_rng(22)
    chart = Chart.cube(2)
    for algebra in catalog:
        for _ in range(10):
            f = random_expr(rng, 2)
            xi = random_near_point(rng, algebra, chart)
            assert lift(f, xi).augmentation == pytest.approx(
                evaluate(f, xi.base()), abs=1e-12
            )


def test_lift_dual_forward_ad(dual):
    from npk.expr import diff, evaluate

    rng = np.random.default_rng(23)
    chart = Chart.cube(1)
    for _ in range(50):
        f = random_expr(rng, 1)
        a, b = float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-2, 2))
        xi = NearPoint(dual, chart, [dual.element([a, b])])
        expected = dual.element([evaluate(f, [a]), evaluate(diff(f, 0), [a]) * b])
        assert (lift(f, xi) - expected).max_abs() <= 1e-10


def test_lift_map_identity(plane_jet):
    chart = Chart.cube(2)
    xi = random_near_point(np.random.default_rng(1), plane_jet, chart)
    out = lift_map([parse("x1", 2), parse("x2", 2)], xi, chart)
    for a, b in zip(out.coords, xi.coords):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_lift_map_functoriality(plane_jet):
    # h = (x1 + x2, x1*x2), phi = y1*y2: lift(phi . h) = lift(phi) at image
    chart = Chart.cube(2)
    wide = Chart.box([(-math.inf, math.inf)] * 2)
    rng = np.random.default_rng(2)
    h = [parse("x1 + x2", 2), parse("x1*x2", 2)]
    composed = parse("(x1 + x2)*(x1*x2)", 2)
    phi = parse("x1*x2", 2)
    for _ in range(20):
        xi = random_near_point(rng, plane_jet, chart)
        image = lift_map(h, xi, wide)
        assert (lift(composed, xi) - lift(phi, image)).max_abs() <= 1e-9


def test_lift_map_target_check(dual):
    xi = NearPoint(dual, Chart.cube(1), [dual.element([0.5, 1.0])])
    with pytest.raises(BasePointOutsideTarget):
        lift_map([parse("x1 + 10", 1)], xi, Chart.cube(1))


def test_tangent_vector_examples(dual):
    chart = Chart.cube(1)
    a, b = 0.5, 2.0
    xi = NearPoint(dual, chart, [dual.element([a, b])])
    v = TangentVector(xi, (dual.basis_element(1),))  # u = eps
    # v(x1^2) = 2(a + b eps) eps = 2a eps
    out = v.apply(parse("x1^2", 1))
    assert np.allclose(out.coeffs, [0.0, 2.0 * a])
    assert v.apply(Const(7.0)).max_abs() == 0.0
    unit = TangentVector(xi, (dual.unit(),))
    assert np.allclose(unit.apply(parse("x1", 1)).coeffs, [1.0, 0.0])


def test_tangent_vector_leibniz(catalog):
    from npk.sampling import random_tangent_vector

    rng = np.random.default_rng(24)
    chart = Chart.cube(2)
    for algebra in catalog:
        for _ in range(20):
            v = random_tangent_vector(rng, algebra, chart)
            f, g = random_expr(rng, 2), random_expr(rng, 2)
            lhs = v.apply(f * g)
            rhs = v.apply(f) * lift(g, v.at) + lift(f, v.at) * v.apply(g)
            assert (lhs - rhs).max_abs() <= 1e-9


def test_tangent_vector_algebra_mismatch(dual, jet3):
    xi = NearPoint(dual, Chart.cube(1), [dual.element([0.0, 1.0])])
    with pytest.raises(AlgebraMismatch):
        TangentVector(xi, (jet3.unit(),))


@st.composite
def _poly_pairs(draw):
    from npk.expr import Const, Var, add, mul, power

    def poly():
        out = Const(float(draw(st.integers(-3, 3))))
        for _ in range(draw(st.integers(1, 3))):
            term = Const(float(draw(st.integers(-2, 2))))
            for _ in range(draw(st.integers(0, 2))):
                term = mul(term, Var(draw(st.integers(0, 1))))
            out = add(out, term)
        return out

    return poly(), poly()


@given(_poly_pairs(), st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2))
def test_lift_hypothesis_homomorphism(pair, base):
    from hypothesis import assume
    import numpy as _np

    f, g = pair
    assume(all(_np.isfinite(b) for b in base))
    algebra = _DUAL_JET
    chart = Chart.cube(2)
    coords = [
        algebra.element([b] + [0.25 * (i + 1)] * (algebra.dim - 1))
        for i, b in enumerate(base)
    ]
    xi = NearPoint(algebra, chart, coords)
    assert (lift(f * g, xi) - lift(f, xi) * lift(g, xi)).max_abs() <= 1e-9
    assert (lift(f + g, xi) - (lift(f, xi) + lift(g, xi))).max_abs() <= 1e-9


def test_lift_memo_matches_a_fresh_point():
    rng = np.random.default_rng(8)
    chart = Chart.cube(2)
    for _ in range(10):
        f = random_expr(rng, 2)
        xi = random_near_point(rng, _DUAL_JET, chart)
        first = lift(f, xi)
        assert lift(f, xi) is first  # memoized on the point
        fresh = NearPoint(_DUAL_JET, chart, xi.coords)
        assert np.array_equal(lift(f, fresh).coeffs, first.coeffs)


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


def test_field_and_form_at_one_point_share_lifts():
    # one expansion per distinct expression, however many objects are evaluated at xi
    from npk.fields import prolong
    from npk.forms import prolong_form
    from npk.sampling import random_base_field, random_base_form

    rng = np.random.default_rng(9)
    chart = Chart.cube(2)
    fields = [prolong(random_base_field(rng, chart), _DUAL_JET, chart) for _ in range(2)]
    eta = prolong_form(random_base_form(rng, chart, 2), _DUAL_JET, chart)
    xi = random_near_point(rng, _DUAL_JET, chart)
    functions = [c for x in fields for c in x.components] + [phi for phi, _ in eta.terms]
    distinct = {id(g.fn) for phi in functions for _, mono in phi.terms for g in mono}
    xi._lifts = expansions = _CountingDict()  # lift stores once per memo miss
    for x in fields:
        x.evaluate(xi)
    eta.evaluate(fields, xi)
    assert distinct and expansions.stores == len(expansions) == len(distinct)
    assert set(expansions) == distinct


# -- a block of near points against the stacked single points -------------------------------

BLOCK_SIZES = (1, 3, 5, 10)
_DIM27 = build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))


def _stacked(values):
    """The (dim, N) block layout of per-point values: column j is values[j]."""
    return np.stack([v.coeffs for v in values], axis=-1)


def test_block_lift_matches_single_points_bit_for_bit(catalog):
    rng = np.random.default_rng(41)
    chart = Chart.cube(3)
    for algebra in [*catalog, _DIM27]:
        for size in BLOCK_SIZES:
            points = [random_near_point(rng, algebra, chart) for _ in range(size)]
            block = NearPoints.stack(points)
            assert block.values.shape[2] == size
            fs = [random_expr(rng, 3) for _ in range(2 if algebra.dim > 20 else 6)]
            fs += [parse("(x1 + 2)^x2 + 1/(x3 + 2) - sqrt(x1 + 2)", 3), Const(1.5), parse("x2", 3)]
            for f in fs:
                got = lift(f, block)
                assert got.shape == (algebra.dim, size)
                assert np.array_equal(got, _stacked([lift(f, xi) for xi in points]), equal_nan=True)


def test_block_lift_map_matches_single_points(plane_jet):
    rng = np.random.default_rng(42)
    chart, wide = Chart.cube(2), Chart.box([(-math.inf, math.inf)] * 2)
    h = [parse("x1 + x2", 2), parse("x1*x2", 2)]
    points = [random_near_point(rng, plane_jet, chart) for _ in range(5)]
    image = lift_map(h, NearPoints.stack(points), wide)
    for i in range(2):
        assert np.array_equal(image.values[i], _stacked([lift_map(h, xi, wide).coords[i] for xi in points]))
    with pytest.raises(BasePointOutsideTarget):
        lift_map([parse("x1 + 10", 2), parse("x2", 2)], NearPoints.stack(points), chart)


def _built_alike(p, q) -> bool:
    """Two points or blocks with one class, algebra, chart and layout, equal values and empty lift memos."""
    values = [np.asarray(v) for v in (p.values, q.values)]
    return (type(p) is type(q) and p.algebra == q.algebra and p.chart == q.chart and not p._lifts and not q._lifts
            and all(v.flags.c_contiguous for v in values) and values[0].tobytes() == values[1].tobytes()
            and (isinstance(p, NearPoint) or not (p.values.flags.writeable or q.values.flags.writeable)))


def test_unchecked_points_are_built_as_the_checked_constructors_build_them(plane_jet):
    rng = np.random.default_rng(44)
    chart, wide = Chart.cube(2), Chart.box([(-math.inf, math.inf)] * 2)
    h = [parse("x1 + sin(x2)", 2), parse("x1*x2", 2)]
    block = random_near_points(rng, plane_jet, chart, 5)
    for j, point in enumerate(block.points()):
        assert _built_alike(point, NearPoint(plane_jet, chart, [AElement(plane_jet, v[:, j].copy()) for v in block.values]))
        assert all(c.coeffs.flags.writeable and c.coeffs.base is None for c in point.coords)  # fresh copies
        image = lift_map(h, point, wide)
        assert _built_alike(image, NearPoint(plane_jet, wide, [lift(hj, point) for hj in h]))
    image = lift_map(h, block, wide)
    assert _built_alike(image, NearPoints(plane_jet, wide, [lift(hj, block) for hj in h]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coordinate_stays_in_its_column(catalog, bad):
    rng = np.random.default_rng(43)
    chart = Chart.cube(2)
    f = parse("x1*x2 + exp(x1)*x2^2 - 3*x1", 2)
    for algebra in catalog[1:]:  # a non-finite nilpotent part needs dim > 1
        points = [random_near_point(rng, algebra, chart) for _ in range(5)]
        coords = list(points[2].coords)
        coords[1] = algebra.element([coords[1].augmentation, bad] + [0.0] * (algebra.dim - 2))
        points[2] = NearPoint(algebra, chart, coords)
        with np.errstate(invalid="ignore"):
            got = lift(f, NearPoints.stack(points))
            expected = _stacked([lift(f, xi) for xi in points])
        assert np.array_equal(got, expected, equal_nan=True)
        assert not np.all(np.isfinite(got[:, 2]))
        assert np.all(np.isfinite(np.delete(got, 2, axis=1)))


@pytest.mark.parametrize("text, error", [("log(x1)", DomainError), ("1/x1", DomainError), ("x1 + x3", UnknownVariable)])
def test_block_raises_like_the_per_point_loop(dual, text, error):
    chart = Chart.box([(-math.inf, math.inf)] * 2)
    f = parse(text, 3)
    bases = [0.5, -0.25, 0.0, 0.75] if error is DomainError else [0.5, 0.25]
    points = [NearPoint(dual, chart, [dual.element([b, 1.0]), dual.element([b, 2.0])]) for b in bases]
    with pytest.raises(error):
        for xi in points:
            lift(f, xi)
    with pytest.raises(error):
        lift(f, NearPoints.stack(points))


def test_block_memo_is_shared_and_freed_with_the_block():
    import gc
    import weakref

    from npk.fields import prolong
    from npk.forms import prolong_form
    from npk.sampling import random_base_field, random_base_form

    rng = np.random.default_rng(44)
    chart = Chart.cube(2)
    fields = [prolong(random_base_field(rng, chart), _DUAL_JET, chart) for _ in range(2)]
    eta = prolong_form(random_base_form(rng, chart, 2), _DUAL_JET, chart)
    block = NearPoints.stack([random_near_point(rng, _DUAL_JET, chart) for _ in range(5)])
    functions = [c for x in fields for c in x.components] + [phi for phi, _ in eta.terms]
    distinct = {id(g.fn) for phi in functions for _, mono in phi.terms for g in mono}
    block._lifts = expansions = _CountingDict()  # one expansion per distinct expression
    for x in fields:
        x.evaluate(block)
    eta.evaluate(fields, block)
    assert distinct and expansions.stores == len(expansions)
    assert distinct <= set(expansions) <= distinct | {id(ONE)}  # ONE stands for an absent generator
    f = next(iter(expansions.values()))[0]
    value = lift(f, block)
    assert lift(f, block) is value and not value.flags.writeable
    ref = weakref.ref(value)
    del block, expansions, value
    gc.collect()
    assert ref() is None


def test_block_validation(dual):
    chart = Chart.cube(1)
    xi = NearPoint(dual, chart, [dual.element([0.5, 1.0])])
    with pytest.raises(ValueError):
        NearPoints.stack([])
    with pytest.raises(ValueError):
        NearPoints(dual, chart, np.array([[[2.0], [1.0]]]))  # base outside the box
    with pytest.raises(AlgebraMismatch):
        NearPoints.stack([xi, NearPoint(dual, Chart.cube(1, -2.0, 2.0), xi.coords)])


# -- the symbolic multi-index Taylor formula, kept as an independent oracle for lift --------


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


def _assert_matches_oracle(f: Expr, xi: NearPoint) -> None:
    expected = _taylor(f, xi)
    got = lift(f, xi)
    assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-12 * expected.max_abs()


def test_lift_matches_taylor_oracle(catalog):
    rng = np.random.default_rng(31)
    dim27 = build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))
    for algebra in [*catalog, dim27]:
        draws = 3 if algebra.dim > 20 else 12
        for n in (1, 2, 3):
            chart = Chart.cube(n)
            for _ in range(draws):
                _assert_matches_oracle(random_expr(rng, n), random_near_point(rng, algebra, chart))


@pytest.mark.parametrize(
    "presentation, text, point",
    [
        ("R[x]/(x^4)", "x1^2", [[0.0, 1.0, -0.5, 0.25]]),
        ("R[x]/(x^4)", "x1^3", [[0.0, 1.0, -0.5, 0.25]]),
        ("R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "x1^x2", [[0.7, 0.3, -0.2, 0.1, 0.5, 0.4], [0.4, -1, 0.6, 0.2, 0.3, -0.1]]),
        ("R[x]/(x^4)", "1/(x1+2)", [[0.3, 1.0, -0.5, 0.25]]),
        ("R[x]/(x^4)", "sqrt(x1+2)", [[-0.3, 1.0, -0.5, 0.25]]),
        ("R", "sin(x1)*exp(x2)/(x1+2) + sqrt(x2+2)^1.5 + x1^x2", [[0.5], [0.25]]),
    ],
)
def test_lift_edge_cases_match_taylor_oracle(presentation, text, point):
    algebra = build_algebra(parse_presentation(presentation))
    chart = Chart.box([(-math.inf, math.inf)] * len(point))
    xi = NearPoint(algebra, chart, [algebra.element(c) for c in point])
    _assert_matches_oracle(parse(text, len(point)), xi)


@pytest.mark.parametrize("text, base", [("x1^0.5", 0.0), ("log(x1)", -0.5), ("1/x1", 0.0), ("1/x1", 1e-200)])
def test_lift_domain_errors_match_taylor_oracle(dual, text, base):
    # `npk lift` exits 2 on the same inputs: test_cli.py::test_lift_domain_error_exit_2
    chart = Chart.box([(-math.inf, math.inf)])
    f = parse(text, 1)
    for route in (_taylor, lift):
        with pytest.raises(DomainError):
            route(f, NearPoint(dual, chart, [dual.element([base, 1.0])]))


@pytest.mark.parametrize("base", [-2.0, 0.0, 1.5])
def test_general_power_domain_agrees_across_evaluate_lift_diff(dual, base):
    # b^c with a non-constant exponent is exp(c * log b), defined only for b > 0
    f = parse("x1^x2", 2)
    chart = Chart.box([(-math.inf, math.inf)] * 2)
    xi = NearPoint(dual, chart, [dual.element([base, 1.0]), dual.element([2.0, 0.5])])
    routes = [lambda: evaluate(f, [base, 2.0]), lambda: lift(f, xi).augmentation]
    routes += [lambda i=i: evaluate(diff(f, i), [base, 2.0]) for i in range(2)]
    if base > 0:
        assert routes[0]() == pytest.approx(routes[1](), rel=1e-15)
        for route in routes[2:]:
            assert math.isfinite(route())
    else:
        for route in routes:
            with pytest.raises(DomainError):
                route()


def test_equal_keys_evaluate_and_lift_alike():
    # both spellings key as x1^-2; a variable-free exponent is a constant power in every route
    from npk.functions import AFunction, ScalarGenerator

    jet = build_algebra(parse_presentation("R[x]/(x^3)"))
    chart = Chart.box([(-math.inf, math.inf)])
    folded, spelled = Pow(Var(0), Const(-2.0)), Pow(Var(0), Neg(Const(2.0)))
    assert expr_key(folded) == expr_key(spelled) == "x1^-2"
    xi = NearPoint(jet, chart, [jet.element([-0.5, 1.0, 0.0])])
    for f in (folded, spelled):
        assert evaluate(f, [-0.5]) == 4.0
        assert evaluate(diff(f, 0), [-0.5]) == 16.0
        assert list(lift(f, xi).coeffs) == [4.0, 16.0, 48.0]
    a, b = jet.element([1.0, 2.0, 0.0]), jet.element([0.5, 0.0, -1.0])
    phi = AFunction(jet, chart, [(a, (ScalarGenerator(1, spelled),)), (b, (ScalarGenerator(1, folded),))])
    assert len(phi.monos) == 1  # the two generators merge by key
    assert np.array_equal(phi.evaluate(xi).coeffs, (16.0 * (a + b)).coeffs)
    with pytest.raises(DomainError):  # an exponent with a variable stays a general power
        lift(Pow(Var(0), Neg(Var(0))), xi)


def test_leaf_and_its_parsed_spelling_share_a_key_and_lift_alike(catalog):
    from npk.functions import AFunction, ScalarGenerator
    from npk.sampling import random_polynomial

    rng = np.random.default_rng(66)
    chart = Chart.cube(2)
    for algebra in catalog:
        leaf = random_polynomial(rng, 2, degree=3)
        while not isinstance(leaf, Polynomial):  # all drawn monomials constant: a Const
            leaf = random_polynomial(rng, 2, degree=3)
        spelled = parse(unparse(leaf), 2)
        assert not isinstance(spelled, Polynomial)
        assert expr_key(leaf) == expr_key(spelled)
        phi = AFunction(algebra, chart, [(algebra.unit(), (ScalarGenerator(0, leaf),)),
                                         (algebra.unit(), (ScalarGenerator(0, spelled),))])
        assert len(phi.monos) == 1  # the two generators merge by key
        block = random_near_points(rng, algebra, chart, 4)
        assert np.allclose(lift(leaf, block), lift(spelled, block), rtol=1e-14, atol=1e-14)
        at = block.points()[2]
        assert np.allclose(lift(leaf, at).coeffs, lift(spelled, at).coeffs, rtol=1e-14, atol=1e-14)


def test_power_with_a_leaf_exponent_is_a_general_power():
    # a leaf has a variable, so x1^(0.5 + x1) is exp((0.5 + x1) log x1) in evaluate, diff and lift
    from npk.expr import polynomial

    jet = build_algebra(parse_presentation("R[x]/(x^3)"))
    chart = Chart.box([(-math.inf, math.inf)])
    leaf = polynomial([(0.5, (0,)), (1.0, (1,))])
    e, spelled = Pow(Var(0), leaf), Pow(Var(0), parse("0.5 + x1", 1))
    assert not constant_exponent(e)
    at = NearPoint(jet, chart, [jet.element([0.7, 1.0, -0.5])])
    assert evaluate(e, [0.7]) == evaluate(spelled, [0.7])
    assert evaluate(diff(e, 0), [0.7]) == pytest.approx(evaluate(diff(spelled, 0), [0.7]), rel=1e-14)
    assert np.allclose(lift(e, at).coeffs, lift(spelled, at).coeffs, rtol=1e-14, atol=0.0)
    negative = NearPoint(jet, chart, [jet.element([-0.5, 1.0, 0.0])])
    for route in (lambda: evaluate(e, [-0.5]), lambda: evaluate(diff(e, 0), [-0.5]), lambda: lift(e, negative)):
        with pytest.raises(DomainError):
            route()


# -- closed-form series of the primitives against the symbolic route -----------------------

_PRIMITIVES = [(fn, Call(fn, Var(0))) for fn in ("sin", "cos", "exp", "log", "sqrt")] + [("1/x", Div(ONE, Var(0)))]
_PRIMITIVES += [(c, Pow(Var(0), Const(c))) for c in (2.0, 3.0, -1.0, 0.5, -1.5, 2.5)]


def _symbolic_series(g: Expr, a0: float, order: int) -> list[float]:
    out = []
    for k in range(order + 1):
        out.append(evaluate(g, [a0]) / math.factorial(k))
        g = diff(g, 0)
    return out


_POSITIVE_ONLY = ("log", "sqrt", 0.5, -1.5, 2.5)


@pytest.mark.parametrize(
    "name, g, a0",
    [(name, g, a0) for name, g in _PRIMITIVES for a0 in (0.3, 1.7, -0.8) if a0 > 0 or name not in _POSITIVE_ONLY],
)
def test_series_matches_symbolic_route(name, g, a0):
    # orders 0..8 pass the sin/cos cycle twice; R[x]/(x^9) at a0 + x reads the series off the lift
    x9 = build_algebra(parse_presentation("R[x]/(x^9)"))
    xi = NearPoint(x9, Chart.box([(-math.inf, math.inf)]), [x9.element([a0, 1.0] + [0.0] * 7)])
    want = _symbolic_series(g, a0, 8)
    for got in (series(name, a0, 8), lift(g, xi).coeffs):
        assert len(got) == 9
        for k, (u, v) in enumerate(zip(got, want)):
            assert abs(u - v) <= 1e-12 * abs(v), (k, u, v)


@pytest.mark.parametrize("n", [171, 172, 400])
@pytest.mark.parametrize("fn", ["sin", "cos", "exp"])
def test_lift_past_height_170_is_finite(fn, n):
    # 171! is past the largest float: the coefficients beyond it underflow to +-0.0 instead of raising
    a = build_algebra(parse_presentation(f"R[x]/(x^{n})"))
    xi = NearPoint(a, Chart.box([(-math.inf, math.inf)]), [a.element([0.7, 1.0] + [0.0] * (n - 2))])
    got = lift(Call(fn, Var(0)), xi).coeffs
    assert np.isfinite(got).all() and got[20] != 0.0 and not got[171:].any()
    assert series(fn, 0.7, n - 1)[:171] == series(fn, 0.7, 170)


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_series_of_integer_power_at_zero_is_defined(c):
    # binom(c, k) vanishes for k > c, so the negative powers of 0 are never taken
    want = [1.0 if k == c else 0.0 for k in range(9)]
    assert series(c, 0.0, 8) == want
    assert _symbolic_series(Pow(Var(0), Const(c)), 0.0, 8) == want
    x9 = build_algebra(parse_presentation("R[x]/(x^9)"))
    xi = NearPoint(x9, Chart.cube(1), [x9.element([0.0, 1.0] + [0.0] * 7)])
    assert list(lift(Pow(Var(0), Const(c)), xi).coeffs) == want


@pytest.mark.parametrize(
    "g, order, message",
    [("1/x", 1, "1e-200^-2.0 undefined"), ("log", 2, "1e-200^-2.0 undefined"),
     ("sqrt", 3, "1e-200^-2.5 undefined"), (-1.0, 1, "1e-200^-2.0 undefined")],
)
def test_series_out_of_range_reads_alike(g, order, message):
    # a coefficient c * a0^-k beyond float range: 1/x and log divide by an underflowed a0^k, sqrt and x^c overflow
    with pytest.raises(DomainError) as caught:
        series(g, 1e-200, order)
    assert str(caught.value) == message
    assert series(g, 1e-200, order - 1)[-1] != 0.0  # one order lower is still in range


def test_series_of_height_zero_is_the_value():
    r = build_algebra(parse_presentation("R"))
    xi = NearPoint(r, Chart.circle(), [r.element([math.inf])])  # the circle takes any base
    assert series("log", math.inf, 0) == [math.inf]
    assert list(lift(parse("log(x1)", 1), xi).coeffs) == [math.inf]


# -- the lift with every product in A and Horner from c_height, kept as a reference --------


def _reference_jet(e: Expr, xi):
    """The lift's coefficients as they were before constant factors became scales, on a leaf's tree spelling."""
    algebra = xi.algebra
    if isinstance(e, Polynomial):
        return _reference_jet(parse(unparse(e), xi.chart.n), xi)
    if isinstance(e, Const):
        out = np.zeros(xi.values[0].shape)
        out[0] = e.value
        return out
    if isinstance(e, Var):
        return xi.values[e.index]
    if isinstance(e, Add):
        return _reference_jet(e.left, xi) + _reference_jet(e.right, xi)
    if isinstance(e, Sub):
        return _reference_jet(e.left, xi) - _reference_jet(e.right, xi)
    if isinstance(e, Neg):
        return -_reference_jet(e.arg, xi)
    if isinstance(e, Mul):
        return algebra.mul_coeffs(_reference_jet(e.left, xi), _reference_jet(e.right, xi))
    if isinstance(e, Div):
        left = _reference_jet(e.left, xi)
        return algebra.mul_coeffs(left, _reference_compose("1/x", _reference_jet(e.right, xi), algebra))
    if isinstance(e, Pow):
        if constant_exponent(e):
            c = e.exponent.value if isinstance(e.exponent, Const) else evaluate(e.exponent, ())
            return _reference_compose(float(c), _reference_jet(e.base, xi), algebra)
        log = _reference_compose("log", _reference_jet(e.base, xi), algebra)
        return _reference_compose("exp", algebra.mul_coeffs(_reference_jet(e.exponent, xi), log), algebra)
    assert isinstance(e, Call)
    return _reference_compose(e.fn, _reference_jet(e.arg, xi), algebra)


def _reference_compose(g, a, algebra):
    """Horner's rule from c_height, height products in A."""
    h = algebra.height
    c = np.array([series(g, a0, h) for a0 in a[:1].ravel().tolist()]).T.reshape((h + 1,) + a.shape[1:])
    n = a.copy()
    n[0] = 0.0
    acc = np.zeros(a.shape)
    acc[0] = c[h]
    for k in range(h - 1, -1, -1):
        acc = algebra.mul_coeffs(acc, n)
        acc[0] += c[k]
    return acc


def _value(v) -> np.ndarray:
    return v.coeffs if isinstance(v, AElement) else v


def _scalar_like(algebra: WeilAlgebra, c: float, shape: tuple[int, ...]) -> np.ndarray:
    """The coefficients of scalar(c) in a (dim,) or (dim, N) shape, column by column."""
    return np.broadcast_to(algebra.scalar(c).coeffs.reshape(-1, *[1] * (len(shape) - 1)), shape)


def _signed_zeros(algebra: WeilAlgebra, chart: Chart, xi: NearPoint, base: float) -> NearPoint:
    """xi with x1 moved to base +-0.0 and +-0.0 in some nilpotent slots; sin at 0.0 has -0.0 coefficients."""
    first = xi.coords[0].coeffs.copy()
    first[0] = base
    first[2::3], first[3::3] = -0.0, 0.0
    return NearPoint(algebra, chart, [algebra.element(first), *xi.coords[1:]])


_FIXED = ("x1^2", "x1^3", "x1^2.5", "sin(x1)", "2.5*x1^2 - 0.7*x1", "2.5*x1", "-0.5*x1", "x1*2.5", "x1*(-0.5)",
          "-2/(x1 + 2)", "x2*3 + (x1 + 2)^x2 - 1/(x1 + 2)", "1.5")


def test_lift_matches_the_reference_byte_for_byte(catalog):
    rng = np.random.default_rng(61)
    for algebra in [*catalog, _DIM27]:
        for chart in (Chart.cube(2), Chart.circle(), Chart.box([(0.25, 2.0)] * 2)):
            fs = [random_chart_expr(rng, chart) for _ in range(3 if algebra.dim > 20 else 8)]
            fs += [parse(t, chart.n) for t in _FIXED if chart.n == 2 or "x2" not in t]
            for size in (1, 5, 10):
                points = random_near_points(rng, algebra, chart, size).points()
                if chart.contains([0.0] * chart.n):
                    points[0] = _signed_zeros(algebra, chart, points[0], 0.0)
                    points[-1] = _signed_zeros(algebra, chart, points[-1], -0.0)
                for at in [points[0], points[-1], NearPoints.stack(points)]:
                    for f in fs:
                        try:
                            expected = _reference_jet(f, at)
                        except DomainError:  # x1^2.5 at base 0.0 on a height >= 3
                            with pytest.raises(DomainError):
                                lift(f, at)
                            continue
                        assert _value(lift(f, at)).tobytes() == expected.tobytes(), (algebra.dim, f)


def test_horner_at_dim_125_matches_the_reference_byte_for_byte():
    """Height 12: Horner's steps on n's gathered side of the table against height products by mul_coeffs."""
    algebra = build_algebra(parse_presentation("R[x,y,z]/(x^5,y^5,z^5)"))
    chart = Chart.cube(3)
    xi = random_near_points(np.random.default_rng(64), algebra, chart, 1).points()[0]
    for text in ("sin(x1)", "exp(x2)", "log(x3 + 2)", "1/(x1 + 2)", "(x2 + 2)^2.5 + x2^3"):
        f = parse(text, 3)
        assert lift(f, xi).coeffs.tobytes() == _reference_jet(f, xi).tobytes(), text


@pytest.mark.parametrize("c", [2.5, -1.5, 0.0, -0.0, 1e300])
def test_scalar_product_is_a_scale_plus_zero(catalog, c):
    rng = np.random.default_rng(62)
    for algebra in [*catalog, _DIM27]:
        for shape in [(algebra.dim,), (algebra.dim, 4)]:
            v = rng.uniform(-1.0, 1.0, shape)
            v[rng.random(shape) < 0.3] = 0.0
            v[rng.random(shape) < 0.3] = -0.0
            s = _scalar_like(algebra, c, shape)
            expected = (c * v + 0.0).tobytes()
            assert algebra.mul_coeffs(s, v).tobytes() == expected
            assert algebra.mul_coeffs(v, s).tobytes() == expected


def test_constant_factor_agrees_with_the_a_product(catalog):
    """lift(c * f) against mul_coeffs(scalar(c), lift(f)): the A-product route stays an oracle for the scale."""
    rng = np.random.default_rng(63)
    for algebra in [*catalog, _DIM27]:
        for chart in (Chart.cube(2), Chart.circle()):
            for _ in range(4):
                f, c = random_chart_expr(rng, chart), float(rng.uniform(-2.0, 2.0))
                points = random_near_points(rng, algebra, chart, 5).points()
                for at in [points[0], NearPoints.stack(points)]:
                    v = _value(lift(f, at))
                    got = _value(lift(mul(const(c), f), at))
                    assert got.tobytes() == algebra.mul_coeffs(_scalar_like(algebra, c, v.shape), v).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constant_factor_keeps_a_non_finite_lift(catalog, bad):
    chart = Chart.cube(2)
    fs = [parse("2.5*x1", 2), Mul(Var(0), Const(-3.0)), parse("0.5*x1*x2", 2), parse("3*sin(x1)", 2)]
    for algebra in catalog[1:]:  # a non-finite nilpotent part needs dim > 1
        rest = [0.0] * (algebra.dim - 2)
        xi = NearPoint(algebra, chart, [algebra.element([0.25, bad, *rest]), algebra.element([0.5, 1.0, *rest])])
        with np.errstate(invalid="ignore"):
            for f in fs:
                assert not np.all(np.isfinite(lift(f, xi).coeffs)), f


@pytest.mark.parametrize("text, products", [("x1^2", 1), ("x1^3", 2), ("x1^2.5", 5), ("2.5*x1^2 - 0.7*x1", 1)])
def test_horner_starts_at_the_highest_nonzero_coefficient(monkeypatch, text, products):
    calls = []  # every product goes through mul_gathered: Horner's steps directly, mul_coeffs by a wrapper
    real = WeilAlgebra.mul_gathered
    monkeypatch.setattr(WeilAlgebra, "mul_gathered", lambda self, a, right: calls.append(1) or real(self, a, right))
    xi = NearPoint(_DIM27, Chart.cube(1), [_DIM27.element([0.3, *np.linspace(-1.0, 1.0, 26)])])
    lift(parse(text, 1), xi)
    assert len(calls) == products  # height 6: six products before
    dual = build_algebra(parse_presentation("R[x]/(x^2)"))
    calls.clear()
    lift(parse(text, 1), NearPoint(dual, Chart.cube(1), [dual.element([0.3, 1.0])]))
    assert not calls  # dual numbers: one product before, none now


def test_tangent_vectors_add_at_equal_points(dual, jet3):
    chart = Chart.cube(2)
    xi = NearPoint(dual, chart, [dual.element([0.5, 1.0]), dual.element([-0.25, 2.0])])
    e = dual.basis_element(1)
    v = TangentVector(xi, (dual.unit(), e))
    total = v + TangentVector(NearPoint.from_json(xi.to_json(), dual, chart), (e, dual.unit()))
    assert total.at is xi and all(np.array_equal(u.coeffs, [1.0, 1.0]) for u in total.components)
    moved = NearPoint(dual, chart, [dual.element([0.5, 1.5]), xi.coords[1]])
    wide = NearPoint(dual, Chart.cube(2, -2.0, 2.0), xi.coords)
    for at in (moved, wide):
        with pytest.raises(ValueError, match="different points"):
            v + TangentVector(at, (e, e))
    jet = NearPoint(jet3, chart, [jet3.element([0.5, 1.0, 0.0]), jet3.element([-0.25, 2.0, 0.0])])
    with pytest.raises(ValueError, match="different points"):
        v + TangentVector(jet, (jet3.unit(), jet3.unit()))
