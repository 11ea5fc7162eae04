import itertools

import numpy as np
import pytest

import npk.checks as checks
from npk import sampling as sp
from npk.checks import check_identity, run_cohomology_model
from npk.cohomology import expr_to_poly
from npk.expr import Const, DomainError, Polynomial, VectorField, add, const, diff, evaluate, expr_key, mul, parse, power, unparse, var
from npk.fields import prolong
from npk.points import Chart, NearPoint, NearPoints, lift
from npk.sampling import random_near_point, random_near_points, random_polynomial
from npk.weil import build_algebra, parse_presentation

CHARTS = (Chart.cube(2), Chart.parse("box:[-3,5]^2"), Chart.circle(), Chart.cube(3))
PRESENTATIONS = ("R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "R[x,y,z]/(x^3,y^3,z^3)")


@pytest.fixture(scope="module")
def algebras():
    return [build_algebra(parse_presentation(text)) for text in PRESENTATIONS]


def reference_near_point(rng, algebra, chart):
    """The per-coordinate draw: a base by rng.uniform, then dim coefficients, the first replaced by the base."""
    coords = []
    for lo, hi in chart.intervals:
        lo = max(lo, -1.0) if chart.kind == "box" else lo
        hi = min(hi, 1.0) if chart.kind == "box" else hi
        span = hi - lo
        base = float(rng.uniform(lo + 0.05 * span, hi - 0.05 * span))
        c = rng.uniform(-0.5, 0.5, size=algebra.dim)
        c[0] = base
        coords.append(algebra.element(c))
    return NearPoint(algebra, chart, coords)


def reference_polynomial(rng, n, degree=2, terms=3):
    """random_polynomial with its monomial list built on every call."""
    monomials = [m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) <= degree]
    out = const(round(float(rng.uniform(-2.0, 2.0)), 3))
    for _ in range(int(rng.integers(1, terms + 1))):
        m = monomials[int(rng.integers(0, len(monomials)))]
        term = const(round(float(rng.uniform(-2.0, 2.0)), 3))
        for i, e in enumerate(m):
            if e == 1:
                term = mul(term, var(i))
            elif e > 1:
                term = mul(term, power(var(i), const(float(e))))
        out = add(out, term)
    return out


@pytest.mark.parametrize("low, high", [(-0.5, 0.5), (-0.9, 0.9), (-2.6, 4.6), (0.3141592653589793, 5.969026041820607)])
def test_affine_map_of_random_is_uniform(low, high):
    # rng.uniform(low, high) is low + (high - low) * rng.random(): if numpy changes that, every report moves
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    got = low + (high - low) * ours.random((4, 7))
    want = np.array([[float(theirs.uniform(low, high))] + list(theirs.uniform(low, high, size=6)) for _ in range(4)])
    assert got.tobytes() == want.tobytes()
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.text())
def test_near_point_block_matches_per_coordinate_draws(algebras, chart, k):
    for algebra in algebras:
        ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(3):
            got = [random_near_point(ours, algebra, chart)] if k == 1 else random_near_points(ours, algebra, chart, k).points()
            want = [reference_near_point(theirs, algebra, chart) for _ in range(k)]
            assert len(got) == k
            for p, q in zip(got, want):
                assert p.algebra is algebra and p.chart == chart
                assert all(c.coeffs.base is None and c.coeffs.flags.c_contiguous for c in p.coords)
                assert np.array(p.values).tobytes() == np.array(q.values).tobytes()
        assert ours.random() == theirs.random()  # the same stream position after the draws


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.text())
def test_stack_of_the_points_of_a_block_is_the_block(algebras, chart, k):
    rng = np.random.default_rng(19)
    for algebra in algebras:
        block = random_near_points(rng, algebra, chart, k)
        points = block.points()
        assert len(points) == k and all(p.algebra is algebra and p.chart == chart for p in points)
        assert all(c.coeffs.base is None and c.coeffs.flags.c_contiguous for p in points for c in p.coords)
        again = NearPoints.stack(points)
        assert again.values.shape == block.values.shape and again.values.tobytes() == block.values.tobytes()


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.text())
def test_single_near_point_is_column_0_of_a_block_of_one(algebras, chart):
    for algebra in algebras:
        ours, theirs = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(3):
            xi = random_near_point(ours, algebra, chart)
            block = random_near_points(theirs, algebra, chart, 1)
            assert np.array(xi.values).tobytes() == block.values[:, :, 0].tobytes()
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("chart", [Chart.cube(2), Chart.box([(-0.5, 3.0), (0.2, 0.9)]), Chart.circle()],
                         ids=lambda c: c.text())
def test_unchecked_near_point_equals_the_checked_one(algebras, chart):
    # random_near_point skips NearPoint's checks; a draw they would refuse raises here
    fn = parse("sin(x1) + x1^3" if chart.n == 1 else "sin(x1)*x2 + exp(x2)/(2 + x1)", chart.n)
    for algebra in algebras:
        rng = np.random.default_rng(31)
        for _ in range(5):
            xi = random_near_point(rng, algebra, chart)
            checked = NearPoint(algebra, chart, [algebra.element(c.coeffs.copy()) for c in xi.coords])
            assert xi.algebra is checked.algebra and xi.chart == checked.chart
            assert np.array(xi.values).tobytes() == np.array(checked.values).tobytes()
            assert lift(fn, xi).coeffs.tobytes() == lift(fn, checked).coeffs.tobytes()


@pytest.mark.parametrize("chart", [Chart.cube(2), Chart.cube(3), Chart.circle()], ids=lambda c: c.text())
def test_unchecked_block_equals_the_checked_one(algebras, chart):
    # random_near_points skips NearPoints' checks; a draw they would refuse raises here
    for algebra in algebras:
        rng = np.random.default_rng(37)
        for k in (1, 5):
            block = random_near_points(rng, algebra, chart, k)
            checked = NearPoints(algebra, chart, block.values.copy())
            assert block.algebra is checked.algebra and block.chart == checked.chart
            assert block.values.shape == checked.values.shape and block.values.tobytes() == checked.values.tobytes()
            assert block.values.flags.c_contiguous and not block.values.flags.writeable


@pytest.mark.parametrize("intervals", [[(2, 3)], [(-5, -1)], [(-1, 1), (1, 4)]])
def test_a_box_that_misses_the_unit_box_has_no_draw(algebras, intervals):
    chart = Chart.box(intervals)
    rng = np.random.default_rng(29)
    for draw in (lambda: random_near_point(rng, algebras[0], chart), lambda: random_near_points(rng, algebras[0], chart, 3)):
        with pytest.raises(ValueError, match=r"misses the unit box") as caught:
            draw()
        assert chart.text() in str(caught.value)
    assert rng.random() == np.random.default_rng(29).random()  # refused before drawing


def test_random_polynomial_draws_are_unchanged():
    ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
    for n, degree in itertools.product((1, 2, 3, 5), (1, 2, 3)):
        for _ in range(5):
            assert unparse(random_polynomial(ours, n, degree)) == unparse(reference_polynomial(theirs, n, degree))
    assert ours.random() == theirs.random()


# -- the Polynomial leaf against the tree the reference builds ------------------------------

LEAF_CASES = list(itertools.product((1, 2, 3), (1, 2, 3, 4), (2, 3, 5)))  # n, degree, terms


def leaves_and_trees(seed: int):
    """(n, leaf, tree) per case, the leaf from random_polynomial and the tree from the reference, same stream."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    out = []
    for n, degree, terms in LEAF_CASES:
        for _ in range(4):
            leaf, tree = random_polynomial(ours, n, degree, terms), reference_polynomial(theirs, n, degree, terms)
            assert ours.bit_generator.state == theirs.bit_generator.state  # the stream position after each draw
            out.append((n, leaf, tree))
    return out


def test_leaf_spells_the_reference_tree():
    kinds = set()
    for n, leaf, tree in leaves_and_trees(41):
        kinds.add(type(leaf))
        assert unparse(leaf) == unparse(tree) and parse(unparse(leaf), n) == tree
        assert expr_key(leaf) == expr_key(tree)
        assert expr_to_poly(leaf, n) == expr_to_poly(tree, n)
        assert isinstance(leaf, Polynomial) or leaf == tree  # no variable left: the same Const
    assert kinds == {Polynomial, Const}


def _outcome(e, point) -> str:
    try:
        return evaluate(e, point).hex()
    except DomainError as exc:  # a power beyond the float range
        return str(exc)


def test_leaf_evaluates_bit_for_bit_as_its_parsed_spelling():
    rng = np.random.default_rng(42)
    for n, leaf, tree in leaves_and_trees(43):
        spelled = parse(unparse(leaf), n)
        for point in [rng.uniform(-1.0, 1.0, n), np.zeros(n), -np.zeros(n), rng.uniform(-1e100, 1e100, n)]:
            assert _outcome(leaf, point) == _outcome(spelled, point)


def test_leaf_lifts_as_its_tree(algebras):
    # the leaf runs the tree's operations, so its lift is the tree's bit for bit, within 1e-14 a fortiori
    rng = np.random.default_rng(44)
    for n, leaf, tree in leaves_and_trees(45):
        chart = Chart.cube(n)
        for algebra in algebras:
            block = random_near_points(rng, algebra, chart, 3)
            assert lift(leaf, block).tobytes() == lift(tree, block).tobytes()
            at = block.points()[1]
            assert lift(leaf, at).coeffs.tobytes() == lift(tree, at).coeffs.tobytes()


def _close(a, b) -> bool:
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-14 * (1.0 + np.max(np.abs(b))))


def test_leaf_derivative_agrees_with_the_tree_derivative(algebras):
    rng = np.random.default_rng(46)
    for n, leaf, tree in leaves_and_trees(47):
        for i in range(n):
            d_leaf, d_tree = diff(leaf, i), diff(tree, i)
            assert diff(leaf, i) is d_leaf  # memoised on the leaf
            assert isinstance(d_leaf, (Polynomial, Const))
            point = rng.uniform(-1.0, 1.0, n)
            assert _close(evaluate(d_leaf, point), evaluate(d_tree, point))
            algebra = algebras[i % len(algebras)]
            block = random_near_points(rng, algebra, Chart.cube(n), 3)
            assert _close(lift(d_leaf, block), lift(d_tree, block))
            at = block.points()[0]
            assert _close(lift(d_leaf, at).coeffs, lift(d_tree, at).coeffs)


def test_probe_values_by_lift_match_the_prolonged_field(algebras):
    # a prolonged field's value is the lift of its base components, bit for bit, a -0.0 constant included
    rng = np.random.default_rng(37)
    count = 0
    for algebra, chart in itertools.product(algebras, CHARTS):
        for degree in (1, 2):
            probes = []
            for _ in range(3):
                fields = [sp.random_base_field(rng, chart) for _ in range(degree)]
                fields[0] = VectorField((Const(-0.0),) + fields[0].components[1:])
                probes.append(fields)
            points = random_near_points(rng, algebra, chart, 3).points()
            got = checks._probe_values(probes, points, degree, chart.n)
            for r, i in itertools.product(range(degree), range(chart.n)):
                prolonged = [prolong(p[r], algebra, chart).components[i] for p in probes]
                want = np.stack([phi.evaluate(xi).coeffs for phi, xi in zip(prolonged, points)], axis=-1)
                assert got[r][i].tobytes() == want.tobytes()
                count += want.size
    assert count > 2000


def reference_form_residual(e1, e2, rng, block):
    """_form_residual with each probe prolonged and evaluated as an A-function at its point."""
    if e1.degree != e2.degree:
        raise ValueError("degree mismatch in form comparison")
    algebra, chart, points = block.algebra, block.chart, block.points()
    probes = [
        [prolong(sp.random_base_field(rng, chart), algebra, chart) for _ in range(e1.degree)] for _ in points
    ]
    values = [
        [np.stack([p[r].components[i].evaluate(xi).coeffs for p, xi in zip(probes, points)], axis=-1)
         for i in range(chart.n)]
        for r in range(e1.degree)
    ]
    return checks._fold(checks._gaps(e1.on_values(values, block), e2.on_values(values, block)).tolist())


@pytest.mark.parametrize("chart", [Chart.cube(2), Chart.cube(3), Chart.circle()], ids=lambda c: c.text())
def test_forms_records_match_the_prolonged_probe_route(monkeypatch, algebras, chart):
    def residuals():
        out = [check_identity(name, algebra, chart, seed=4, samples=12).max_residual
               for name in checks.FORMS_SUITE for algebra in algebras[:2]]
        model = run_cohomology_model("circle" if chart.kind == "circle" else "poincare", algebras[0], chart, 4, 2)
        return out + [r.max_residual for r in model.records]

    got = residuals()
    monkeypatch.setattr(checks, "_form_residual", reference_form_residual)
    assert [x.hex() for x in got] == [x.hex() for x in residuals()]


@pytest.mark.parametrize("seed", [0, 1, 77])
def test_scalar_draws_by_random_match_uniform_and_its_stream(seed):
    """rng.random() for rng.uniform(), and the affine map for rng.uniform(lo, hi): equal values, equal state after."""
    two_pi = 2.0 * np.pi
    spellings = [
        (lambda r: r.uniform(), lambda r: r.random()),
        (lambda r: r.uniform(0.0, two_pi), lambda r: two_pi * r.random()),
        (lambda r: r.uniform(-2.0, 2.0), lambda r: -2.0 + 4.0 * r.random()),
    ]
    for old, new in spellings:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [(float(old(a)), new(b)) for _ in range(200)]
        assert all(x.hex() == y.hex() for x, y in drawn)
        assert a.bit_generator.state == b.bit_generator.state
