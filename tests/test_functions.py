import copy

import numpy as np
import pytest

from npk.expr import Const, DomainError, Neg, Pow, Var, diff, parse
from npk.functions import (
    AFunction,
    ScalarGenerator,
    coordinate_derive,
    dual_projection,
    lifted_function,
    _extension_values,
    tangent_apply,
)
from npk.fields import bracket, coordinate_prolongation
from npk.points import Chart, NearPoint, NearPoints, lift
from npk.sampling import (
    random_a_element,
    random_field,
    random_function,
    random_lifted_function,
    random_expr,
    random_near_point,
    random_tangent_vector,
)
import npk.functions
import npk.weil
from npk.weil import AElement, AlgebraMismatch, build_algebra, parse_presentation

CHART = Chart.cube(2)


def _evaluate_by_terms(phi, xi):
    """Reference evaluation: one lift lookup per generator occurrence, one addition per term."""
    acc = np.zeros(phi.algebra.dim)
    for coeff, mono in phi.terms:
        scalar = 1.0
        for gen in mono:
            scalar *= lift(gen.fn, xi).coefficient(gen.alpha)
        acc = acc + scalar * coeff.coeffs
    return acc


def _tangent_apply_by_terms(v, phi):
    """Reference extension of a tangent vector: one term and generator at a time."""
    acc = phi.algebra.zero()
    for coeff, mono in phi.terms:
        for j, gen in enumerate(mono):
            scalar = 1.0
            for k, other in enumerate(mono):
                if k != j:
                    scalar *= lift(other.fn, v.at).coefficient(other.alpha)
            acc = acc + (scalar * v.apply(gen.fn).coefficient(gen.alpha)) * coeff
    return acc


def _oracle_functions(rng, algebra):
    """Random functions, field components, lifted products and apply_fn images."""
    x = random_field(rng, algebra, CHART, max_terms=3, max_monomial=2)
    y = random_field(rng, algebra, CHART)
    phi = random_function(rng, algebra, CHART, max_terms=4, max_monomial=3, transcendental=True)
    out = [phi, random_lifted_function(rng, algebra, CHART, factors=3), x.apply_fn(phi)]
    out += list(x.components) + list(bracket(x, y).components)
    return out


def test_constant_function(dual):
    a = dual.element([1.0, -2.0])
    phi = AFunction.constant(a, CHART)
    xi = random_near_point(np.random.default_rng(0), dual, CHART)
    assert np.array_equal(phi.evaluate(xi).coeffs, a.coeffs)


def test_lifted_agrees_with_lift(catalog):
    rng = np.random.default_rng(1)
    for algebra in catalog:
        from npk.sampling import random_expr

        f = random_expr(rng, 2)
        phi = lifted_function(f, algebra, CHART)
        for _ in range(10):
            xi = random_near_point(rng, algebra, CHART)
            assert (phi.evaluate(xi) - lift(f, xi)).max_abs() <= 1e-12


def test_lifted_constant_collapses(dual):
    phi = lifted_function(Const(2.0), dual, CHART)
    assert len(phi.terms) == 1 and phi.terms[0][1] == ()


def test_morphism_law(plane_jet):
    rng = np.random.default_rng(2)
    f, g = parse("x1^2 + x2", 2), parse("sin(x1)*x2", 2)
    lhs = lifted_function(parse("(x1^2 + x2)*(sin(x1)*x2)", 2), plane_jet, CHART)
    rhs = lifted_function(f, plane_jet, CHART) * lifted_function(g, plane_jet, CHART)
    for _ in range(50):
        xi = random_near_point(rng, plane_jet, CHART)
        assert (lhs.evaluate(xi) - rhs.evaluate(xi)).max_abs() <= 1e-10


def test_arithmetic_commutes_with_evaluation(catalog):
    rng = np.random.default_rng(3)
    for algebra in catalog:
        phi = random_function(rng, algebra, CHART, transcendental=True)
        psi = random_function(rng, algebra, CHART)
        a = random_a_element(rng, algebra)
        for _ in range(5):
            xi = random_near_point(rng, algebra, CHART)
            assert ((phi + psi).evaluate(xi) - (phi.evaluate(xi) + psi.evaluate(xi))).max_abs() <= 1e-12
            assert ((phi * psi).evaluate(xi) - phi.evaluate(xi) * psi.evaluate(xi)).max_abs() <= 1e-11
            assert (phi.scale(a).evaluate(xi) - a * phi.evaluate(xi)).max_abs() <= 1e-12


def test_unit_absorbs(dual):
    rng = np.random.default_rng(4)
    phi = random_function(rng, dual, CHART)
    one = AFunction.constant(dual.unit(), CHART)
    xi = random_near_point(rng, dual, CHART)
    assert ((phi * one).evaluate(xi) - phi.evaluate(xi)).max_abs() == 0.0


def test_terms_merge_and_sort(dual):
    g = ScalarGenerator(1, parse("x1", 2))
    phi = AFunction(dual, CHART, [(dual.unit(), (g,)), (dual.unit(), (g,))])
    assert len(phi.terms) == 1
    assert np.array_equal(phi.terms[0][0].coeffs, [2.0, 0.0])
    zero = AFunction(dual, CHART, [(dual.unit(), (g,)), (-dual.unit(), (g,))])
    assert zero.is_structurally_zero()


def test_algebra_mismatch(dual, jet3):
    phi = AFunction.constant(dual.unit(), CHART)
    psi = AFunction.constant(jet3.unit(), CHART)
    with pytest.raises(AlgebraMismatch):
        phi + psi
    with pytest.raises(AlgebraMismatch):
        phi * psi


def test_dual_projection(dual):
    rng = np.random.default_rng(5)
    phi = random_function(rng, dual, CHART)
    for alpha in range(dual.dim):
        proj = dual_projection(phi, alpha)
        for _ in range(5):
            xi = random_near_point(rng, dual, CHART)
            value = proj.evaluate(xi)
            expected = phi.evaluate(xi).coefficient(alpha)
            assert value.coefficient(0) == pytest.approx(expected, abs=1e-13)
            assert np.abs(value.coeffs[1:]).max(initial=0.0) <= 1e-13


def test_coordinate_derive_on_lift(jet3):
    f = parse("x1^2*x2", 2)
    phi = lifted_function(f, jet3, CHART)
    rng = np.random.default_rng(6)
    d0 = coordinate_derive(phi, 0)
    expected = lifted_function(parse("2*x1*x2", 2), jet3, CHART)
    for _ in range(10):
        xi = random_near_point(rng, jet3, CHART)
        assert (d0.evaluate(xi) - expected.evaluate(xi)).max_abs() <= 1e-12


def test_coordinate_derive_commute(plane_jet):
    rng = np.random.default_rng(7)
    phi = random_function(rng, plane_jet, CHART, max_terms=2, max_monomial=2, transcendental=True)
    ab = coordinate_derive(coordinate_derive(phi, 0), 1)
    ba = coordinate_derive(coordinate_derive(phi, 1), 0)
    for _ in range(10):
        xi = random_near_point(rng, plane_jet, CHART)
        assert (ab.evaluate(xi) - ba.evaluate(xi)).max_abs() <= 1e-10


def test_tangent_apply_properties(catalog):
    rng = np.random.default_rng(8)
    for algebra in catalog:
        for _ in range(10):
            v = random_tangent_vector(rng, algebra, CHART)
            a = random_a_element(rng, algebra)
            phi = random_function(rng, algebra, CHART)
            psi = random_function(rng, algebra, CHART)
            # vanishes on constants
            assert tangent_apply(v, AFunction.constant(a, CHART)).max_abs() == 0.0
            # A-linearity in coefficients
            lhs = tangent_apply(v, phi.scale(a))
            assert (lhs - a * tangent_apply(v, phi)).max_abs() <= 1e-10
            # agreement on lifts
            from npk.sampling import random_expr

            f = random_expr(rng, 2)
            assert (
                tangent_apply(v, lifted_function(f, algebra, CHART)) - v.apply(f)
            ).max_abs() <= 1e-9
            # pointwise Leibniz
            leib = tangent_apply(v, phi * psi) - (
                tangent_apply(v, phi) * psi.evaluate(v.at)
                + phi.evaluate(v.at) * tangent_apply(v, psi)
            )
            assert leib.max_abs() <= 1e-9


def test_tangent_apply_gamma_product_example(dual):
    # product of two lifted coordinates, u = (eps, 0)
    chart = CHART
    rng = np.random.default_rng(9)
    xi = random_near_point(rng, dual, chart)
    v_comp = (dual.basis_element(1), dual.zero())
    from npk.points import TangentVector

    v = TangentVector(xi, v_comp)
    phi = lifted_function(parse("x1", 2), dual, chart) * lifted_function(parse("x2", 2), dual, chart)
    expected = dual.basis_element(1) * lift(parse("x2", 2), xi)
    assert (tangent_apply(v, phi) - expected).max_abs() <= 1e-12


def test_evaluate_matches_per_term_loop_bit_for_bit(catalog):
    rng = np.random.default_rng(10)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        for _ in range(3):
            for phi in _oracle_functions(rng, algebra):
                for _ in range(2):
                    xi = random_near_point(rng, algebra, CHART)
                    value = phi.evaluate(xi).coeffs
                    assert np.array_equal(value, _evaluate_by_terms(phi, xi), equal_nan=True)
                    v = random_tangent_vector(rng, algebra, CHART)
                    assert np.array_equal(
                        tangent_apply(v, phi).coeffs, _tangent_apply_by_terms(v, phi).coeffs, equal_nan=True
                    )


def test_extension_values_at_a_block_match_tangent_apply_per_column(catalog):
    rng = np.random.default_rng(17)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        functions = _oracle_functions(rng, algebra)
        functions += [AFunction.zero(algebra, CHART), AFunction.constant(random_a_element(rng, algebra), CHART)]
        for size in (1, 3, 5):
            vs = [random_tangent_vector(rng, algebra, CHART) for _ in range(size)]
            block = NearPoints.stack([v.at for v in vs])
            u = [np.stack([v.components[i].coeffs for v in vs], axis=-1) for i in range(CHART.n)]
            for phi in functions:
                got = _extension_values(phi, block, u)
                assert got.shape == (algebra.dim, size)
                for j, v in enumerate(vs):
                    assert got[:, j].tobytes() == tangent_apply(v, phi).coeffs.tobytes()


class _ReadsNonEmpty(tuple):
    """An empty generator table that tests true, so that a constant takes the general route."""

    def __bool__(self) -> bool:
        return True


def test_extension_values_of_a_constant_skips_the_plan(catalog, monkeypatch):
    rng = np.random.default_rng(18)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        for phi in (AFunction.zero(algebra, CHART), AFunction.constant(random_a_element(rng, algebra), CHART)):
            general = copy.copy(phi)
            general.gens = _ReadsNonEmpty()
            for size in (1, 5):
                vs = [random_tangent_vector(rng, algebra, CHART) for _ in range(size)]
                block = NearPoints.stack([v.at for v in vs])
                u = [np.stack([v.components[i].coeffs for v in vs], axis=-1) for i in range(CHART.n)]
                for at, values in ((block, u), (vs[0].at, [c.coeffs for c in vs[0].components])):
                    expected = _extension_values(general, at, values)
                    with monkeypatch.context() as m:
                        m.setattr(npk.functions, "_gather_plan", None)  # building a plan would raise
                        got = _extension_values(phi, at, values)
                    assert got.tobytes() == expected.tobytes() and got.shape == expected.shape
                    assert phi._plan is None and general._plan is not None


def test_block_evaluate_matches_single_points_bit_for_bit(catalog):
    rng = np.random.default_rng(14)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        functions = _oracle_functions(rng, algebra)
        functions += [AFunction.zero(algebra, CHART), AFunction.constant(random_a_element(rng, algebra), CHART)]
        for size in (1, 3, 5, 10):
            points = [random_near_point(rng, algebra, CHART) for _ in range(size)]
            block = NearPoints.stack(points)
            for phi in functions:
                got = phi.evaluate(block)
                assert got.shape == (algebra.dim, size)
                expected = np.stack([phi.evaluate(xi).coeffs for xi in points], axis=-1)
                assert np.array_equal(got, expected, equal_nan=True)


def _lift_rows(f, algebra):
    """The rows of lifted_function(f), built through the public constructor: the general evaluation path."""
    return AFunction(algebra, CHART, [(algebra.basis_element(a), (ScalarGenerator(a, f),)) for a in range(algebra.dim)])


def _with_zero_slot(rng, algebra):
    """A near point whose first coordinate has a zero coefficient, so that the lift of -x1 holds a -0.0."""
    xi = random_near_point(rng, algebra, CHART)
    coords = [xi.coords[0].coeffs.copy(), xi.coords[1].coeffs]
    coords[0][-1] = 0.0
    return NearPoint(algebra, CHART, [algebra.element(c) for c in coords])


def test_lift_evaluates_as_its_rows_bit_for_bit(catalog):
    # a lift is valued as its memoised lift + 0.0; the sign of zero counts, so -x1 pins the + 0.0
    rng = np.random.default_rng(15)
    algebras = list(catalog) + [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    for algebra in algebras:
        exprs = [parse("-x1", 2), parse("sin(x1)*x2 + x1^2", 2)] + [random_expr(rng, 2) for _ in range(2)]
        for f in exprs:
            phi, rows = lifted_function(f, algebra, CHART), _lift_rows(f, algebra)
            points = [_with_zero_slot(rng, algebra)] + [random_near_point(rng, algebra, CHART) for _ in range(9)]
            for xi in points[:3]:
                assert phi.evaluate(xi).coeffs.tobytes() == rows.evaluate(xi).coeffs.tobytes()
            for size in (1, 3, 10):
                block = NearPoints.stack(points[:size])
                got = phi.evaluate(block)
                assert got.shape == (algebra.dim, size) and not got.flags.writeable
                assert got.tobytes() == rows.evaluate(block).tobytes()
    assert np.signbit(lift(parse("-x1", 2), _with_zero_slot(rng, algebras[-1])).coeffs[-1])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_lift_evaluates_to_that_lift(plane_jet):
    rng = np.random.default_rng(16)
    f = parse("x1", 2)
    phi = lifted_function(f, plane_jet, CHART)
    xi = random_near_point(rng, plane_jet, CHART)
    coords = [np.array([xi.coords[0].coeffs[0], 0.5, np.inf]), xi.coords[1].coeffs]
    xi = NearPoint(plane_jet, CHART, [plane_jet.element(c) for c in coords])
    value = phi.evaluate(xi).coeffs
    assert np.array_equal(value, coords[0], equal_nan=True) and value is not lift(f, xi).coeffs
    assert np.array_equal(_lift_rows(f, plane_jet).evaluate(xi).coeffs, [np.nan, np.nan, np.inf], equal_nan=True)
    block = phi.evaluate(NearPoints.stack([xi, random_near_point(rng, plane_jet, CHART)]))
    assert np.array_equal(block[:, 0], coords[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_functions_built_from_a_lift_take_the_general_path(catalog):
    rng = np.random.default_rng(17)
    for algebra in catalog:
        f = random_expr(rng, 2)
        phi = lifted_function(f, algebra, CHART)
        built = [-phi, phi.scale(1.0), phi * AFunction.constant(algebra.unit(), CHART)]
        points = [random_near_point(rng, algebra, CHART)]
        if algebra.dim > 1:  # an inf in a nilpotent slot: the general path spreads NaN, the lift keeps the inf
            bad = [algebra.element(np.append(c.coeffs[:-1], np.inf)) for c in points[0].coords]
            points.append(NearPoint(algebra, CHART, bad))
            lifted, general = phi.evaluate(points[1]).coeffs, _evaluate_by_terms(phi, points[1])
            assert not np.array_equal(lifted, general, equal_nan=True)
        for psi in built:
            assert psi.evaluate(points[0]).coeffs.tobytes() == _evaluate_by_terms(psi, points[0]).tobytes()
            for xi in points[1:]:
                assert np.array_equal(psi.evaluate(xi).coeffs, _evaluate_by_terms(psi, xi), equal_nan=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficient_stays_non_finite(plane_jet, bad):
    rng = np.random.default_rng(11)
    g, h = ScalarGenerator(1, parse("sin(x1)", 2)), ScalarGenerator(0, parse("x2", 2))
    coeffs = np.array([1.0, bad, 0.0])
    phi = AFunction(plane_jet, CHART, [(AElement(plane_jet, coeffs), (g, h)), (plane_jet.unit(), (h,))])
    x = coordinate_prolongation(plane_jet, CHART, 0)
    with np.errstate(invalid="ignore"):
        extensions = (x.apply_fn(phi), coordinate_derive(phi, 0))
        for psi in (phi, phi * lifted_function(parse("x1", 2), plane_jet, CHART), *extensions):
            xi = random_near_point(rng, plane_jet, CHART)
            value = psi.evaluate(xi).coeffs
            assert not np.all(np.isfinite(value))
            assert np.array_equal(value, _evaluate_by_terms(psi, xi), equal_nan=True)
            points = [xi, random_near_point(rng, plane_jet, CHART)]
            block = psi.evaluate(NearPoints.stack(points))
            assert np.array_equal(block[:, 0], value, equal_nan=True)
            assert np.array_equal(block[:, 1], psi.evaluate(points[1]).coeffs, equal_nan=True)


def test_construction_contract(plane_jet):
    rng = np.random.default_rng(12)
    phi = random_function(rng, plane_jet, CHART, max_terms=4, max_monomial=3, transcendental=True)
    psi = random_function(rng, plane_jet, CHART, max_terms=3, max_monomial=2)
    rebuilt = AFunction(plane_jet, CHART, phi.terms)
    assert rebuilt.monos == phi.monos and np.array_equal(rebuilt.coeffs, phi.coeffs)
    with pytest.raises(ValueError):
        phi.coeffs[0, 0] = 1.0
    keys = [tuple(g.key for g in mono) for _, mono in phi.terms]
    assert keys == sorted(set(keys))
    assert all(list(mono) == sorted(mono, key=lambda g: g.key) for mono in phi.monos)
    assert all(coeff.coeffs.any() for coeff, _ in phi.terms)
    assert len(phi.terms) == len(phi.monos) == len(phi.coeffs)
    assert (phi - phi).is_structurally_zero()
    # the product merges like building from every pair of terms, bit for bit
    pairs = AFunction(plane_jet, CHART, [(c1 * c2, m1 + m2) for c1, m1 in phi.terms for c2, m2 in psi.terms])
    product = phi * psi
    assert product.monos == pairs.monos and np.array_equal(product.coeffs, pairs.coeffs)


def test_products_in_slices_match_one_batch(plane_jet, monkeypatch):
    rng = np.random.default_rng(13)
    phi = random_function(rng, plane_jet, CHART, max_terms=4, max_monomial=2, transcendental=True)
    psi = random_lifted_function(rng, plane_jet, CHART, factors=2)
    a = random_a_element(rng, plane_jet)
    whole = (phi * psi, psi.scale(a))
    monkeypatch.setattr(npk.weil, "ROWS_BLOCK", 8)  # a few table terms per slice
    for one, sliced in zip(whole, (phi * psi, psi.scale(a))):
        assert one.monos == sliced.monos and np.array_equal(one.coeffs, sliced.coeffs)


# -- generator tables against the string-key canonicaliser they replaced ---------------------


def _merge_reference(dim, monos, rows):
    """Canonical rows keyed by generator strings: each monomial sorted by key, equal monomials
    summed in input order (the first spelling kept), key order, zero rows dropped."""
    slots, group = {}, []
    for mono in monos:
        mono = tuple(sorted(mono, key=lambda g: g.key))
        slot = slots.setdefault(tuple(g.key for g in mono), (len(slots), mono))
        group.append(slot[0])
    if len(slots) < len(group):
        bins = np.array(group, dtype=np.intp)[:, None] * dim + np.arange(dim)
        rows = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=len(slots) * dim).reshape(len(slots), dim)
    ordered = [slot for _, slot in sorted(slots.items())]
    rows = rows[[s for s, _ in ordered]]
    keep = rows.any(axis=1)
    return [mono for (_, mono), k in zip(ordered, keep) if k], rows[keep]


def _evaluation_plan_reference(phi):
    """(fns, index, padded) read off the monomials: one slot per distinct generator function."""
    dim, slot, fns, flat = phi.algebra.dim, {}, [], []
    width = max(1, max(map(len, phi.monos), default=0))
    for mono in phi.monos:
        for gen in mono:
            s = slot.setdefault(id(gen.fn), len(fns))
            if s == len(fns):
                fns.append(gen.fn)
            flat.append(s * dim + gen.alpha)
        flat.extend([-1] * (width - len(mono)))
    return fns, np.array(flat, dtype=np.intp).reshape(len(phi.monos), width), not fns or -1 in flat


def _reference_product(phi, psi):
    rows = phi.algebra.mul_rows(phi.coeffs[:, None, :], psi.coeffs[None, :, :]).reshape(-1, phi.algebra.dim)
    return _merge_reference(phi.algebra.dim, [m1 + m2 for m1 in phi.monos for m2 in psi.monos], rows)


def _reference_sum(phis, signs=None):
    signs = signs or [1.0] * len(phis)
    rows = np.concatenate([phi.coeffs if s > 0 else -phi.coeffs for phi, s in zip(phis, signs)])
    return _merge_reference(phis[0].algebra.dim, [m for phi in phis for m in phi.monos], rows)


def _reference_derive(phi, i):
    monos, rows = [], []
    for coeff, mono in zip(phi.coeffs, phi.monos):
        for j, gen in enumerate(mono):
            dg = diff(gen.fn, i)
            rest = mono[:j] + mono[j + 1:]
            if isinstance(dg, Const):
                if dg.value != 0.0 and gen.alpha == 0:
                    monos.append(rest)
                    rows.append(coeff * dg.value)
            else:
                monos.append(rest + (ScalarGenerator(gen.alpha, dg),))
                rows.append(coeff * 1.0)
    return _merge_reference(phi.algebra.dim, monos, np.array(rows).reshape(len(rows), phi.algebra.dim))


def _reference_apply_fn(x, phi):
    monos, left, right = [], [], []
    for t, mono in enumerate(phi.monos):
        for j, gen in enumerate(mono):
            proj = dual_projection(x.apply(gen.fn), gen.alpha)
            monos += [mono[:j] + mono[j + 1:] + m2 for m2 in proj.monos]
            left += [t] * len(proj.monos)
            right.append(proj.coeffs)
    if not monos:
        return [], np.zeros((0, phi.algebra.dim))
    rows = phi.algebra.mul_rows(phi.coeffs[left], np.concatenate(right))
    return _merge_reference(phi.algebra.dim, monos, rows)


def _as_function(algebra, ref):
    monos, rows = ref
    return AFunction(algebra, CHART, [(AElement(algebra, r), m) for m, r in zip(monos, rows)])


def _matches(phi, ref, spelled=True):
    """phi's monomials and coefficients are the reference's, bit for bit; its table is exactly what it uses."""
    monos, rows = ref
    keys = [[g.key for g in m] for m in phi.monos]
    assert keys == [[g.key for g in m] for m in monos]
    assert not spelled or phi.monos == tuple(monos)
    assert phi.coeffs.tobytes() == np.ascontiguousarray(rows).tobytes()
    assert [g.key for g in phi.gens] == sorted({g.key for m in phi.monos for g in m})
    assert all(list(m) == sorted(m) for m in phi.indices)


def _check_plan(phi, xi):
    fns, index, padded = _evaluation_plan_reference(phi)
    values = [lift(fn, xi).coeffs for fn in fns] + ([np.ones(1)] if padded else [])
    gathered = np.concatenate(values)[index]
    expected = np.zeros(phi.algebra.dim)
    for row, factors in zip(phi.coeffs, gathered):
        scalar = factors[0]
        for factor in factors[1:]:
            scalar = scalar * factor
        expected = expected + row * scalar
    assert np.array_equal(phi.evaluate(xi).coeffs, expected, equal_nan=True)
    assert {id(f) for f in fns} == {id(g.fn) for g in phi.gens}


@pytest.mark.parametrize("oracle_algebra", ["catalog", "dim27"])
def test_generator_tables_match_string_key_merge(oracle_algebra, catalog):
    from npk.fields import from_derivation
    from npk.sampling import random_derivation

    algebras = list(catalog) if oracle_algebra == "catalog" else [build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))]
    rng = np.random.default_rng(14)
    for algebra in algebras:
        for _ in range(2):
            x, y = random_field(rng, algebra, CHART, max_terms=3, max_monomial=2), random_field(rng, algebra, CHART)
            phi = random_function(rng, algebra, CHART, max_terms=4, max_monomial=3, transcendental=True)
            psi = random_lifted_function(rng, algebra, CHART, factors=2)
            a = random_a_element(rng, algebra)
            _matches(phi * psi, _reference_product(phi, psi))
            _matches(psi * phi, _reference_product(psi, phi))
            _matches(phi + psi, _reference_sum([phi, psi]))
            _matches(phi - psi, _reference_sum([phi, psi], [1.0, -1.0]))
            _matches(phi.scale(a), _merge_reference(algebra.dim, phi.monos, algebra.mul_rows(a.coeffs, phi.coeffs)))
            for alpha in range(algebra.dim):
                c = phi.coeffs[:, alpha]
                ref = ([m for m, k in zip(phi.monos, c != 0.0) if k], c[c != 0.0, None] * algebra.unit().coeffs)
                _matches(dual_projection(phi, alpha), ref)
            for i in range(CHART.n):
                _matches(coordinate_derive(phi, i), _reference_derive(phi, i))
            for field, f in ((x, phi), (y, psi), (x, x.components[0])):
                _matches(field.apply_fn(f), _reference_apply_fn(field, f))
            for i, component in enumerate(bracket(x, y).components):
                lhs, rhs = _reference_apply_fn(x, y.components[i]), _reference_apply_fn(y, x.components[i])
                _matches(component, _reference_sum([_as_function(algebra, lhs), _as_function(algebra, rhs)], [1.0, -1.0]))
            d = random_derivation(rng, algebra)
            for i, component in enumerate(from_derivation(d, CHART).components):
                gens = [(ScalarGenerator(alpha, Var(i)),) for alpha in range(algebra.dim)]
                _matches(component, _merge_reference(algebra.dim, gens, -d.matrix.T), spelled=False)
            xi = random_near_point(rng, algebra, CHART)
            for f in (phi * psi, phi - psi, x.apply_fn(phi), coordinate_derive(phi, 0)):
                _check_plan(f, xi)


def test_equal_keys_with_different_spellings_share_one_generator(plane_jet):
    # both spellings key as x1^-2 and lift alike; a table keeps the first, the reference the first per monomial
    folded, spelled = Pow(Var(0), Const(-2.0)), Pow(Var(0), Neg(Const(2.0)))
    h = parse("sin(x2)", 2)
    rng = np.random.default_rng(15)
    a, b, c = (random_a_element(rng, plane_jet) for _ in range(3))
    phi = AFunction(plane_jet, CHART, [(a, (ScalarGenerator(1, spelled),)), (b, (ScalarGenerator(1, folded), ScalarGenerator(0, h)))])
    psi = AFunction(plane_jet, CHART, [(c, (ScalarGenerator(1, folded),)), (a, (ScalarGenerator(0, h),))])
    assert [g.fn for g in phi.gens if g.alpha == 1] == [spelled] and [g.fn for g in psi.gens if g.alpha == 1] == [folded]
    x = random_field(rng, plane_jet, CHART)
    xi = random_near_point(rng, plane_jet, CHART)
    cases = [
        (phi * psi, _reference_product(phi, psi)),
        (psi * phi, _reference_product(psi, phi)),
        (phi + psi, _reference_sum([phi, psi])),
        (phi - psi, _reference_sum([phi, psi], [1.0, -1.0])),
        (coordinate_derive(phi, 0), _reference_derive(phi, 0)),
        (x.apply_fn(phi * psi), _reference_apply_fn(x, phi * psi)),
    ]
    for got, ref in cases:
        _matches(got, ref, spelled=False)
        assert len({g.key for g in got.gens}) == len(got.gens)
        assert np.array_equal(got.evaluate(xi).coeffs, _as_function(plane_jet, ref).evaluate(xi).coeffs)


def test_dropped_rows_take_their_generators_along(dual):
    # a generator that no row uses is pruned, so evaluation never lifts log at x1 < 0
    log_x1, x2 = parse("log(x1)", 2), parse("x2", 2)
    phi = lifted_function(log_x1, dual, CHART)
    one = AFunction.constant(dual.unit(), CHART)
    xi = NearPoint(dual, Chart.box([(-5.0, 5.0)] * 2), [dual.element([-1.0, 1.0]), dual.element([0.5, 0.0])])
    with pytest.raises(DomainError):
        phi.evaluate(xi)
    mixed = AFunction(dual, CHART, [(dual.basis_element(1), (ScalarGenerator(0, log_x1),)), (dual.unit(), (ScalarGenerator(0, x2),))])
    survivors = [
        (phi - phi) + one,
        (phi + lifted_function(x2, dual, CHART)) - phi,
        dual_projection(mixed, 0),
        mixed.scale(dual.basis_element(1)),
        coordinate_derive(mixed, 1),
    ]
    for psi in survivors:
        assert all(g.fn is not log_x1 for g in psi.gens), psi
        assert not psi.is_structurally_zero()
        value = psi.evaluate(xi)
        assert np.all(np.isfinite(value.coeffs))
