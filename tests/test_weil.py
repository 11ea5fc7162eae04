import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import npk.weil as weil
from npk.weil import (
    AlgebraMismatch,
    Derivation,
    DimensionMismatch,
    EmptyPresentation,
    InfiniteDimensional,
    LinearEndo,
    NotADerivation,
    NotInvertible,
    Presentation,
    PresentationError,
    build_algebra,
    derivation_basis,
    dual_coefficient,
    is_derivation,
    parse_presentation,
)
from npk.weil import _leibniz_residual


def test_parse_presentation_roundtrip():
    p = parse_presentation("R[x,y]/(x^2, x*y, y^3)")
    assert p.num_vars == 2
    assert set(p.generators) == {(2, 0), (1, 1), (0, 3)}
    assert p.text() == "R[x,y]/(x^2,x*y,y^3)"


def test_parse_reals():
    assert parse_presentation("R").num_vars == 0
    assert build_algebra(parse_presentation("R")).dim == 1


@pytest.mark.parametrize(
    "bad", ["R[x]/()", "R[x]", "R[x]/(x)", "R[x]/(x^2", "R[x,x]/(x^2)", "R[x]/(y^2)"]
)
def test_parse_errors(bad):
    with pytest.raises(PresentationError):
        parse_presentation(bad)


def test_empty_presentation_error():
    with pytest.raises(EmptyPresentation):
        Presentation(0, ((2,),))


def test_infinite_dimensional():
    with pytest.raises(InfiniteDimensional):
        build_algebra(parse_presentation("R[x,y]/(x^2)"))


def test_dual_numbers():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    assert a.dim == 2
    assert a.basis == ((0,), (1,))
    assert a.height == 1


def test_degree_two_plane():
    a = build_algebra(parse_presentation("R[x,y]/(x^2,x*y,y^2)"))
    assert a.dim == 3
    assert a.basis == ((0, 0), (1, 0), (0, 1))
    xy = a.basis_element(1) * a.basis_element(2)
    assert xy.max_abs() == 0.0


def test_standard_monomials_degree_three():
    # frozen oracle: monomials of total degree <= 2 survive the cubic generators
    a = build_algebra(parse_presentation("R[x,y]/(x^3,x^2*y,x*y^2,y^3)"))
    assert a.dim == 6
    assert a.height == 2
    assert a.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_generator_normalization():
    # x^2 divides x^2*y, so the redundant generator drops out
    p = parse_presentation("R[x,y]/(x^2,x^2*y,y^2)")
    assert set(p.normalized_generators()) == {(2, 0), (0, 2)}
    assert build_algebra(p).dim == 4


def test_mul_dual_example():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    out = a.element([1, 2]) * a.element([3, 1])
    assert np.allclose(out.coeffs, [3, 7])


def test_mul_truncation():
    a = build_algebra(parse_presentation("R[x]/(x^3)"))
    assert (a.basis_element(1) * a.basis_element(2)).max_abs() == 0.0


def test_mul_identity(catalog):
    for a in catalog:
        v = a.element(np.linspace(-1, 1, a.dim))
        assert np.array_equal((a.unit() * v).coeffs, v.coeffs)


def test_dimension_mismatch():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    with pytest.raises(DimensionMismatch):
        a.element([1, 2, 3])
    b = build_algebra(parse_presentation("R[x]/(x^3)"))
    with pytest.raises(AlgebraMismatch):
        a.unit() * b.unit()


def test_structure_constant_axioms(catalog):
    for a in catalog:
        c = a.structure
        assert np.array_equal(c, np.swapaxes(c, 0, 1)), "commutativity"
        lhs = np.einsum("abd,dgr->abgr", c, c)
        rhs = np.einsum("bgd,adr->abgr", c, c)
        assert np.array_equal(lhs, rhs), "associativity"
        assert np.array_equal(c[0], np.eye(a.dim)), "unit row"


def test_nilpotency_all_products(catalog):
    for a in catalog:
        nil = range(1, a.dim)
        for combo in itertools.combinations_with_replacement(nil, a.height + 1):
            prod = a.unit()
            for alpha in combo:
                prod = prod * a.basis_element(alpha)
            assert prod.max_abs() == 0.0


def test_augmentation_multiplicative(catalog):
    rng = np.random.default_rng(1)
    for a in catalog:
        for _ in range(100):
            u = a.element(rng.uniform(-1, 1, a.dim))
            v = a.element(rng.uniform(-1, 1, a.dim))
            assert abs((u * v).augmentation - u.augmentation * v.augmentation) <= 1e-12


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_mul_commutes_hypothesis(xs, ys):
    a = build_algebra(parse_presentation("R[x]/(x^3)"))
    u, v = a.element(xs), a.element(ys)
    assert np.allclose((u * v).coeffs, (v * u).coeffs)


def test_invert_dual():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    out = a.element([1, 1]).invert()
    assert np.allclose(out.coeffs, [1, -1])


def test_invert_jet3_example():
    # geometric series oracle: 1/(2+x) = 1/2 - x/4 + x^2/8
    a = build_algebra(parse_presentation("R[x]/(x^3)"))
    out = a.element([2, 1, 0]).invert()
    assert np.allclose(out.coeffs, [0.5, -0.25, 0.125], atol=1e-12)
    assert np.allclose((out * a.element([2, 1, 0])).coeffs, a.unit().coeffs, atol=1e-12)


def test_invert_random(catalog):
    rng = np.random.default_rng(2)
    for a in catalog:
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, a.dim)
            coeffs[0] = rng.uniform(0.5, 2.0)
            u = a.element(coeffs)
            assert ((u * u.invert()) - a.unit()).max_abs() <= 1e-12


def test_not_invertible():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    with pytest.raises(NotInvertible):
        a.basis_element(1).invert()


@given(
    st.floats(0.2, 3.0),
    st.lists(st.floats(-2, 2), min_size=5, max_size=5),
)
def test_invert_hypothesis(real_part, nilpotent):
    a = build_algebra(parse_presentation("R[x,y]/(x^3,x^2*y,x*y^2,y^3)"))
    u = a.element([real_part] + nilpotent)
    assert ((u * u.invert()) - a.unit()).max_abs() <= 1e-10


def test_dual_coefficient():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    v = a.element([3, 5])
    assert dual_coefficient(v, 1) == 5.0
    assert dual_coefficient(a.unit(), 0) == 1.0
    assert dual_coefficient(a.unit(), 1) == 0.0
    with pytest.raises(IndexError):
        dual_coefficient(v, 2)
    recombined = sum(
        (dual_coefficient(v, alpha) * a.basis_element(alpha) for alpha in range(a.dim)),
        a.zero(),
    )
    assert np.array_equal(recombined.coeffs, v.coeffs)


EXPECTED_DER_DIM = {
    "R": 0,
    "R[x]/(x^2)": 1,
    "R[x]/(x^3)": 2,
    "R[x]/(x^4)": 3,
    "R[x,y]/(x^2,x*y,y^2)": 4,
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)": 10,
    "R[x,y]/(x^4,y^4)": 24,
    "R[x,y,z]/(x^3,y^3,z^2)": 33,
    "R[x,y,z]/(x^3,y^3,z^3)": 54,
}


def svd_derivation_nullspace(algebra):
    """Oracle: float nullspace of the dense Leibniz system in the dim^2 matrix entries.

    Unknowns are the entries D[s, g] (coefficient s of d(e_g)); one equation
    per triple (a, b, s).  Returns the nullspace as rows of length dim^2.
    """
    dim = algebra.dim
    c = algebra.structure
    rows = np.zeros((dim * dim * dim, dim * dim))
    eq = 0
    for a in range(dim):
        for b in range(dim):
            for s in range(dim):
                row = np.zeros((dim, dim))
                row[s, :] += c[a, b, :]          # d(e_a e_b) coefficient s
                row[:, a] -= c[:, b, s]          # d(e_a) e_b
                row[:, b] -= c[a, :, s]          # e_a d(e_b)
                rows[eq] = row.reshape(-1)
                eq += 1
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[svals <= 1e-9]


@pytest.mark.parametrize("text", EXPECTED_DER_DIM)
def test_derivation_basis_matches_svd_oracle(text):
    a = build_algebra(parse_presentation(text))
    basis = derivation_basis(a)
    assert len(basis) == EXPECTED_DER_DIM[text]
    for d in basis:
        assert _leibniz_residual(a, d.matrix) == 0.0
        assert np.array_equal(d.matrix, np.round(d.matrix))
    exact = np.array([d.matrix.reshape(-1) for d in basis]).reshape(len(basis), a.dim * a.dim)
    oracle = svd_derivation_nullspace(a)
    assert len(oracle) == len(basis)
    # equal spans: stacking the oracle adds no rank.  The oracle rows carry
    # about 1e-12 of Leibniz noise, hence the explicit tolerance.
    assert np.linalg.matrix_rank(exact, tol=1e-9) == len(basis)
    assert np.linalg.matrix_rank(np.vstack([exact, oracle]), tol=1e-9) == len(basis)


def test_derivation_basis_order():
    # free unknowns of d(x), then of d(y), each in basis order: x->x, x->y, y->x, y->y
    a = build_algebra(parse_presentation("R[x,y]/(x^2,x*y,y^2)"))
    images = [(d.matrix[:, 1], d.matrix[:, 2]) for d in derivation_basis(a)]
    expected = [([0, 1, 0], [0, 0, 0]), ([0, 0, 1], [0, 0, 0]),
                ([0, 0, 0], [0, 1, 0]), ([0, 0, 0], [0, 0, 1])]
    for (dx, dy), (want_x, want_y) in zip(images, expected, strict=True):
        assert np.array_equal(dx, want_x) and np.array_equal(dy, want_y)


def test_derivation_basis_clears_denominators():
    # x^3*y forces 3*u + v = 0 between d(x) and d(y) terms; the basis stays integral
    a = build_algebra(parse_presentation("R[x,y]/(x^3*y,x^5,y^4)"))
    basis = derivation_basis(a)
    assert len(basis) == len(svd_derivation_nullspace(a))
    assert all(_leibniz_residual(a, d.matrix) == 0.0 for d in basis)
    assert any(np.abs(d.matrix).max() == 3.0 for d in basis)


def test_leibniz_residual_matches_einsum_reference(catalog):
    def reference(algebra, m):
        c = algebra.structure
        lhs = np.einsum("abg,sg->abs", c, m)
        rhs = np.einsum("ra,rbs->abs", m, c) + np.einsum("rb,ars->abs", m, c)
        return float(np.max(np.abs(lhs - rhs)))

    rng = np.random.default_rng(5)
    algebras = catalog + [build_algebra(parse_presentation("R[x,y]/(x^4,y^4)"))]
    for a in algebras:
        for d in derivation_basis(a):
            m = d.matrix + 1e-3 * rng.standard_normal((a.dim, a.dim))
            assert abs(_leibniz_residual(a, m) - reference(a, m)) <= 1e-12
        m = rng.standard_normal((a.dim, a.dim))
        assert abs(_leibniz_residual(a, m) - reference(a, m)) <= 1e-12


def test_derivation_basis_dimensions(catalog):
    for a in catalog:
        basis = derivation_basis(a)
        assert len(basis) == EXPECTED_DER_DIM[a.text]


def test_derivation_basis_members_are_derivations(catalog):
    for a in catalog:
        basis = derivation_basis(a)
        for d in basis:
            assert is_derivation(a, d.endo)
            assert np.allclose(d.matrix @ a.unit().coeffs, 0.0, atol=1e-12)
        if basis:
            stack = np.stack([d.matrix.reshape(-1) for d in basis])
            assert np.linalg.matrix_rank(stack) == len(basis)


def test_derivation_commutator_closure(catalog):
    rng = np.random.default_rng(3)
    for a in catalog:
        basis = derivation_basis(a)
        if len(basis) < 2:
            continue
        for _ in range(5):
            i, j = rng.integers(0, len(basis), 2)
            c = basis[i].commutator(basis[j])  # validates Leibniz on construction
            assert is_derivation(a, c.endo)


def test_dual_derivation_span():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    (d,) = derivation_basis(a)
    # d(1) = 0 and d(x) = c*x for some nonzero c
    assert abs(d.matrix[0, 0]) <= 1e-12 and abs(d.matrix[1, 0]) <= 1e-12
    assert abs(d.matrix[0, 1]) <= 1e-12 and abs(d.matrix[1, 1]) > 0.5


def test_is_derivation_examples():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    assert not is_derivation(a, np.eye(2))  # identity fails d(1) = 0
    assert is_derivation(a, np.zeros((2, 2)))
    assert is_derivation(a, np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_derivation_constructor_rejects():
    a = build_algebra(parse_presentation("R[x]/(x^2)"))
    with pytest.raises(NotADerivation):
        Derivation(LinearEndo(a, np.eye(2)))


def test_derivation_scale():
    a = build_algebra(parse_presentation("R[x]/(x^3)"))
    d = derivation_basis(a)[0]
    ax = a.element([0.0, 1.0, 0.5])
    scaled = d.scale(ax)
    probe = a.element([0.3, -0.2, 0.7])
    assert (scaled(probe) - ax * d(probe)).max_abs() <= 1e-12


@pytest.fixture(scope="module")
def dim27():
    return build_algebra(parse_presentation("R[x,y,z]/(x^3,y^3,z^3)"))


def test_products_match_einsum_reference(catalog, dim27):
    rng = np.random.default_rng(7)
    for a in [*catalog, dim27]:
        c = a.structure
        # bincount sums in another order: at most dim terms of size <= 1 per coefficient
        atol = 2 * a.dim**2 * np.finfo(float).eps
        for _ in range(5):
            x, y = rng.uniform(-1, 1, a.dim), rng.uniform(-1, 1, a.dim)
            assert np.allclose(a.mul_coeffs(x, y), np.einsum("abg,a,b->g", c, x, y), rtol=0, atol=atol)
            # one term per entry, so no rounding
            assert np.array_equal(a.left_multiplication(x), np.einsum("abg,a->gb", c, x))


def test_structure_is_built_only_on_request():
    a = build_algebra(parse_presentation("R[x,y]/(x^3,x^2*y,x*y^2,y^3)"))
    u = a.element([2.0, 1.0, -1.0, 0.5, 0.25, 0.0])
    d = derivation_basis(a)[0]
    (u * u).invert()
    d.scale(u).commutator(d)
    assert "structure" not in vars(a)
    assert a.structure.shape == (a.dim,) * 3 and "structure" in vars(a)


def test_non_finite_product_example():
    # the table skips structural zeros, so only the slots that inf reaches turn non-finite
    a = build_algebra(parse_presentation("R[x]/(x^3)"))
    with np.errstate(invalid="ignore"):
        out = a.mul_coeffs(np.array([np.inf, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert out[0] == np.inf and np.isnan(out[1:]).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_never_gives_a_finite_result(catalog, bad):
    rng = np.random.default_rng(11)
    for a in catalog:
        for alpha in range(a.dim):
            x = rng.uniform(0.5, 1.5, a.dim)
            x[alpha] = bad
            for y in (rng.uniform(-1, 1, a.dim), np.zeros(a.dim), a.unit().coeffs):
                assert not np.isfinite(a.mul_coeffs(x, y)).all()
                assert not np.isfinite(a.mul_coeffs(y, x)).all()
            assert not np.isfinite(a.left_multiplication(x)).all()
            assert not np.isfinite(a.element(x).invert().coeffs).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_not_a_derivation(catalog, dim27, bad):
    rng = np.random.default_rng(13)
    for a in [*catalog, dim27]:
        basis = derivation_basis(a) or [None]
        positions = list(itertools.product(range(a.dim), repeat=2))
        if len(positions) > 100:
            positions = [positions[k] for k in rng.choice(len(positions), 100, replace=False)]
        for d in basis[:3]:
            for r, q in positions:
                m = np.zeros((a.dim, a.dim)) if d is None else d.matrix.copy()
                m[r, q] = bad
                assert not np.isfinite(_leibniz_residual(a, m))
                assert not is_derivation(a, m)


def test_validation_covers_every_basis_element(monkeypatch):
    a = build_algebra(parse_presentation("R[x,y,z]/(x^4,y^4,z^3)"))
    assert a.dim == 48
    residuals = []

    def counting(algebra, endo, tol=weil.DERIVATION_TOL):
        residuals.append(_leibniz_residual(algebra, endo.matrix))
        return residuals[-1] <= tol

    monkeypatch.setattr(weil, "is_derivation", counting)
    basis = derivation_basis(a)
    assert len(basis) == len(residuals) == 104
    assert all(r == 0.0 for r in residuals)


def test_algebra_equality_by_identity_and_by_basis():
    pres = parse_presentation("R[x,y]/(x^3,x^2*y,x*y^2,y^3)")
    a, b = build_algebra(pres), build_algebra(pres)
    assert a is not b and a == b and hash(a) == hash(b)
    assert (a.unit() + b.unit()).coeffs[0] == 2.0  # distinct but equal algebras mix
    assert a != build_algebra(parse_presentation("R[x]/(x^6)"))
    a.basis = float("nan")  # unequal to itself, so only the identity check makes a == a
    assert a == a
