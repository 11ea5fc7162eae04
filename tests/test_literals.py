import numpy as np
import pytest

from npk.expr import ParseError, UnknownVariable, VectorField, form, parse
from npk.fields import from_derivation, prolong
from npk.forms import prolong_form
from npk.literals import LiteralError, parse_field, parse_fn, parse_form
from npk.points import Chart
from npk.sampling import random_near_point
from npk.weil import derivation_basis

CHART = Chart.cube(2)


def test_fn_literal_constant(dual):
    phi = parse_fn("[1, 0.5]", dual, CHART)
    xi = random_near_point(np.random.default_rng(0), dual, CHART)
    assert np.allclose(phi.evaluate(xi).coeffs, [1.0, 0.5])


def test_fn_literal_generators(dual):
    phi = parse_fn('[0,1]*gen(0,"x1")*gen(1,"x2") + [2,0]', dual, CHART)
    rng = np.random.default_rng(1)
    for _ in range(5):
        xi = random_near_point(rng, dual, CHART)
        expected = (
            xi.coords[0].coefficient(0) * xi.coords[1].coefficient(1)
        ) * dual.basis_element(1) + 2.0 * dual.unit()
        assert (phi.evaluate(xi) - expected).max_abs() <= 1e-12


def test_fn_literal_quoted_plus(dual):
    # '+' inside the quoted expression must not split the term
    phi = parse_fn('[1,0]*gen(0,"x1 + x2")', dual, CHART)
    xi = random_near_point(np.random.default_rng(2), dual, CHART)
    expected = (xi.coords[0] + xi.coords[1]).coefficient(0) * dual.unit()
    assert (phi.evaluate(xi) - expected).max_abs() <= 1e-12


@pytest.mark.parametrize(
    "bad",
    ["", "gen(0)", "[1]", '[1,0]*gen(9,"x1")', '[1,0]*foo(1)', '[1,0'],
)
def test_fn_literal_errors(dual, bad):
    with pytest.raises(LiteralError):
        parse_fn(bad, dual, CHART)


def test_field_literal_components(dual):
    x = parse_field('[0,1]*gen(1,"x1"); [1,0]', dual, CHART)
    assert len(x.components) == 2
    with pytest.raises(LiteralError):
        parse_field("[1,0]", dual, CHART)  # one component, two needed


def test_field_literal_prolong_shortcut(plane_jet):
    x = parse_field('prolong("x1; x1*x2")', plane_jet, CHART)
    expected = prolong(VectorField((parse("x1", 2), parse("x1*x2", 2))), plane_jet, CHART)
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi = random_near_point(rng, plane_jet, CHART)
        for a, b in zip(x.components, expected.components):
            assert (a.evaluate(xi) - b.evaluate(xi)).max_abs() <= 1e-12


def test_field_literal_dstar_shortcut(jet3):
    basis = derivation_basis(jet3)
    x = parse_field("dstar(1)", jet3, CHART)
    expected = from_derivation(basis[1], CHART)
    rng = np.random.default_rng(4)
    for _ in range(5):
        xi = random_near_point(rng, jet3, CHART)
        for a, b in zip(x.components, expected.components):
            assert (a.evaluate(xi) - b.evaluate(xi)).max_abs() <= 1e-12
    with pytest.raises(LiteralError):
        parse_field("dstar(9)", jet3, CHART)


def test_form_literal_prolonged(dual):
    eta = parse_form("x2 dx(1) + x1 dx(2)", dual, CHART)
    expected = prolong_form(
        form(2, 1, {(0,): parse("x2", 2), (1,): parse("x1", 2)}), dual, CHART
    )
    rng = np.random.default_rng(5)
    probe = [prolong(VectorField((parse("x2", 2), parse("1", 2))), dual, CHART)]
    for _ in range(5):
        xi = random_near_point(rng, dual, CHART)
        assert (eta.evaluate(probe, xi) - expected.evaluate(probe, xi)).max_abs() <= 1e-12


def test_form_literal_wedge_and_signs(dual):
    area = parse_form("dx(1)^dx(2)", dual, CHART)
    swapped = parse_form("dx(2)^dx(1)", dual, CHART)
    rng = np.random.default_rng(6)
    probes = [
        prolong(VectorField((parse("1", 2), parse("0", 2))), dual, CHART),
        prolong(VectorField((parse("0", 2), parse("1", 2))), dual, CHART),
    ]
    xi = random_near_point(rng, dual, CHART)
    assert (area.evaluate(probes, xi) + swapped.evaluate(probes, xi)).max_abs() <= 1e-14
    degenerate = parse_form("dx(1)^dx(1)", dual, CHART)
    assert degenerate.terms == () and degenerate.degree == 2


def test_form_literal_degree_zero(dual):
    eta = parse_form("x1^2", dual, CHART)
    assert eta.degree == 0
    eta2 = parse_form('[0,1]*gen(0,"x1")', dual, CHART)
    assert eta2.degree == 0


def test_form_literal_fn_coefficient(dual):
    eta = parse_form('[0,1] dx(1)', dual, CHART)
    probe = [prolong(VectorField((parse("1", 2), parse("0", 2))), dual, CHART)]
    xi = random_near_point(np.random.default_rng(7), dual, CHART)
    assert np.allclose(eta.evaluate(probe, xi).coeffs, [0.0, 1.0])


@pytest.mark.parametrize(
    "text, error",
    [("sin( dx(1)^dx(1)", ParseError), ("[1,2,3] dx(1)^dx(1)", LiteralError), ("x9 dx(1)^dx(1)", UnknownVariable)],
    ids=["unclosed-call", "long-coefficient-list", "unknown-variable"],
)
def test_form_literal_vanishing_term_coefficient_is_parsed(dual, text, error):
    # a repeated dx(i) drops the term, but its coefficient must still be valid
    with pytest.raises(error):
        parse_form(text, dual, CHART)


def test_form_literal_mixed_degree_rejected(dual):
    # a vanishing term (repeated dx(i)) still has its degree
    for text in ("dx(1) + dx(1)^dx(2)", "x1 dx(1) + dx(2)^dx(2)", "dx(1)^dx(1) + x1 dx(1)"):
        with pytest.raises(LiteralError, match="mixed degrees"):
            parse_form(text, dual, CHART)
