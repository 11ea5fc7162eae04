import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npk.expr import (
    Add,
    Call,
    Const,
    DomainError,
    Mul,
    ParseError,
    Pow,
    UnknownVariable,
    Var,
    VectorField,
    contract_form,
    diff,
    evaluate,
    exterior_derivative,
    form,
    lie_bracket,
    parse,
    power,
    unparse,
)


def test_parse_product_node():
    e = parse("sin(x1)*x2", 2)
    assert isinstance(e, Mul)
    assert isinstance(e.left, Call) and e.left.fn == "sin"
    assert e.right == Var(1)


def test_parse_sum_node():
    e = parse("x1^2 + 2*x1*x2", 2)
    assert isinstance(e, Add)
    assert isinstance(e.left, Pow)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse("x3", 2)
    with pytest.raises(UnknownVariable):
        parse("foo", 2)
    with pytest.raises(UnknownVariable) as caught:  # more digits than int() converts
        parse("x" + "1" * 5000 + " + 1", 2)
    assert caught.value.offset == 0
    assert parse("x" + "0" * 18 + "2", 2) == Var(1)  # 19 digits are still read


def test_parse_aliases():
    assert parse("x", 3) == Var(0)
    assert parse("y", 3) == Var(1)
    assert parse("z", 3) == Var(2)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 + ", 2)
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse("foo(x1)", 2)
    with pytest.raises(ParseError):
        parse("(x1", 2)


def test_precedence():
    # power binds tighter than unary minus
    assert evaluate(parse("-x1^2", 1), [2.0]) == -4.0
    assert evaluate(parse("2^-1", 1), [0.0]) == 0.5
    assert evaluate(parse("2*3 + 4/2", 1), [0.0]) == 8.0
    assert evaluate(parse("2 - 3 - 4", 1), [0.0]) == -5.0
    assert evaluate(parse("16/4/2", 1), [0.0]) == 2.0


def test_number_and_dot_errors_carry_offset():
    # a '.' with no digit used to leak float()'s ValueError with no offset
    for text, offset in ((".", 0), (".e5", 0), ("x1 + .e5", 5), ("2*(.)", 3)):
        with pytest.raises(ParseError) as err:
            parse(text, 1)
        assert err.value.offset == offset
        assert str(err.value) == f"unexpected character '.' (at offset {offset})"
    assert parse(".5", 1) == Const(0.5) and parse("5.", 1) == Const(5.0)


def test_constant_power_out_of_range_stays_unfolded():
    assert parse("2^10", 1) == Const(1024.0)
    assert power(Const(10.0), Const(400.0)) == Pow(Const(10.0), Const(400.0))
    assert parse("10^400", 1) == Pow(Const(10.0), Const(400.0))
    with pytest.raises(DomainError, match=r"^10\.0\^400\.0 undefined$"):
        evaluate(parse("10^400", 1), [0.0])


@pytest.mark.parametrize(
    "text, depth",
    [
        ("+".join(["x1"] * 10**4), 10**4 - 1),
        ("(" * 10**4 + "x1" + ")" * 10**4, 0),
        ("-" * 10**4 + "x1", 0),
        ("sin(" * 10**4 + "x1" + ")" * 10**4, 10**4),
    ],
    ids=["sum", "parentheses", "minus-signs", "sin-nesting"],
)
def test_deep_input_parses_without_recursion(text, depth):
    # the parser keeps its own stacks: 10^4 levels parse under the default recursion limit
    e, levels = parse(text, 1), 0
    while not isinstance(e, Var):
        e, levels = (e.left if isinstance(e, Add) else e.arg), levels + 1
    assert (e, levels) == (Var(0), depth)


# fragments of the differential fuzz: names (aliases, x10, unknown names, Unicode letters and digits),
# numbers (1e and 1E+ with no exponent digit, .5, 5., a bare '.', Unicode digits), functions known and not;
# the first _VALID names and numbers parse over x1..x3
_NAMES = ("x1", "x2", "x3", "x01", "x", "y", "z", "x٣", "x10", "x0", "w", "foo", "_a", "é", "x²", "ж1", "sin")
_NUMBERS = ("0", "2", "10", "2.5", "1e-3", "2E+2", "1e400", ".5", "5.", "٣", "３.５", "1e", "1E+", ".", ".e5", "²", "½")
_VALID = 8
_CALLS = ("sin", "cos", "exp", "log", "sqrt", "tan", "foo", "x1", "Sin")
_SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u00a0")
_FRAGMENTS = _NAMES + _NUMBERS + _SPACES + ("+", "-", "*", "/", "^", "(", ")", "sin(", "--", "^-", "#", ",")


def _fuzz_expression(rng, depth):
    """A random string of the grammar, with unary and ^ chains, broken now and then by a random fragment."""
    def spaced(text):
        return rng.choice(_SPACES) + text + rng.choice(_SPACES)

    r = rng.random()
    if depth <= 0 or r < 0.3:
        pool = _NAMES if rng.random() < 0.5 else _NUMBERS
        text = rng.choice(pool[:_VALID] if rng.random() < 0.8 else pool)
    elif r < 0.4:
        text = "-" * rng.randint(1, 4) + _fuzz_expression(rng, depth - 1)
    elif r < 0.5:
        text = "^".join(_fuzz_expression(rng, depth - 1) for _ in range(rng.randint(2, 4)))
    elif r < 0.6:
        text = rng.choice(_CALLS) + rng.choice(_SPACES) + "(" + _fuzz_expression(rng, depth - 1) + ")"
    elif r < 0.7:
        text = "(" + _fuzz_expression(rng, depth - 1) + ")"
    else:
        text = _fuzz_expression(rng, depth - 1) + rng.choice("+-*/^") + _fuzz_expression(rng, depth - 1)
    if rng.random() < 0.03:
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(_FRAGMENTS + ("",)) + text[cut + rng.randint(0, 1):]
    return spaced(text)


def _leaked_a_bare_value_error(text):
    """Where the reference parser raised float()'s or int()'s ValueError, with no offset: a digit that is not a
    decimal digit (such as ²) in a number or a name, or a '.' with a decimal digit on neither side (such as .e5)."""
    return any(c.isdigit() and not c.isdecimal() for c in text) or re.search(r"(?<!\d)\.(?!\d)", text)


def _outcome(parser, text):
    try:
        return repr(parser(text, 3))  # repr: -0.0 is not 0.0, and a NaN constant equals itself
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_parse_matches_the_recursive_descent_reference():
    from oracles import parse as reference_parse

    rng = random.Random(2301)
    counts = {"tree": 0, "error": 0, "bare": 0}
    for k in range(50_000):
        if k % 2:
            text = _fuzz_expression(rng, rng.randint(0, 5))
        else:
            text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 8)))
        want, got = _outcome(reference_parse, text), _outcome(parse, text)
        if isinstance(want, tuple) and want[0] is ValueError:
            # the one intended difference: such an input is now a ParseError or UnknownVariable at its token
            assert _leaked_a_bare_value_error(text), text
            assert got[0] in (ParseError, UnknownVariable) and 0 <= got[2] <= len(text), (text, got)
            counts["bare"] += 1
            continue
        assert got == want, text
        counts["error" if isinstance(want, tuple) else "tree"] += 1
    assert min(counts.values()) >= 1000, counts


def _leaf(n):
    return st.one_of(
        st.integers(-3, 3).map(lambda v: Const(float(v))),
        st.integers(0, n - 1).map(Var),
    )


def _exprs(n):
    return st.recursive(
        _leaf(n),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
            st.tuples(sub, sub).map(lambda ab: ab[0] - ab[1]),
            st.tuples(sub, sub).map(lambda ab: ab[0] * ab[1]),
            sub.map(lambda a: -a),
            sub.map(lambda a: Call("sin", a)),
            sub.map(lambda a: Call("exp", a)),
            st.tuples(sub, st.integers(2, 3)).map(lambda ae: Pow(ae[0], Const(float(ae[1])))),
        ),
        max_leaves=12,
    )


@given(_exprs(2))
def test_unparse_parse_roundtrip(e):
    # unparse(parse(t)) reparses to a structurally identical tree
    reparsed = parse(unparse(e), 2)
    assert parse(unparse(reparsed), 2) == reparsed
    # and semantics agree at a probe point (when defined there)
    point = [0.37, -0.58]
    try:
        expected = evaluate(e, point)
    except DomainError:
        return
    assert evaluate(reparsed, point) == pytest.approx(expected, abs=1e-12)


@given(_exprs(2))
def test_parsed_roundtrip_is_identity(e):
    # for trees that came from the parser, unparse is a faithful inverse
    t = parse(unparse(e), 2)
    assert parse(unparse(t), 2) == t


def test_diff_table_rules():
    assert unparse(diff(parse("sin(x1)", 1), 0)) == "cos(x1)"
    assert unparse(diff(parse("x1*x2", 2), 0)) == "x2"
    assert diff(parse("x2", 2), 0) == Const(0.0)
    assert unparse(diff(parse("log(x1)", 1), 0)) == "1/x1"


def test_diff_exp_square_at_one():
    # finite-difference oracle pins 2e
    e = diff(parse("exp(x1^2)", 1), 0)
    assert evaluate(e, [1.0]) == pytest.approx(2.0 * math.e, rel=1e-12)


def _random_smooth(rng, n):
    from npk.sampling import random_expr

    return random_expr(rng, n)


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(11)
    step = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = _random_smooth(rng, n)
        i = int(rng.integers(0, n))
        point = rng.uniform(-0.9, 0.9, n)
        up, down = point.copy(), point.copy()
        up[i] += step
        down[i] -= step
        fd = (evaluate(f, up) - evaluate(f, down)) / (2 * step)
        sym = evaluate(diff(f, i), point)
        assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))


def test_diff_linear_and_leibniz_sampled():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        f, g = _random_smooth(rng, n), _random_smooth(rng, n)
        i = int(rng.integers(0, n))
        point = rng.uniform(-0.9, 0.9, n)
        lin = evaluate(diff(f + g, i), point) - (
            evaluate(diff(f, i), point) + evaluate(diff(g, i), point)
        )
        assert abs(lin) <= 1e-8 * (1 + abs(evaluate(diff(f, i), point)))
        prod = evaluate(diff(f * g, i), point)
        expected = evaluate(diff(f, i), point) * evaluate(g, point) + evaluate(
            f, point
        ) * evaluate(diff(g, i), point)
        assert abs(prod - expected) <= 1e-8 * (1 + abs(expected))


def test_eval_examples():
    assert evaluate(parse("sin(x1)", 1), [math.pi / 2]) == pytest.approx(1.0)
    assert evaluate(parse("log(x1)", 1), [math.e]) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        evaluate(parse("x1/x2", 2), [1.0, 0.0])
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)", 1), [-1.0])
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x1)", 1), [0.0])


def test_lie_bracket_examples():
    d1, d2 = VectorField((Const(1.0), Const(0.0))), VectorField((Const(0.0), Const(1.0)))
    assert all(c == Const(0.0) for c in lie_bracket(d1, d2).components)
    x1_d2 = VectorField((Const(0.0), Var(0)))
    out = lie_bracket(d1, x1_d2)
    assert out.components == (Const(0.0), Const(1.0))
    theta = VectorField((parse("x1*x2", 2), parse("sin(x1)", 2)))
    self_bracket = lie_bracket(theta, theta)
    for c in self_bracket.components:
        for point in ([0.3, 0.7], [-0.5, 0.2]):
            assert evaluate(c, point) == pytest.approx(0.0, abs=1e-12)


def test_lie_bracket_jacobi_sampled():
    rng = np.random.default_rng(13)
    from npk.sampling import random_polynomial

    for _ in range(10):
        fields = [
            VectorField((random_polynomial(rng, 2), random_polynomial(rng, 2)))
            for _ in range(3)
        ]
        a, b, c = fields
        total = (
            lie_bracket(a, lie_bracket(b, c)).components,
            lie_bracket(b, lie_bracket(c, a)).components,
            lie_bracket(c, lie_bracket(a, b)).components,
        )
        for point in rng.uniform(-0.8, 0.8, (5, 2)):
            for i in range(2):
                s = sum(evaluate(t[i], point) for t in total)
                assert abs(s) <= 1e-8


def test_exterior_derivative_examples():
    f = form(2, 0, {(): parse("x1*x2", 2)})
    df = exterior_derivative(f)
    assert [(unparse(g), idx) for g, idx in df.terms] == [("x2", (0,)), ("x1", (1,))]

    closed = form(2, 1, {(0,): parse("x2", 2), (1,): parse("x1", 2)})
    assert exterior_derivative(closed).terms == ()

    w = form(2, 1, {(1,): parse("x1", 2)})
    dw = exterior_derivative(w)
    assert [(unparse(g), idx) for g, idx in dw.terms] == [("1", (0, 1))]


def test_dd_zero_sampled():
    rng = np.random.default_rng(14)
    from npk.sampling import random_polynomial

    for n in (2, 3):
        for degree in range(0, n - 1):
            coeffs = {}
            import itertools

            for idx in itertools.combinations(range(n), degree):
                coeffs[idx] = random_polynomial(rng, n, 3)
            dd = exterior_derivative(exterior_derivative(form(n, degree, coeffs)))
            for g, _ in dd.terms:
                for point in rng.uniform(-0.9, 0.9, (50, n)):
                    assert abs(evaluate(g, point)) <= 1e-10


def test_contract_form():
    w = form(2, 2, {(0, 1): Const(1.0)})
    v1 = VectorField((Const(1.0), Const(0.0)))
    v2 = VectorField((Const(0.0), Const(1.0)))
    assert evaluate(contract_form(w, [v1, v2]), [0.0, 0.0]) == 1.0
    assert evaluate(contract_form(w, [v2, v1]), [0.0, 0.0]) == -1.0
    assert evaluate(contract_form(w, [v1, v1]), [0.0, 0.0]) == 0.0


def test_index_sign_helpers_agree():
    # inserting i into an increasing tuple is sorting (i, *idx): same sign, same tuple
    import itertools

    from npk.expr import _insert_index, _perm_sign, _sort_indices

    for idx in itertools.combinations(range(4), 2):
        for i in range(4):
            assert _insert_index(i, idx) == _sort_indices((i,) + idx)
    assert _sort_indices((2, 0, 1)) == (_perm_sign((1, 2, 0)), (0, 1, 2)) == (1, (0, 1, 2))
    assert _sort_indices((1, 0)) == (-1, (0, 1))
    assert _sort_indices((1, 1)) is None


# -- the Polynomial leaf -------------------------------------------------------------------


def _tree(terms):
    """The tree the smart constructors fold c*x_i*x_j^e + ... to, term by term."""
    from npk.expr import add, const, mul, power, var

    out = None
    for c, m in terms:
        term = const(c)
        for i, e in enumerate(m):
            if e:
                term = mul(term, var(i) if e == 1 else power(var(i), const(float(e))))
        out = term if out is None else add(out, term)
    return out


def test_polynomial_folds_as_add_and_mul():
    # zero coefficients drop, leading constants fold (signed zeros as add folds them), a 1 is absorbed
    from npk.expr import Polynomial, _substitute, polynomial

    rng = np.random.default_rng(51)
    coefficients = [0.0, -0.0, 1.0, -1.0, 2.5, -0.125]
    kinds = set()
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            m = tuple(int(e) for e in rng.integers(0, 3, n) * (rng.random(n) < 0.4))
            terms.append((coefficients[int(rng.integers(0, len(coefficients)))], m))
        leaf, tree = polynomial(terms), _tree(terms)
        kinds.add(type(leaf))
        if isinstance(tree, Const):
            assert isinstance(leaf, Const) and leaf.value.hex() == tree.value.hex()
            continue
        assert isinstance(leaf, Polynomial) and unparse(leaf) == unparse(tree)
        assert _substitute(leaf, [Var(i) for i in range(n)]) == tree
        point = rng.uniform(-2.0, 2.0, n)
        assert evaluate(leaf, point).hex() == evaluate(tree, point).hex()
    assert kinds == {Polynomial, Const}


def test_leaf_in_fewer_variables_reads_like_its_tree():
    # a leaf drawn over x1, x2 has no x3: its derivative there is 0 and its exact coefficients pad with zeros
    from npk.cohomology import expr_to_poly
    from npk.expr import Polynomial, polynomial

    leaf = polynomial([(0.5, (0, 0)), (2.0, (1, 2))])
    spelled = parse(unparse(leaf), 3)
    assert diff(leaf, 2) == diff(spelled, 2) == Const(0.0)
    assert expr_to_poly(leaf, 3) == expr_to_poly(spelled, 3) == {(0, 0, 0): 0.5, (1, 2, 0): 2}
    # a repeated monomial sums and terms that cancel drop, in the tree walk's order: one re-enters last
    repeats = polynomial([(1.5, (1, 0)), (0.25, (0, 2)), (-0.5, (1, 0)), (1.0, (1, 1)), (-1.0, (1, 1)), (3.0, (1, 1))])
    cancels = polynomial([(2.0, (0, 1)), (-2.0, (0, 1))])
    assert list(expr_to_poly(repeats, 3).items()) == [((1, 0, 0), 1), ((0, 2, 0), 0.25), ((1, 1, 0), 3)]
    assert expr_to_poly(cancels, 3) == {}
    for leaf in (repeats, cancels):
        assert isinstance(leaf, Polynomial)
        assert list(expr_to_poly(leaf, 3).items()) == list(expr_to_poly(parse(unparse(leaf), 3), 3).items())


def test_substitution_into_a_leaf_is_substitution_into_its_tree():
    # what lift-map-compose runs: phi(h_1, .., h_n) with phi and the h_j leaves
    from npk.expr import _substitute, polynomial

    phi = polynomial([(0.5, (0, 0)), (1.0, (1, 0)), (-2.0, (1, 2)), (3.0, (0, 0)), (1.0, (2, 0))])
    assert unparse(phi) == "0.5 + x1 + -2*x1*x2^2 + 3 + x1^2"
    h = [polynomial([(0.25, (1, 0)), (-1.0, (0, 1))]), parse("sin(x2) + 1", 2)]
    composed = _substitute(phi, h)
    assert composed == _substitute(parse(unparse(phi), 2), h)
    for point in ([0.3, -0.7], [-0.9, 0.4]):
        expected = evaluate(phi, [evaluate(g, point) for g in h])
        assert evaluate(composed, point) == pytest.approx(expected, rel=1e-14)


# -- evaluation over arrays of samples against the scalar path ---------------------------------

_ARRAY_CASES = (
    "3 + cos(x1)", "sin(2*x1)*cos(x1) - 0.5*sin(3*x1) + 0.25", "2.5", "-x2", "x1^2 - 3*x1*x2 + x2^3",
    "exp(x1)/(2 + x2)", "log(x1 + 2) - sqrt(x2 + 3)", "(x1 + 2)^1.5", "(x1 + 2)^(x2 + 1)", "2^x1", "x1^-2 + 1",
    # some sample leaves the domain or overflows
    "log(x1)", "sqrt(x1)", "sqrt(x1*x1)", "1/x1", "x1^x2", "1/(x1 - x2)", "exp(1000*x1)", "x1^-1", "x1^0.5", "sin(exp(800*x2))",
    "log(x1) + x3", "x3 + log(x1)", "2*x3",
)


def _scalar_run(e, columns):
    try:
        return np.array([evaluate(e, list(p)) for p in zip(*columns)]), None
    except (ArithmeticError, ValueError) as exc:
        return None, exc


@pytest.mark.parametrize("text", _ARRAY_CASES)
def test_array_evaluate_matches_scalar_samples(text):
    from npk.sampling import random_polynomial, random_trig_polynomial

    rng = np.random.default_rng(5)
    x1 = np.concatenate([np.linspace(-1.0, 1.0, 9), rng.uniform(-3.0, 3.0, 8)])
    x2 = np.concatenate([np.linspace(1.0, -1.0, 9), rng.uniform(-3.0, 3.0, 8)])
    exprs = [parse(text, 3)]
    if text == "3 + cos(x1)":  # drawn leaves and trig polynomials too
        exprs += [random_polynomial(rng, 2, degree=3) for _ in range(4)] + [random_trig_polynomial(rng) for _ in range(4)]
    for e in exprs:
        expected, error = _scalar_run(e, [x1, x2])
        for point in ([x1, x2], np.array([x1, x2])):
            if error is not None:
                with pytest.raises(type(error)) as caught:
                    evaluate(e, point)
                assert str(caught.value) == str(error)
                continue
            got = evaluate(e, point)
            assert isinstance(got, np.ndarray) and got.shape == x1.shape
            close = (got == expected) | (np.abs(got - expected) <= 4 * np.spacing(np.abs(expected)))
            assert close.all(), (text, got, expected)
