"""Time A-arithmetic, lifts, A-function operations and Der(A) validation; print one JSON object.

Usage: python scripts/bench_weil.py [--section NAME]

Each section is one key of the output; --section (repeatable) runs only the
named ones: products, lift, afunction, block, derivation_basis, sampling,
cohomology, parse.  A full run takes about six minutes on two shared vCPUs.

Prints the per-call microseconds of WeilAlgebra.mul_coeffs,
WeilAlgebra.left_multiplication and AElement.invert at dims 2, 4, 6, 16, 27
and 100 (best of five timing rounds); the per-call microseconds of lift for
each primitive (sin, cos, exp, log, sqrt, 1/x, x^2, x^3, x^2.5) of one
variable, and of the polynomial 2.5*x^2 - 0.7*x (constant factors), at a
near point whose lift memo is emptied before each call, over
R[x]/(x^2), R[x]/(x^4), R[x,y,z]/(x^3,y^3,z^3) and R[x,y,z]/(x^5,y^5,z^5)
(dim 125, height 12) (best of five rounds);
the per-call microseconds of the A-function layer at dims 2, 6 and 27 on a
2-dim chart (best of five rounds): the product of two lifted functions,
apply_fn of a random field on a random function, the bracket of two random
fields (each call on fresh copies of the fields), one evaluate of the product of two lifted functions at a near
point whose lifts are already memoized, exterior_derivative of a random 1-form, and
h0_check (5 samples) of lift(f + g) - lift(f) - lift(g) + a, as in the h0 model, and one evaluate, at that
memoized point, of a lifted function, of a prolonged random base field and of a prolonged random 2-form
on two such fields; the per-call microseconds of building
(through the public constructor), evaluating and squaring a function of one row
and one of two rows, whose cost is mostly fixed; and, at dims 2, 6, 16, 27, 48,
100 and 216, the seconds of build_algebra and of validating the basis of
Der(A) again element by element with is_derivation (best of three runs, or
one run when a run takes over a second), the per-call microseconds of
derivation_basis on a fresh algebra (exact solve, one-scatter build and
check; best of 25 runs, or of fewer once they take over a second), and the
per-call microseconds of is_derivation on the last basis element (best of
five rounds).
The block section times, at dims 2, 6 and 27 on a 2-dim chart, one lift and
one evaluate of the product of two lifted functions on a block of N = 1, 5
and 10 near points against N single-point calls, each with empty lift memos
(best of five rounds), and one evaluate of a lifted function, a prolonged
field and a prolonged 2-form, as in the afunction section, on a block of 5
whose lifts are already memoized, and the two routes to the derivative of a
prolonged form on prolonged fields at such a block: palais_eval of a 1-form
on box^2 and of a 2-form on box^3 against evaluate of its
exterior_derivative, built once; on a checkout without blocks
(npk.points.NearPoints) it times the single-point calls only.
The sampling section times, at dims 2, 6 and 27 on a 2-dim chart, drawing
one random near point, a block of 5 (random_near_points: a NearPoints, or a
list of five points on older checkouts; five single draws on a checkout
without it), one random_polynomial in 2 variables (the
same one on every call, the generator's state reset before each), and
WeilAlgebra.element of a coefficient array (best of five rounds).
The cohomology section times, at dims 2 and 6, a_primitive of a closed
combination d(a_1 omega_1 + a_2 omega_2) of each degree p on box^2 and box^3
(omega_k random polynomial base forms of degree p - 1, as the poincare model
draws them), and circle_primitive of a sum of two A-scaled random
trigonometric 1-forms, as the circle model draws them (best of five rounds).
The parse section times parse over a seeded corpus of 400 random expressions
in 3 variables (random_expr, printed by unparse), per expression (best of
five rounds), and the seconds to parse a 10^4-term sum x1 + ... + x1 and a
10^4-deep nesting sin(sin(...(x1)...)) (best of three runs); the nesting is
null on a checkout whose parser recurses and so exceeds the recursion limit.
Every timing given as a best of runs (best_seconds) follows one untimed run of
the same call, a warm-up: the first calls on fresh algebras in a process run up
to twice as slow as later ones.
It also prints the OpenBLAS thread count, read from the library numpy loaded.
The script does not pin it, so it times what `npk algebra` sees.

npk is imported from PYTHONPATH when that is set, else from this checkout's
src, so the one script times any checkout:
PYTHONPATH=OTHER/src python scripts/bench_weil.py
"""

import argparse
import ctypes
import json
import os
import platform
import sys
import time
import timeit

if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from npk.cohomology import ACombination, a_primitive, circle_primitive, h0_check  # noqa: E402
from npk.expr import form  # noqa: E402
from npk.expr import parse, unparse  # noqa: E402
from npk.fields import AVectorField, bracket, prolong  # noqa: E402
from npk.forms import AForm, exterior_derivative, palais_eval, prolong_form  # noqa: E402
from npk.functions import AFunction, ScalarGenerator, lifted_function  # noqa: E402
import npk.points  # noqa: E402
import npk.sampling  # noqa: E402
from npk.points import Chart, NearPoint, lift  # noqa: E402
from npk.sampling import (  # noqa: E402
    random_a_element,
    random_expr,
    random_base_field,
    random_base_form,
    random_field,
    random_function,
    random_near_point,
    random_polynomial,
    random_trig_polynomial,
)
from npk.weil import build_algebra, derivation_basis, is_derivation, parse_presentation  # noqa: E402

PRODUCT_ALGEBRAS = (
    "R[x]/(x^2)",
    "R[x]/(x^4)",
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)",
    "R[x,y]/(x^4,y^4)",
    "R[x,y,z]/(x^3,y^3,z^3)",
    "R[x,y,z]/(x^5,y^5,z^4)",
)
LIFT_ALGEBRAS = ("R[x]/(x^2)", "R[x]/(x^4)", "R[x,y,z]/(x^3,y^3,z^3)", "R[x,y,z]/(x^5,y^5,z^5)")
LIFT_PRIMITIVES = ("sin(x1)", "cos(x1)", "exp(x1)", "log(x1)", "sqrt(x1)", "1/x1", "x1^2", "x1^3", "x1^2.5",
                   "2.5*x1^2 - 0.7*x1")
AFUNCTION_ALGEBRAS = ("R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "R[x,y,z]/(x^3,y^3,z^3)")
BLOCK_SIZES = (1, 5, 10)
COHOMOLOGY_ALGEBRAS = ("R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)")
DERIVATION_ALGEBRAS = ("R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "R[x,y]/(x^4,y^4)", "R[x,y,z]/(x^3,y^3,z^3)",
                       "R[x,y,z]/(x^4,y^4,z^3)", "R[x,y,z]/(x^5,y^5,z^4)", "R[x,y,z]/(x^6,y^6,z^6)")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be read."""
    # perfbench/run.py has the same reader, but importing it pins OpenBLAS to one thread
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def best_seconds(fn, fresh=lambda: None, runs=3) -> float:
    """Fastest of `runs` runs of fn(fresh()), or fewer once they take over a second; fresh is not timed.

    One untimed run of fn(fresh()) comes first, as a warm-up: the first calls on
    fresh algebras in a process run up to twice as slow as later ones.
    """
    fn(fresh())
    times = []
    while len(times) < runs and sum(times) <= 1.0:
        arg = fresh()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


def products(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, algebra.dim), rng.uniform(-1, 1, algebra.dim)
    u = algebra.element(x) + algebra.scalar(2.0)
    return {
        "algebra": text,
        "dim": algebra.dim,
        "mul_coeffs_us": per_call_us(lambda: algebra.mul_coeffs(x, y)),
        "left_multiplication_us": per_call_us(lambda: algebra.left_multiplication(x)),
        "invert_us": per_call_us(u.invert),
    }


def lifts(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    rng = np.random.default_rng(0)
    xi = NearPoint(algebra, Chart.cube(1), [algebra.element([0.3, *rng.uniform(-1, 1, algebra.dim - 1)])])

    def fresh_lift(f):
        xi._lifts.clear()  # a point's lifts are memoized on it
        return lift(f, xi)

    out = {"algebra": text, "dim": algebra.dim}
    for fn in LIFT_PRIMITIVES:
        f = parse(fn, 1)
        out[f"{fn}_us"] = per_call_us(lambda: fresh_lift(f))
    return out


def fresh(x: AVectorField) -> AVectorField:
    return AVectorField(x.algebra, x.chart, x.components)


def afunctions(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    chart = Chart.cube(2)
    rng = np.random.default_rng(0)
    f, g = parse("sin(x1)*x2 + x1^2", 2), parse("exp(x1 - x2)", 2)
    x, y = random_field(rng, algebra, chart), random_field(rng, algebra, chart)
    phi = random_function(rng, algebra, chart, max_terms=4, max_monomial=2, transcendental=True)
    while len(phi.terms) < 3:  # a few generators to act on, the same draw on every checkout
        phi = random_function(rng, algebra, chart, max_terms=4, max_monomial=2, transcendental=True)
    product = lifted_function(f, algebra, chart) * lifted_function(g, algebra, chart)
    xi = random_near_point(rng, algebra, chart)
    product.evaluate(xi)  # fill the point's lift memo
    # one- and two-row functions, whose cost is mostly fixed
    u, v = ScalarGenerator(1 % algebra.dim, parse("sin(x1)", 2)), ScalarGenerator(0, parse("x2", 2))
    a, b = (algebra.element(rng.uniform(-1, 1, algebra.dim)) for _ in range(2))
    one_terms, two_terms = [(a, (u,))], [(a, (u,)), (b, (v, u))]
    one, two = AFunction(algebra, chart, one_terms), AFunction(algebra, chart, two_terms)
    one.evaluate(xi), two.evaluate(xi)
    psi = random_function(rng, algebra, chart, max_terms=4, max_monomial=2, transcendental=True)
    eta = AForm(algebra, chart, 1, ((phi, (0,)), (psi, (1,))))
    closed = (lifted_function(f + g, algebra, chart) - lifted_function(f, algebra, chart)
              - lifted_function(g, algebra, chart) + AFunction.constant(a, chart))
    prolonged = prolonged_parts(rng, algebra, chart, f)
    for run in prolonged.values():
        run(xi)  # fill the point's lift memo
    return {
        "algebra": text,
        "dim": algebra.dim,
        "lifted_product_us": per_call_us(
            lambda: lifted_function(f, algebra, chart) * lifted_function(g, algebra, chart)
        ),
        # a fresh copy of each field per call, so that no call reuses a field's memo of its images
        "apply_fn_us": per_call_us(lambda: fresh(x).apply_fn(phi)),
        "bracket_us": per_call_us(lambda: bracket(fresh(x), fresh(y))),
        "evaluate_us": per_call_us(lambda: product.evaluate(xi)),
        "build_one_row_us": per_call_us(lambda: AFunction(algebra, chart, one_terms)),
        "build_two_rows_us": per_call_us(lambda: AFunction(algebra, chart, two_terms)),
        "evaluate_one_row_us": per_call_us(lambda: one.evaluate(xi)),
        "evaluate_two_rows_us": per_call_us(lambda: two.evaluate(xi)),
        "multiply_one_row_us": per_call_us(lambda: one * one),
        "multiply_two_rows_us": per_call_us(lambda: two * two),
        "exterior_derivative_us": per_call_us(lambda: exterior_derivative(eta)),
        "h0_check_us": per_call_us(lambda: h0_check(closed, samples=5)),
        **{f"evaluate_{name}_us": per_call_us(lambda: run(xi)) for name, run in prolonged.items()},
    }


def prolonged_parts(rng, algebra, chart, f) -> dict:
    """Evaluations at a point or block, by name: a lifted function, a prolonged field, a prolonged 2-form on two."""
    lifted = lifted_function(f, algebra, chart)
    fields = [prolong(random_base_field(rng, chart), algebra, chart) for _ in range(2)]
    eta = prolong_form(random_base_form(rng, chart, 2), algebra, chart)
    return {
        "lifted": lifted.evaluate,
        "prolonged_field": fields[0].evaluate,
        "prolonged_form": lambda xi: eta.evaluate(fields, xi),
    }


def blocks(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    chart = Chart.cube(2)
    rng = np.random.default_rng(0)
    f, g = parse("sin(x1)*x2 + x1^2", 2), parse("exp(x1 - x2)", 2)
    product = lifted_function(f, algebra, chart) * lifted_function(g, algebra, chart)
    out = {"algebra": text, "dim": algebra.dim}
    for n in BLOCK_SIZES:
        points = [random_near_point(rng, algebra, chart) for _ in range(n)]

        def fresh(run, *at):
            for xi in at:
                xi._lifts.clear()  # a point's or block's lifts are memoized on it
                run(xi)

        times = {
            "lift_points_us": per_call_us(lambda: fresh(lambda xi: lift(f, xi), *points)),
            "evaluate_points_us": per_call_us(lambda: fresh(product.evaluate, *points)),
        }
        if hasattr(npk.points, "NearPoints"):
            block = npk.points.NearPoints.stack(points)
            times["lift_block_us"] = per_call_us(lambda: fresh(lambda xi: lift(f, xi), block))
            times["evaluate_block_us"] = per_call_us(lambda: fresh(product.evaluate, block))
        out[f"n{n}"] = times
    if hasattr(npk.points, "NearPoints"):
        block = npk.points.NearPoints.stack([random_near_point(rng, algebra, chart) for _ in range(5)])
        for name, run in prolonged_parts(rng, algebra, chart, f).items():
            run(block)  # fill the block's lift memo
            out[f"evaluate_{name}_block5_us"] = per_call_us(lambda: run(block))
        for n, degree in ((2, 1), (3, 2)):  # the two routes to d(eta) on prolonged fields, as palais-route probes
            chart_n = Chart.cube(n)
            eta = prolong_form(random_base_form(rng, chart_n, degree), algebra, chart_n)
            thetas = [random_base_field(rng, chart_n) for _ in range(degree + 1)]
            fields = [prolong(theta, algebra, chart_n) for theta in thetas]
            d_eta = exterior_derivative(eta)
            block = npk.points.NearPoints.stack([random_near_point(rng, algebra, chart_n) for _ in range(5)])
            d_eta.evaluate(fields, block)  # fill the block's lift memo
            key = f"p{degree}_box{n}_block5_us"
            out[f"palais_eval_{key}"] = per_call_us(lambda: palais_eval(eta, thetas, block))
            out[f"exterior_derivative_evaluate_{key}"] = per_call_us(lambda: d_eta.evaluate(fields, block))
    return out


def derivations(text: str) -> dict:
    presentation = parse_presentation(text)
    algebra = build_algebra(presentation)
    basis = derivation_basis(algebra)
    return {
        "algebra": text,
        "dim": algebra.dim,
        "derivations": len(basis),
        "build_s": best_seconds(lambda _: build_algebra(presentation)),
        "derivation_basis_us": 1e6 * best_seconds(derivation_basis, lambda: build_algebra(presentation), runs=25),
        "validation_s": best_seconds(lambda _: all(is_derivation(algebra, d.endo) for d in basis)),
        "is_derivation_us": per_call_us(lambda: is_derivation(algebra, basis[-1].endo)),
    }


def samplings(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    chart = Chart.cube(2)
    rng = np.random.default_rng(0)
    coeffs = rng.uniform(-1, 1, algebra.dim)
    block = getattr(npk.sampling, "random_near_points", None)
    if block is None:
        def block(rng, algebra, chart, k):
            return [random_near_point(rng, algebra, chart) for _ in range(k)]
    state = rng.bit_generator.state

    def polynomial():
        rng.bit_generator.state = state  # the same polynomial on every call and every checkout
        return random_polynomial(rng, chart.n)

    return {
        "algebra": text,
        "dim": algebra.dim,
        "near_point_us": per_call_us(lambda: random_near_point(rng, algebra, chart)),
        "near_points_5_us": per_call_us(lambda: block(rng, algebra, chart, 5)),
        "polynomial_us": per_call_us(polynomial),
        "element_us": per_call_us(lambda: algebra.element(coeffs)),
    }


def cohomologies(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    rng = np.random.default_rng(0)
    out = {"algebra": text, "dim": algebra.dim}
    for n in (2, 3):
        chart = Chart.cube(n)
        for p in range(1, n + 1):
            terms = tuple((random_a_element(rng, algebra), random_base_form(rng, chart, p - 1)) for _ in range(2))
            eta = ACombination(algebra, n, p - 1, terms).differential()  # closed by construction
            out[f"a_primitive_box{n}_p{p}_us"] = per_call_us(lambda: a_primitive(eta, chart))
    terms = tuple((random_a_element(rng, algebra), form(1, 1, {(0,): random_trig_polynomial(rng)})) for _ in range(2))
    circle = ACombination(algebra, 1, 1, terms)
    out["circle_primitive_us"] = per_call_us(lambda: circle_primitive(circle))
    return out


def parses(n: int) -> dict:
    rng = np.random.default_rng(0)
    corpus = [unparse(random_expr(rng, n)) for _ in range(400)]
    total = "+".join(["x1"] * 10**4)
    nested = "sin(" * 10**4 + "x1" + ")" * 10**4
    try:
        nesting_s = best_seconds(lambda _: parse(nested, n))
    except RecursionError:
        nesting_s = None
    return {
        "variables": n,
        "corpus_parse_us": per_call_us(lambda: [parse(text, n) for text in corpus]) / len(corpus),
        "sum_10000_s": best_seconds(lambda _: parse(total, n)),
        "nesting_10000_s": nesting_s,
    }


SECTIONS = {
    "products": (products, PRODUCT_ALGEBRAS),
    "lift": (lifts, LIFT_ALGEBRAS),
    "afunction": (afunctions, AFUNCTION_ALGEBRAS),
    "block": (blocks, AFUNCTION_ALGEBRAS),
    "derivation_basis": (derivations, DERIVATION_ALGEBRAS),
    "sampling": (samplings, AFUNCTION_ALGEBRAS),
    "cohomology": (cohomologies, COHOMOLOGY_ALGEBRAS),
    "parse": (parses, (3,)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Time npk's layers; print one JSON object.")
    parser.add_argument("--section", action="append", choices=list(SECTIONS),
                        help="run only this section (repeatable); default: all")
    chosen = parser.parse_args().section or list(SECTIONS)
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    for name in SECTIONS:
        if name in chosen:
            run, algebras = SECTIONS[name]
            out[name] = [run(text) for text in algebras]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
