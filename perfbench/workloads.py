"""The benchmark's three workloads over npk's public API.

A workload is built once from its seed (``WORKLOADS``), which is the set-up.
Its job is a list of units, each a call into npk that returns the
program's output; ``verify`` then checks every output, outside the timed
region.  Sizes are fixed per ``size`` ("full" for measuring, "tiny" for
the smoke test), never chosen from the seed.

npk is reached through module attributes at call time (``npk.points.lift``,
not a name bound at import), so that the traced run sees every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import npk.checks
import npk.expr
import npk.fields
import npk.forms
import npk.points
import npk.sampling
import npk.weil

# -- suite --------------------------------------------------------------------

# The gate's own seed, as `npk check` runs it by default.  The identity records
# are not re-seeded per run: on these configurations palais-route alone takes
# 0.01 s to 11 s depending on the gate seed (it draws the form degree), so a
# seeded gate would measure the seed rather than the code.
GATE_SEED = 0
SUITE_CHECKS = (
    ("R[x]/(x^2)", "box:[-1,1]^3"),
    ("R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "box:[-1,1]^2"),
)
SUITE_MODELS = (
    ("poincare", "R[x]/(x^2)", "box:[-1,1]^3"),
    ("circle", "R[x]/(x^2)", "circle"),
    ("h0", "R[x,y]/(x^2,x*y,y^2)", "box:[-1,1]^2"),
)

# -- pointwise ------------------------------------------------------------------

# (presentation, chart dimension): dual numbers, jets, and mixed partials (dim 27)
POINTWISE_ALGEBRAS = (
    ("R[x]/(x^2)", 2),
    ("R[x]/(x^4)", 3),
    ("R[x,y,z]/(x^3,y^3,z^3)", 3),
)

# -- algebra --------------------------------------------------------------------

# Named presentations and their known dim Der(A).
DER_DIMS = {
    "R[x]/(x^2)": 1,
    "R[x]/(x^3)": 2,
    "R[x]/(x^4)": 3,
    "R[x]/(x^5)": 4,
    "R[x]/(x^6)": 5,
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)": 10,
    "R[x,y,z]/(x^2,y^2,z^2)": 12,
    "R[x,y]/(x^4,y^4)": 24,
}
# Dimensions of the seeded family, one distinct presentation per entry.  Many
# cheap small algebras keep the unit count up; the SVD cost grows like dim^7, so
# the large end (dim 16) is left to a named presentation, whose cost does not
# depend on the seed.  Few distinct algebras of dims 4 and 5 exist here.
FAMILY_DIMS = (4, 5, 5, 6) + tuple(d for d in range(6, 13) for _ in range(4))

SIZES = {
    "full": {
        "suite_samples": 5,
        "suite_checks": None,
        "reused": 24, "points": 8, "one_shot": 48, "combos": 8, "maps": 4, "forms": 16,
        "named": tuple(DER_DIMS), "family": FAMILY_DIMS,
    },
    "tiny": {
        "suite_samples": 1,
        "suite_checks": ("jacobi", "lift-mul", "tangent-extension", "da-squared-zero"),
        "reused": 2, "points": 2, "one_shot": 2, "combos": 1, "maps": 1, "forms": 1,
        "named": ("R[x]/(x^3)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)"), "family": (4, 5),
    },
}

LIFT_TOL = 1e-9        # relative, lift homomorphism and exact re-derivations
ORACLE_TOL = 1e-6      # relative, central-difference oracle for the dual part
FD_STEP = 1e-5


@dataclass
class Unit:
    """One timed call into npk and the check of its output."""

    label: str
    run: Callable[[], object]
    verify: Callable[[object], str | None]
    output: object = None
    error: str | None = None


def _chart(text: str):
    return npk.points.Chart.parse(text)


def _algebra(text: str):
    return npk.weil.build_algebra(npk.weil.parse_presentation(text))


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    return float(np.max(np.abs(a - b))) <= tol * scale if a.size else True


# -- suite: the identity suites and the cohomology models ------------------------


def _check_record(record) -> str | None:
    if not math.isfinite(record.max_residual):
        return f"{record.check}: non-finite residual {record.max_residual}"
    if not record.passed:
        return f"{record.check}: residual {record.max_residual:.3e} failed"
    return None


def _check_report(report) -> str | None:
    for record in report.records:
        problem = _check_record(record)
        if problem:
            return problem
    return None if report.records else "no records"


def build_suite(seed: int, size: str) -> list[Unit]:
    cfg = SIZES[size]
    names = cfg["suite_checks"] or npk.checks.SUITES["all"]
    samples = cfg["suite_samples"]
    units: list[Unit] = []
    for pres, chart_text in SUITE_CHECKS:
        algebra, chart = _algebra(pres), _chart(chart_text)
        for name in names:
            units.append(Unit(
                f"{name} {pres} {chart_text}",
                lambda n=name, a=algebra, c=chart: npk.checks.check_identity(n, a, c, GATE_SEED, samples),
                _check_record,
            ))
    for k, (model, pres, chart_text) in enumerate(SUITE_MODELS):
        algebra, chart = _algebra(pres), _chart(chart_text)
        model_seed = seed * len(SUITE_MODELS) + k
        units.append(Unit(
            f"cohomology {model} {pres} {chart_text}",
            lambda m=model, a=algebra, c=chart, s=model_seed: npk.checks.run_cohomology_model(m, a, c, s, samples),
            _check_report,
        ))
    return units


# -- pointwise: forward-mode evaluation through near points -----------------------


def _central_gradient(f, base: np.ndarray) -> np.ndarray:
    grad = np.empty(len(base))
    for i in range(len(base)):
        h = FD_STEP * (1.0 + abs(base[i]))
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (npk.expr.evaluate(f, up) - npk.expr.evaluate(f, down)) / (2.0 * h)
    return grad


def _lift_unit(label: str, f, xi, checks: list[Callable]) -> Unit:
    def verify(out) -> str | None:
        if not _finite(out.coeffs):
            return "non-finite lift"
        for check in checks:
            problem = check(out)
            if problem:
                return problem
        return None

    return Unit(label, lambda: npk.points.lift(f, xi), verify)


def _dual_oracle(f, xi):
    """The eps-coefficient of a dual-number lift is sum_i d_i f(a) * b_i."""

    def check(out) -> str | None:
        base = xi.base()
        b = np.array([c.coeffs[1] for c in xi.coords])
        expected = float(_central_gradient(f, base) @ b)
        value = float(npk.expr.evaluate(f, base))
        if abs(out.coeffs[0] - value) > ORACLE_TOL * (1.0 + abs(value)):
            return f"dual real part {out.coeffs[0]!r} != f(a) {value!r}"
        if abs(out.coeffs[1] - expected) > ORACLE_TOL * (1.0 + abs(expected)):
            return f"dual eps part {out.coeffs[1]!r} != oracle {expected!r}"
        return None

    return check


def _homomorphism(f, g, xi):
    """lift(f*g) = lift(f) * lift(g) in A."""

    def check(out) -> str | None:
        expected = npk.points.lift(f, xi) * npk.points.lift(g, xi)
        if not _close(out.coeffs, expected.coeffs, LIFT_TOL):
            return "lift(f*g) != lift(f)*lift(g)"
        return None

    return check


def _map_unit(label: str, h, xi, target) -> Unit:
    def verify(out) -> str | None:
        base = xi.base()
        for hj, c in zip(h, out.coords):
            if not _finite(c.coeffs):
                return "non-finite lift_map"
            value = npk.expr.evaluate(hj, base)
            if abs(c.augmentation - value) > LIFT_TOL * (1.0 + abs(value)):
                return "lift_map base point != h(a)"
        return None

    return Unit(label, lambda: npk.points.lift_map(h, xi, target), verify)


def _field_unit(label: str, x, theta, xi) -> Unit:
    def verify(out) -> str | None:
        # a prolonged field evaluates to the lifts of its base components
        for value, comp in zip(out, theta.components):
            if not _finite(value.coeffs):
                return "non-finite field value"
            if not _close(value.coeffs, npk.points.lift(comp, xi).coeffs, LIFT_TOL):
                return "prolonged field value != lift of its component"
        return None

    return Unit(label, lambda: x.evaluate(xi), verify)


def _form_unit(label: str, eta, omega, fields, thetas, xi) -> Unit:
    def verify(out) -> str | None:
        # the real part is the base form evaluated on the base fields at the base point
        if not _finite(out.coeffs):
            return "non-finite form value"
        expected = npk.expr.evaluate(npk.expr.contract_form(omega, thetas), xi.base())
        if abs(out.augmentation - expected) > LIFT_TOL * (1.0 + abs(expected)):
            return f"form real part {out.augmentation!r} != base value {expected!r}"
        return None

    return Unit(label, lambda: eta.evaluate(fields, xi), verify)


def build_pointwise(seed: int, size: str) -> list[Unit]:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    sp, ex = npk.sampling, npk.expr
    units: list[Unit] = []
    for pres, n in POINTWISE_ALGEBRAS:
        algebra, chart = _algebra(pres), npk.points.Chart.cube(n)
        dual = algebra.dim == 2
        target = npk.points.Chart.cube(n, -1e6, 1e6)

        def points(k: int):
            return [sp.random_near_point(rng, algebra, chart) for _ in range(k)]

        def lift_checks(f, xi, factors=None) -> list[Callable]:
            checks = []
            if dual:
                checks.append(_dual_oracle(f, xi))
            if factors is not None:
                checks.append(_homomorphism(*factors, xi))
            return checks

        # expressions reused across many points: a diff cache pays off here
        for _ in range(cfg["reused"]):
            f = sp.random_expr(rng, n)
            for xi in points(cfg["points"]):
                units.append(_lift_unit(f"lift reused {pres}", f, xi, lift_checks(f, xi)))
        # expressions lifted once: a diff cache only costs here
        for _ in range(cfg["one_shot"]):
            f = sp.random_expr(rng, n)
            (xi,) = points(1)
            units.append(_lift_unit(f"lift once {pres}", f, xi, lift_checks(f, xi)))
        # larger expressions: three-term sums and two-factor products
        for _ in range(cfg["combos"]):
            f, g, h = (sp.random_expr(rng, n) for _ in range(3))
            total = ex.add(ex.add(f, g), h)
            for xi in points(cfg["points"] // 2):
                units.append(_lift_unit(f"lift sum {pres}", total, xi, lift_checks(total, xi)))
            product = ex.mul(f, g)
            for xi in points(cfg["points"] // 2):
                units.append(_lift_unit(f"lift product {pres}", product, xi, lift_checks(product, xi, (f, g))))
            once = ex.mul(g, h)
            (xi,) = points(1)
            units.append(_lift_unit(f"lift product once {pres}", once, xi, lift_checks(once, xi, (g, h))))
        # smooth maps R^n -> R^n
        for _ in range(cfg["maps"]):
            h = [sp.random_expr(rng, n) for _ in range(n)]
            for xi in points(cfg["points"]):
                units.append(_map_unit(f"lift_map {pres}", h, xi, target))
        # prolonged fields and a prolonged 2-form evaluated on them
        for _ in range(cfg["forms"]):
            thetas = [sp.random_base_field(rng, chart) for _ in range(2)]
            fields = [npk.fields.prolong(t, algebra, chart) for t in thetas]
            omega = sp.random_base_form(rng, chart, 2)
            eta = npk.forms.prolong_form(omega, algebra, chart)
            for xi in points(2):
                for x, t in zip(fields, thetas):
                    units.append(_field_unit(f"field evaluate {pres}", x, t, xi))
                units.append(_form_unit(f"form evaluate {pres}", eta, omega, fields, thetas, xi))
    return units


# -- algebra: Der(A) of fresh algebras ------------------------------------------------


def _standard_monomials(k: int, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    bounds = [min(g[i] for g in gens if g[i] and sum(g) == g[i]) for i in range(k)]
    return [
        m for m in itertools.product(*(range(b) for b in bounds))
        if not any(all(gi <= mi for gi, mi in zip(g, m)) for g in gens)
    ]


def _presentation_text(k: int, gens: list[tuple[int, ...]]) -> str:
    names = "xyz"[:k]

    def mono(g):
        return "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(g) if e)

    return f"R[{','.join(names)}]/({','.join(mono(g) for g in gens)})"


def _random_presentation(rng: np.random.Generator, dim: int, seen: set) -> str:
    """A monomial presentation in 2-3 variables with exactly `dim` standard monomials."""
    for _ in range(100_000):
        k = int(rng.integers(2, 4))
        pure = [tuple(int(rng.integers(2, 6)) if j == i else 0 for j in range(k)) for i in range(k)]
        mixed = []
        for _ in range(int(rng.integers(0, 3))):
            g = tuple(int(rng.integers(0, 4)) for _ in range(k))
            if sum(1 for e in g if e) >= 2 and sum(g) >= 2:
                mixed.append(g)
        box = math.prod(g[i] for i, g in enumerate(pure))
        if box < dim or (box != dim and not mixed):
            continue  # the basis lies in the box, and fills it when no mixed generator cuts it
        gens = pure + mixed
        basis = _standard_monomials(k, gens)
        key = (k, tuple(sorted(basis)))
        if len(basis) == dim and key not in seen:
            seen.add(key)
            return _presentation_text(k, gens)
    raise RuntimeError(f"no new presentation of dim {dim}")


def exact_der_dim(text: str) -> int:
    """dim Der(A) by exact elimination, independent of npk.weil.

    A derivation of R[x1..xk]/I, I monomial, is fixed by the values d(x_i) in A;
    it is well defined exactly when d(x^m) = sum_i m_i x^(m - e_i) d(x_i)
    vanishes in A for every generator x^m.  dim Der = k*dim - rank.
    """
    pres = npk.weil.parse_presentation(text)
    k, gens = pres.num_vars, list(pres.generators)
    basis = _standard_monomials(k, gens)
    index = {m: a for a, m in enumerate(basis)}
    dim = len(basis)
    rows = []
    for g in gens:
        # one equation per (generator, basis monomial of the result)
        eq: dict[int, dict[int, int]] = {}
        for i in range(k):
            if not g[i]:
                continue
            low = tuple(e - (j == i) for j, e in enumerate(g))
            for a, m in enumerate(basis):  # d(x_i) = sum_a u[i, a] e_a
                prod = tuple(x + y for x, y in zip(low, m))
                s = index.get(prod)
                if s is not None:
                    row = eq.setdefault(s, {})
                    row[i * dim + a] = row.get(i * dim + a, 0) + g[i]
        rows.extend(eq.values())
    return k * dim - _rank(rows, k * dim)


def _rank(rows: list[dict[int, int]], ncols: int) -> int:
    matrix = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / matrix[rank][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def _der_unit(text: str, expected: int | None) -> Unit:
    weil = npk.weil

    def run():
        algebra = weil.build_algebra(weil.parse_presentation(text))
        basis = weil.derivation_basis(algebra)
        valid = [weil.is_derivation(algebra, d.endo) for d in basis]
        return basis, valid

    def verify(out, expected=expected) -> str | None:
        basis, valid = out
        want = exact_der_dim(text) if expected is None else expected
        if len(basis) != want:
            return f"{text}: dim Der {len(basis)} != {want}"
        if not all(valid):
            return f"{text}: a basis element fails is_derivation"
        if basis:
            stacked = np.array([d.matrix.reshape(-1) for d in basis])
            if not _finite(stacked) or np.linalg.matrix_rank(stacked) != len(basis):
                return f"{text}: derivation basis is not of full rank"
        return None

    return Unit(f"algebra {text}", run, verify)


def build_algebra_workload(seed: int, size: str, der_dims: dict[str, int] = DER_DIMS) -> list[Unit]:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    units: list[Unit] = []
    seen = {
        (p.num_vars, tuple(sorted(_standard_monomials(p.num_vars, list(p.generators)))))
        for p in map(npk.weil.parse_presentation, der_dims)
    }
    texts = [_random_presentation(rng, d, seen) for d in cfg["family"]]
    for text in cfg["named"]:
        units.append(_der_unit(text, der_dims[text]))
    for text in texts:
        units.append(_der_unit(text, None))
    return units


WORKLOADS = {
    "suite": build_suite,
    "pointwise": build_pointwise,
    "algebra": build_algebra_workload,
}


def verify(units: list[Unit]) -> list[str]:
    """Check every unit's output; a unit fails on an exception or a wrong output."""
    failures = []
    for unit in units:
        problem = unit.error
        if problem is None:
            try:
                problem = unit.verify(unit.output)
            except Exception as exc:  # a crash in the check is a failed unit, not a failed run
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{unit.label}: {problem}")
    return failures
