"""Desk-scale cohomology of the A-valued de Rham-type complex.

Two concrete models are implemented.  On a star-shaped box, the radial
homotopy operator K with dK + Kd = id produces primitives of closed
forms in exact rational arithmetic (monomial coefficients pick up a
factor 1/(degree + form degree) under the line integral), certifying
that every closed positive-degree class vanishes; closure itself is
certified by the exact d on the same rational forms (read from Polynomial
leaves term by term; the primitives come back as leaves).  On the circle,
the function class is trigonometric polynomials; the class of a 1-form
is its A-combination of Fourier means, zero exactly on derivatives, and
the fluctuating part integrates termwise, both read from one Fourier
analysis per term.  Together with the constant
check in degree 0 these realize the isomorphism between the A-tensored
de Rham cohomology of the base and the cohomology upstairs, on the
subcomplex generated by A-combinations of prolonged forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
import numpy as np

from .expr import (
    Add,
    Call,
    Const,
    DifferentialForm,
    Div,
    Expr,
    Mul,
    Neg,
    Polynomial,
    Pow,
    Sub,
    Var,
    _insert_index,
    add,
    call,
    const,
    evaluate,
    exterior_derivative as d_base,
    form,
    mul,
    polynomial,
    var,
)
from .forms import AForm
from .functions import AFunction, coordinate_derive, lifted_function
from .points import Chart
from .weil import AElement, WeilAlgebra, _grlex_key

__all__ = [
    "ACombination",
    "NonPolynomialCoefficient",
    "NonTrigPolynomial",
    "NotClosed",
    "NotConstant",
    "NotStarShaped",
    "a_primitive",
    "circle_h1_class",
    "circle_primitive",
    "closure_residual",
    "h0_check",
    "inject",
    "poincare_homotopy",
]

DEFAULT_MAX_FREQ = 8
CLOSURE_TOL = 1e-10


class NotStarShaped(ValueError):
    """Box chart does not contain the origin."""


class NonPolynomialCoefficient(ValueError):
    """Coefficient expression is not a polynomial."""


class NonTrigPolynomial(ValueError):
    """Circle-chart function is not a trigonometric polynomial of the allowed frequency."""


class NotClosed(ValueError):
    """Input form has a nonzero differential."""


class NotConstant(ValueError):
    """Closed 0-form evaluated to different values (should not happen on connected charts)."""


# -- exact polynomial layer ---------------------------------------------------

Poly = dict[tuple[int, ...], Fraction]


def expr_to_poly(e: Expr, n: int) -> Poly:
    """Exact polynomial coefficients of an expression; floats convert exactly."""
    if isinstance(e, Polynomial):  # term by term; the tree walk below is for parsed input
        out: Poly = {}
        for c, m in e.terms:
            out = _poly_add(out, {m + (0,) * (n - len(m)): Fraction(c)}, 1)  # in n variables, as the tree walk
        return out
    if isinstance(e, Const):
        v = Fraction(e.value)
        return {(0,) * n: v} if v else {}
    if isinstance(e, Var):
        exps = [0] * n
        exps[e.index] = 1
        return {tuple(exps): Fraction(1)}
    if isinstance(e, Add):
        return _poly_add(expr_to_poly(e.left, n), expr_to_poly(e.right, n), 1)
    if isinstance(e, Sub):
        return _poly_add(expr_to_poly(e.left, n), expr_to_poly(e.right, n), -1)
    if isinstance(e, Neg):
        return {k: -v for k, v in expr_to_poly(e.arg, n).items()}
    if isinstance(e, Mul):
        return _poly_mul(expr_to_poly(e.left, n), expr_to_poly(e.right, n))
    if isinstance(e, Div):
        if isinstance(e.right, Const) and e.right.value != 0.0:
            inv = Fraction(1) / Fraction(e.right.value)
            return {k: v * inv for k, v in expr_to_poly(e.left, n).items()}
        raise NonPolynomialCoefficient("division by a non-constant")
    if isinstance(e, Pow):
        if isinstance(e.exponent, Const) and float(e.exponent.value).is_integer() and e.exponent.value >= 0:
            out = {(0,) * n: Fraction(1)}
            base = expr_to_poly(e.base, n)
            for _ in range(int(e.exponent.value)):
                out = _poly_mul(out, base)
            return out
        raise NonPolynomialCoefficient(f"power with exponent {e.exponent!r}")
    if isinstance(e, Call):
        raise NonPolynomialCoefficient(f"transcendental call {e.fn!r}")
    raise NonPolynomialCoefficient(f"unsupported node {e!r}")


def _poly_add(a: Poly, b: Poly, sign: int) -> Poly:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, Fraction(0)) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


@dataclass(frozen=True)
class PolyForm:
    """Form with exact polynomial coefficients (internal to the homotopy machinery)."""

    n: int
    degree: int
    coeffs: dict[tuple[int, ...], Poly]

    @staticmethod
    def from_form(omega: DifferentialForm) -> "PolyForm":
        return PolyForm(
            omega.n,
            omega.degree,
            {idx: expr_to_poly(g, omega.n) for g, idx in omega.terms},
        )

    def to_form(self) -> DifferentialForm:
        coeffs = {idx: polynomial([(float(p[m]), m) for m in sorted(p, key=_grlex_key)])
                  for idx, p in self.coeffs.items() if p}
        return form(self.n, self.degree, coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(k, {}) == other.coeffs.get(k, {}) for k in keys)


def d_poly(pf: PolyForm) -> PolyForm:
    out: dict[tuple[int, ...], Poly] = {}
    for idx, p in pf.coeffs.items():
        for i in range(pf.n):
            slot = _insert_index(i, idx)
            if slot is None:
                continue
            partial: Poly = {}
            for exps, c in p.items():
                if exps[i]:
                    down = list(exps)
                    down[i] -= 1
                    partial[tuple(down)] = c * exps[i]
            if not partial:
                continue
            sign, new_idx = slot
            signed = {k: sign * v for k, v in partial.items()}
            out[new_idx] = _poly_add(out.get(new_idx, {}), signed, 1)
    return PolyForm(pf.n, pf.degree + 1, out)


def homotopy_poly(pf: PolyForm) -> PolyForm:
    """Radial homotopy: g x^m dx_I -> sum_k (-1)^(k-1) x^(m+e_{i_k})/(|m|+p) dx_(I minus i_k)."""
    p = pf.degree
    if p < 1:
        raise ValueError("homotopy applies to degree >= 1")
    out: dict[tuple[int, ...], Poly] = {}
    for idx, poly in pf.coeffs.items():
        for k, ik in enumerate(idx):
            sign = (-1) ** k
            rest = idx[:k] + idx[k + 1:]
            bumped: Poly = {}
            for exps, c in poly.items():
                up = list(exps)
                up[ik] += 1
                bumped[tuple(up)] = sign * c / (sum(exps) + p)
            out[rest] = _poly_add(out.get(rest, {}), bumped, 1)
    return PolyForm(pf.n, p - 1, out)


def _require_star_shaped(chart: Chart) -> None:
    if chart.kind != "box":
        raise NotStarShaped("homotopy operator needs a box chart")
    if not all(lo < 0.0 < hi for lo, hi in chart.intervals):
        raise NotStarShaped("box must contain the origin")


def poincare_homotopy(omega: DifferentialForm, chart: Chart) -> DifferentialForm:
    """K with dK + Kd = id on positive degrees over a star-shaped box (exact on polynomials)."""
    _require_star_shaped(chart)
    if omega.degree < 1:
        raise ValueError("homotopy applies to degree >= 1")
    return homotopy_poly(PolyForm.from_form(omega)).to_form()


# -- A-combinations of prolonged base forms ----------------------------------


@dataclass(frozen=True)
class ACombination:
    """Finite sum of A-scaled prolonged base forms, all of one degree."""

    algebra: WeilAlgebra
    n: int
    degree: int
    terms: tuple[tuple[AElement, DifferentialForm], ...]

    def __post_init__(self) -> None:
        for a, omega in self.terms:
            if a.algebra != self.algebra:
                raise ValueError("A-coefficient from a different algebra")
            if omega.n != self.n or omega.degree != self.degree:
                raise ValueError("summand of wrong dimension or degree")

    def to_aform(self, chart: Chart) -> AForm:
        terms = tuple((lifted_function(g, self.algebra, chart).scale(a), idx)
                      for a, omega in self.terms for g, idx in omega.terms)
        return AForm(self.algebra, chart, self.degree, terms)

    def differential(self) -> "ACombination":
        return ACombination(
            self.algebra,
            self.n,
            self.degree + 1,
            tuple((a, d_base(omega)) for a, omega in self.terms),
        )


def inject(a: AElement, omega: DifferentialForm, chart: Chart) -> AForm:
    """The complex morphism: scale the prolonged form by the constant a."""
    return AForm(
        a.algebra,
        chart,
        omega.degree,
        tuple((lifted_function(g, a.algebra, chart).scale(a), idx) for g, idx in omega.terms),
    )


def closure_residual(eta: ACombination) -> float:
    """Max coefficient of d(eta), slotwise over the algebra basis: the exact d_poly, rounded once."""
    return _closure_residual(eta, [PolyForm.from_form(omega) for _, omega in eta.terms])


def _closure_residual(eta: ACombination, polys: list[PolyForm]) -> float:
    """closure_residual from the summands' rational forms."""
    derivatives = [d_poly(pf) for pf in polys]
    worst = Fraction(0)
    for alpha in range(eta.algebra.dim):
        slot: dict[tuple, Fraction] = {}  # (form index, exponents) -> coefficient
        for (a, _), dpf in zip(eta.terms, derivatives):
            weight = Fraction(float(a.coeffs[alpha]))
            for idx, poly in dpf.coeffs.items():
                for exps, c in poly.items():
                    slot[idx, exps] = slot.get((idx, exps), 0) + weight * c
        worst = max([worst, *map(abs, slot.values())])
    return float(worst)


def a_primitive(eta: ACombination, chart: Chart, tol: float = CLOSURE_TOL) -> ACombination:
    """Primitive of a closed positive-degree combination via the homotopy operator.

    Closure and the primitive share each summand's one rational form.
    """
    _require_star_shaped(chart)
    if eta.degree < 1:
        raise ValueError("primitives are defined for degree >= 1")
    polys = [PolyForm.from_form(omega) for _, omega in eta.terms]
    residual = _closure_residual(eta, polys)
    if residual > tol:
        raise NotClosed(f"closure residual {residual:.3e} exceeds {tol:.1e}")
    terms = tuple((a, homotopy_poly(pf).to_form()) for (a, _), pf in zip(eta.terms, polys))
    return ACombination(eta.algebra, eta.n, eta.degree - 1, terms)


# -- circle model -------------------------------------------------------------


@dataclass(frozen=True)
class TrigCoefficients:
    """mean + sum_k cos_terms[k-1] cos(kx) + sin_terms[k-1] sin(kx)."""

    mean: float
    cos_terms: tuple[float, ...]
    sin_terms: tuple[float, ...]


def trig_coefficients(
    g: Expr, max_freq: int = DEFAULT_MAX_FREQ, tol: float = 1e-8
) -> TrigCoefficients:
    """Fourier coefficients by discrete sampling; exact on trig polynomials.

    Sampling at 2*max_freq+1 equispaced angles recovers every frequency up to
    max_freq; the reconstruction is then validated at 7 off-grid points and a
    mismatch flags a non-trig-polynomial input.  g is evaluated once over all
    the angles; the sums and the reconstruction are products with the cached
    cos and sin tables of the angles.
    """
    n_samples = 2 * max_freq + 1
    angles, cos_grid, sin_grid, cos_probe, sin_probe = _fourier_tables(max_freq)
    try:
        values = evaluate(g, [angles])
    except ArithmeticError as exc:
        raise NonTrigPolynomial(f"evaluation failed on the circle: {exc}") from exc
    grid, probes = values[:n_samples], values[n_samples:]
    cutoff = 1e-13 * (1.0 + np.max(np.abs(grid)))

    def snap(c: np.ndarray) -> np.ndarray:
        return np.where(np.abs(c) <= cutoff, 0.0, c)

    mean = snap(grid.sum() / n_samples)
    cos_terms = snap(2.0 / n_samples * (cos_grid @ grid))
    sin_terms = snap(2.0 / n_samples * (sin_grid @ grid))
    recon = mean + cos_probe @ cos_terms + sin_probe @ sin_terms
    # `not <=` so that a NaN fails
    if not np.all(np.abs(recon - probes) <= tol * (1.0 + np.abs(recon))):
        raise NonTrigPolynomial(f"not a trigonometric polynomial of frequency <= {max_freq}")
    return TrigCoefficients(float(mean), tuple(cos_terms.tolist()), tuple(sin_terms.tolist()))


@lru_cache(maxsize=None)
def _fourier_tables(max_freq: int) -> tuple[np.ndarray, ...]:
    """The grid angles then the 7 off-grid probes; cos(k t) and sin(k t) on the grid (k by t), at the probes (t by k)."""
    n_samples = 2 * max_freq + 1
    grid = np.array([2.0 * math.pi * j / n_samples for j in range(n_samples)])
    probes = np.array([0.31 + 2.0 * math.pi * j / 7.0 for j in range(7)])
    k = np.arange(1, max_freq + 1, dtype=float)
    return (np.concatenate([grid, probes]), np.cos(np.outer(k, grid)), np.sin(np.outer(k, grid)),
            np.cos(np.outer(probes, k)), np.sin(np.outer(probes, k)))


def trig_primitive_expr(tc: TrigCoefficients) -> Expr:
    """Termwise primitive of the fluctuating part: cos(kx) -> sin(kx)/k, sin(kx) -> -cos(kx)/k."""
    out: Expr = const(0.0)
    for k, (c, s) in enumerate(zip(tc.cos_terms, tc.sin_terms), start=1):
        kx = mul(const(float(k)), var(0))
        out = add(out, mul(const(c / k), call("sin", kx)))
        out = add(out, mul(const(-s / k), call("cos", kx)))
    return out


def _fourier(eta: ACombination, max_freq: int) -> tuple[AElement, list[TrigCoefficients]]:
    """The class of a degree-1 circle combination and each summand's Fourier coefficients."""
    if eta.degree != 1 or eta.n != 1:
        raise ValueError("circle classes live in degree 1 on a 1-dimensional chart")
    acc = eta.algebra.zero()
    analyses = []
    for a, omega in eta.terms:
        tc = trig_coefficients(omega.coefficient((0,)), max_freq)
        acc = acc + tc.mean * a
        analyses.append(tc)
    return acc, analyses


def circle_h1_class(eta: ACombination, max_freq: int = DEFAULT_MAX_FREQ) -> AElement:
    """Cohomology class of a degree-1 combination on the circle: A-weighted Fourier means."""
    return _fourier(eta, max_freq)[0]


def circle_primitive(
    eta: ACombination, max_freq: int = DEFAULT_MAX_FREQ
) -> tuple[AElement, ACombination]:
    """Split eta = class * dx + d(primitive); returns (class, primitive 0-form)."""
    cls, analyses = _fourier(eta, max_freq)
    terms = tuple(
        (a, form(1, 0, {(): trig_primitive_expr(tc)})) for (a, _), tc in zip(eta.terms, analyses)
    )
    return cls, ACombination(eta.algebra, 1, 0, terms)


# -- degree zero --------------------------------------------------------------


def h0_check(
    phi: AFunction,
    samples: int = 20,
    seed: int = 0,
    closed_tol: float = 1e-9,
    constant_tol: float = 1e-8,
) -> AElement:
    """Verify phi is closed and constant across the chart; return the constant value."""
    from .sampling import random_near_points

    algebra, chart = phi.algebra, phi.chart
    rng = np.random.default_rng(seed)
    block = random_near_points(rng, algebra, chart, max(1, samples))
    partials = [coordinate_derive(phi, i) for i in range(chart.n)]
    # np.max keeps a NaN, and `not x <= tol` fails it, so a NaN never passes
    residual = np.max([np.max(np.abs(dphi.evaluate(block))) for dphi in partials])
    if not residual <= closed_tol:
        raise NotClosed(f"differential residual {residual:.3e} exceeds {closed_tol:.1e}")
    values = phi.evaluate(block)
    spread = np.max(np.abs(values - values[:, :1]))
    if not spread <= constant_tol:
        raise NotConstant(f"value spread {spread:.3e} exceeds {constant_tol:.1e}")
    return AElement(algebra, values[:, 0].copy())
