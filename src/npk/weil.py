"""Weil algebras presented as monomial-ideal quotients R[x1..xk]/I.

A Weil algebra is a finite-dimensional commutative local R-algebra
A = R*1 (+) m with nilpotent maximal ideal m.  Restricting to monomial
ideals keeps everything exact: the basis is the set of standard
monomials (those divisible by no ideal generator), the product of two
basis monomials is either a basis monomial or zero, and the structure
constants are 0/1 integers.  Every jet algebra R[x1..xk]/m^(h+1) and
all the small desk examples are of this form.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AlgebraMismatch",
    "AElement",
    "Derivation",
    "DimensionMismatch",
    "EmptyPresentation",
    "InfiniteDimensional",
    "LinearEndo",
    "NotADerivation",
    "NotInvertible",
    "Presentation",
    "PresentationError",
    "WeilAlgebra",
    "build_algebra",
    "derivation_basis",
    "dual_coefficient",
    "is_derivation",
    "parse_presentation",
]

DERIVATION_TOL = 1e-10
INVERT_TOL = 1e-12
ROWS_BLOCK = 1 << 18  # table terms mul_rows forms at once; larger batches run in slices
# Leibniz terms a batched check gathers at once from a group of elements: about two elements
# of a dim-16 algebra, so that batching adds next to no memory.  One element with more terms
# than ROWS_BLOCK is checked in slices of its triples.
LEIBNIZ_BLOCK = 1 << 12


class PresentationError(ValueError):
    """Malformed monomial-ideal presentation."""


class EmptyPresentation(PresentationError):
    """Generators supplied for a zero-variable polynomial ring."""


class InfiniteDimensional(PresentationError):
    """Some variable has no pure-power generator, so the quotient is not finite."""


class DimensionMismatch(ValueError):
    """Coefficient vector length differs from dim(A)."""


class AlgebraMismatch(ValueError):
    """Operands belong to different Weil algebras."""


class NotInvertible(ZeroDivisionError):
    """Element has zero augmentation, hence lies in the maximal ideal."""


class NotADerivation(ValueError):
    """Linear endomorphism fails the Leibniz rule."""


def _total_degree(exps: tuple[int, ...]) -> int:
    return sum(exps)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(ai <= bi for ai, bi in zip(a, b))


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    # graded order, and within a degree x-heavy monomials first (1, x, y, x^2, x*y, y^2)
    return (_total_degree(exps), tuple(-e for e in exps))


@dataclass(frozen=True)
class Presentation:
    """Monomial-ideal presentation: k variables and monomial generators of degree >= 2."""

    num_vars: int
    generators: tuple[tuple[int, ...], ...]
    var_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise PresentationError("negative variable count")
        if self.num_vars == 0 and self.generators:
            raise EmptyPresentation("generators supplied for R[] (zero variables)")
        names = self.var_names or tuple(f"x{i + 1}" for i in range(self.num_vars))
        if len(names) != self.num_vars:
            raise PresentationError("variable name count differs from num_vars")
        object.__setattr__(self, "var_names", names)
        for g in self.generators:
            if len(g) != self.num_vars:
                raise PresentationError(f"generator {g} has wrong arity")
            if any(e < 0 for e in g):
                raise PresentationError(f"generator {g} has a negative exponent")
            if _total_degree(g) < 2:
                raise PresentationError(f"generator {g} has total degree < 2")

    def normalized_generators(self) -> tuple[tuple[int, ...], ...]:
        """Minimal generating set: drop generators divisible by another generator.

        The test is quadratic in the number of generators, so it runs once per presentation.
        """
        return self._normalized

    @functools.cached_property
    def _normalized(self) -> tuple[tuple[int, ...], ...]:
        gens = sorted(set(self.generators), key=_grlex_key)
        kept: list[tuple[int, ...]] = []
        for g in gens:
            if not any(_divides(k, g) for k in kept):
                kept.append(g)
        return tuple(kept)

    def text(self) -> str:
        if self.num_vars == 0:
            return "R"
        vars_part = ",".join(self.var_names)
        gens = ",".join(_monomial_text(g, self.var_names) for g in self.normalized_generators())
        return f"R[{vars_part}]/({gens})"


def _monomial_text(exps: tuple[int, ...], names: Sequence[str]) -> str:
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


_PRES_RE = re.compile(r"^R\[(?P<vars>[^\]]*)\]/\((?P<gens>.*)\)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_presentation(text: str) -> Presentation:
    """Parse ``R[x,y]/(x^2,x*y,y^3)``.  The bare string ``R`` denotes the reals."""
    compact = "".join(text.split())
    if compact == "R":
        return Presentation(0, ())
    m = _PRES_RE.match(compact)
    if m is None:
        raise PresentationError(f"cannot parse presentation {text!r}")
    names = tuple(v for v in m.group("vars").split(",") if v)
    for name in names:
        if not _IDENT_RE.match(name):
            raise PresentationError(f"bad variable name {name!r}")
    if len(set(names)) != len(names):
        raise PresentationError("repeated variable name")
    index = {name: i for i, name in enumerate(names)}
    gens = []
    gens_text = m.group("gens")
    if not gens_text:
        raise PresentationError("empty generator list (quotient would not be finite)")
    for part in gens_text.split(","):
        exps = [0] * len(names)
        if not part:
            raise PresentationError("empty monomial in generator list")
        for factor in part.split("*"):
            fm = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$", factor)
            if fm is None:
                raise PresentationError(f"bad monomial factor {factor!r}")
            name, power = fm.group(1), fm.group(2)
            if name not in index:
                raise PresentationError(f"unknown variable {name!r} in generator")
            exps[index[name]] += int(power) if power else 1
        gens.append(tuple(exps))
    return Presentation(len(names), tuple(gens), names)


def _standard_monomials(num_vars: int, gens: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The monomials divisible by no generator, found degree by degree.

    A monomial is one of them exactly when it is no generator and each
    monomial x^m / x_j below it is one, so each degree is grown from the one
    before: the walk visits the basis and its neighbours only, not the whole
    box of pure-power bounds (2^40 tuples for 40 variables).
    """
    gens = set(gens)
    layer = {(0,) * num_vars}
    found = list(layer)
    while layer:
        grown = {_shift(m, i, 1) for m in layer for i in range(num_vars)}
        layer = {m for m in grown - gens if all(_shift(m, j, -1) in layer for j in range(num_vars) if m[j])}
        found += layer
    return found


def _product_table(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (a, b, g) of the products e_a e_b = e_g in the basis, ordered by a, then b.

    exps holds one exponent row per basis monomial.  All dim^2 sums of two
    rows are formed in one broadcast and looked up exactly, by their bytes,
    in the sorted rows; each row is led by its total degree so that no row
    is empty (R has no variables).
    """
    dim = len(exps)
    rows = np.column_stack((exps.sum(axis=1), exps))
    key = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    keys = rows.view(key).ravel()
    order = np.argsort(keys)
    sums = (rows[:, None, :] + rows[None, :, :]).reshape(dim * dim, -1).view(key).ravel()
    at = np.minimum(np.searchsorted(keys[order], sums), dim - 1)
    hit = keys[order[at]] == sums
    left, right = np.divmod(np.flatnonzero(hit), dim)
    return left, right, order[at[hit]]


class WeilAlgebra:
    """Quotient R[x1..xk]/I for a monomial ideal I, with precomputed basis and products.

    basis       ordered standard monomials (exponent tuples), constant first,
                graded-lexicographic within each degree
    height      largest total degree of a standard monomial; m^(height+1) = 0

    The product of two basis monomials is one basis monomial or zero, so the
    multiplication table is stored sparsely, once: the nonzero products
    e_a * e_b = e_g as three index arrays (a, b) -> g, ordered by a, then b,
    built by one broadcast of the basis exponents (dim^2 x k).  Every product,
    left multiplication, inverse and Leibniz check reads them.
    ``structure``, the dense 0/1 tensor c[a, b, g], is built from the table
    only on request; no computation here uses it.
    """

    def __init__(self, presentation: Presentation):
        pres = presentation
        gens = pres.normalized_generators()
        for i in range(pres.num_vars):
            if not any(all(g[j] == 0 for j in range(pres.num_vars) if j != i) and g[i] > 0 for g in gens):
                raise InfiniteDimensional(
                    f"variable {pres.var_names[i]!r} has no pure-power generator"
                )
        basis = _standard_monomials(pres.num_vars, gens)
        basis.sort(key=_grlex_key)
        self.presentation = pres
        self.basis: tuple[tuple[int, ...], ...] = tuple(basis)
        self.dim = len(basis)
        self.num_vars = pres.num_vars
        self.height = max((_total_degree(b) for b in basis), default=0)
        index = {b: i for i, b in enumerate(basis)}
        self._exps = np.array(basis, dtype=np.intp).reshape(self.dim, self.num_vars)
        self._left, self._right, self._prod = _product_table(self._exps)
        self._index = index
        # on demand: prod * N + j for a (dim, N) mul_coeffs, k % width for sum_rows of rows of each
        # shape, and k * dim + prod (row k's bins, grown) for mul_rows
        self._block_bins: dict[int, np.ndarray] = {}
        self._columns: dict[tuple[int, ...], np.ndarray] = {}
        self._bins = np.zeros(0, dtype=np.intp)

    def __eq__(self, other: object) -> bool:
        # the basis determines the monomial-quotient structure completely
        return self is other or (isinstance(other, WeilAlgebra) and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"WeilAlgebra({self.presentation.text()!r}, dim={self.dim})"

    @property
    def text(self) -> str:
        return self.presentation.text()

    def monomial_text(self, alpha: int) -> str:
        return _monomial_text(self.basis[alpha], self.presentation.var_names)

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Iterable[float]) -> "AElement":
        """An element with these coefficients, always a fresh copy of them."""
        return AElement(self, np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs), dtype=float))

    def zero(self) -> "AElement":
        return AElement(self, np.zeros(self.dim))

    def unit(self) -> "AElement":
        c = np.zeros(self.dim)
        c[0] = 1.0
        return AElement(self, c)

    def scalar(self, value: float) -> "AElement":
        c = np.zeros(self.dim)
        c[0] = float(value)
        return AElement(self, c)

    def basis_element(self, alpha: int) -> "AElement":
        if not 0 <= alpha < self.dim:
            raise IndexError(f"basis index {alpha} out of range for dim {self.dim}")
        c = np.zeros(self.dim)
        c[alpha] = 1.0
        return AElement(self, c)

    # -- products ---------------------------------------------------------

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b for coefficient vectors (dim,), or column by column, bit for bit, for (dim, N) blocks."""
        return self.mul_gathered(a, b[self._right])

    def mul_gathered(self, a: np.ndarray, right: np.ndarray) -> np.ndarray:
        """a * b from b's side of the product table, right = b[self._right], gathered once for many products."""
        weights = a[self._left] * right
        if weights.ndim == 1:
            return np.bincount(self._prod, weights=weights, minlength=self.dim)
        n = weights.shape[1]
        if n not in self._block_bins:
            self._block_bins[n] = (self._prod[:, None] * n + np.arange(n)).ravel()
        return np.bincount(self._block_bins[n], weights=weights.ravel(), minlength=a.size).reshape(a.shape)

    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """mul_coeffs of each pair of rows, the leading axes of a and b broadcast, in one bincount.

        Each product sums its table terms in mul_coeffs's order, so the two agree
        bit for bit.  A batch of more than ROWS_BLOCK table terms runs in slices
        of the first leading axis, written into the result allocated first; an
        index of that axis that is itself too many is sliced alike over the
        next axis, so every slice stays within the bound, or is one product.
        """
        terms = len(self._prod)
        if (a.size // self.dim) * (b.size // self.dim) * terms > ROWS_BLOCK:
            lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
            rows, count = max(1, ROWS_BLOCK // terms), math.prod(lead)  # rows a slice may hold, rows in all
            if rows < count:
                out = np.empty((*lead, self.dim))
                a, b = np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape)
                step = rows * lead[0] // count  # indices of the first axis a slice may hold
                for s in range(0, lead[0], max(1, step)):
                    part = slice(s, s + step) if step else s  # an index that is too many alone drops its axis
                    out[part] = self.mul_rows(a[part], b[part])
                return out
        weights = a.take(self._left, axis=-1) * b.take(self._right, axis=-1)
        lead = weights.shape[:-1]
        count = math.prod(lead)
        if len(self._bins) < weights.size:
            self._bins = (np.arange(2 * count)[:, None] * self.dim + self._prod).ravel()
        out = np.bincount(self._bins[:weights.size], weights=weights.ravel(), minlength=count * self.dim)
        return out.reshape(*lead, self.dim)

    def sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """Sum over the first axis of a C-contiguous (T, dim) or (T, dim, N) array, in order from 0.0.

        This is what a loop of additions gives; np.add.reduce may add a single
        column pairwise instead, which rounds differently.
        """
        shape = rows.shape[1:]
        columns = self._columns.get(shape)
        if columns is None or len(columns) < rows.size:
            columns = self._columns[shape] = np.arange(2 * rows.size) % math.prod(shape)
        out = np.bincount(columns[:rows.size], weights=rows.ravel(), minlength=math.prod(shape))
        out.shape = shape
        return out

    def left_multiplication(self, a: np.ndarray) -> np.ndarray:
        """Matrix of b -> a*b in the monomial basis."""
        out = np.zeros((self.dim, self.dim))
        out[self._prod, self._right] = a[self._left]  # e_g = e_a e_b fixes a, so no entry repeats
        return out

    @functools.cached_property
    def structure(self) -> np.ndarray:
        """Dense rank-3 tensor c with e_a * e_b = sum_g c[a, b, g] e_g (entries 0/1)."""
        c = np.zeros((self.dim, self.dim, self.dim))
        c[self._left, self._right, self._prod] = 1.0
        return c

    @functools.cached_property
    def _product_quotient(self) -> tuple[np.ndarray, np.ndarray]:
        """The table as dense (dim, dim) indices: product[a, b] = ab, quotient[s, b] = s/b, -1 outside A."""
        product = np.full((self.dim, self.dim), -1)
        product[self._left, self._right] = self._prod
        quotient = np.full((self.dim, self.dim), -1)
        quotient[self._prod, self._right] = self._left
        return product, quotient

    @functools.cached_property
    def _leibniz_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the Leibniz terms of each triple (a, b, s) sit in a flattened D.

        The terms are D[s, ab], D[s/b, a] and D[s/a, b]; each is given as a flat
        position in the dim x dim matrix D followed by one zero, which stands in
        for every product or quotient outside the basis.  Only triples where a
        term can be nonzero are listed: those with ab, s/b or s/a in the basis.
        The residual of (b, a, s) equals that of (a, b, s), so of each such pair
        only one is listed: the triples with ab in the basis and a <= b, and then
        those with s/b in the basis whose mirror is not already listed.
        """
        dim, left, right, prod = self.dim, self._left, self._right, self._prod
        product, quotient = self._product_quotient
        every = np.arange(dim)
        half = left <= right
        # ab in the basis and a <= b, every s
        a1, b1, s1 = np.repeat(left[half], dim), np.repeat(right[half], dim), np.tile(every, half.sum())
        # s/b in the basis and ab not, every a; when s/a is in the basis too, (b, a, s) is
        # also such a triple, and only the one of the two with a <= b is kept
        a2, b2, s2 = np.tile(every, len(prod)), np.repeat(right, dim), np.repeat(prod, dim)
        rest = (product[a2, b2] < 0) & ((a2 <= b2) | (quotient[s2, a2] < 0))
        a, b, s = (np.concatenate([x1, x2[rest]]) for x1, x2 in ((a1, a2), (b1, b2), (s1, s2)))

        def position(row, col):
            return np.where((row >= 0) & (col >= 0), row * dim + col, dim * dim)

        return position(s, product[a, b]), position(quotient[s, b], a), position(quotient[s, a], b)


class AElement:
    """Element of a Weil algebra, stored as coefficients over the monomial basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (algebra.dim,):
            raise DimensionMismatch(
                f"expected {algebra.dim} coefficients, got shape {coeffs.shape}"
            )
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "AElement") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different Weil algebras")

    @property
    def augmentation(self) -> float:
        """Image under the canonical homomorphism A -> R (the real part)."""
        return float(self.coeffs[0])

    def coefficient(self, alpha: int) -> float:
        if not 0 <= alpha < self.algebra.dim:
            raise IndexError(f"basis index {alpha} out of range")
        return float(self.coeffs[alpha])

    def nilpotent_part(self) -> "AElement":
        c = self.coeffs.copy()
        c[0] = 0.0
        return AElement(self.algebra, c)

    def __add__(self, other: "AElement") -> "AElement":
        self._check(other)
        return AElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "AElement") -> "AElement":
        self._check(other)
        return AElement(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "AElement":
        return AElement(self.algebra, -self.coeffs)

    def __mul__(self, other: "AElement | float") -> "AElement":
        if isinstance(other, AElement):
            self._check(other)
            return AElement(self.algebra, self.algebra.mul_coeffs(self.coeffs, other.coeffs))
        return AElement(self.algebra, self.coeffs * float(other))

    def __rmul__(self, other: float) -> "AElement":
        return AElement(self.algebra, self.coeffs * float(other))

    def __truediv__(self, other: "AElement | float") -> "AElement":
        if isinstance(other, AElement):
            return self * other.invert()
        return AElement(self.algebra, self.coeffs / float(other))

    def invert(self) -> "AElement":
        """Inverse by the terminating geometric series in the nilpotent part."""
        a0 = self.augmentation
        if abs(a0) <= INVERT_TOL:
            raise NotInvertible("augmentation is zero: element lies in the maximal ideal")
        algebra = self.algebra
        scale = 1.0 / a0 if math.isfinite(a0) else math.nan  # 1/inf = 0 would hide the overflow
        # geometric series 1/(1+n) = sum (-n)^j, truncated by nilpotency
        n = self.nilpotent_part().coeffs * scale
        acc = power = algebra.unit().coeffs
        for _ in range(algebra.height):
            power = algebra.mul_coeffs(power, n) * -1.0
            acc = acc + power
        return AElement(algebra, acc * scale)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.algebra.dim else 0.0

    def __repr__(self) -> str:
        terms = []
        for alpha, c in enumerate(self.coeffs):
            if c != 0.0:
                mono = self.algebra.monomial_text(alpha)
                terms.append(f"{c:g}" if mono == "1" else f"{c:g}*{mono}")
        return " + ".join(terms) if terms else "0"


def build_algebra(presentation: Presentation) -> WeilAlgebra:
    return WeilAlgebra(presentation)


def dual_coefficient(a: AElement, alpha: int) -> float:
    """Coefficient of the basis monomial e_alpha in a (dual-basis functional)."""
    return a.coefficient(alpha)


@dataclass(frozen=True)
class LinearEndo:
    """Linear map A -> A given by its matrix over the monomial basis."""

    algebra: WeilAlgebra
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.algebra.dim, self.algebra.dim):
            raise DimensionMismatch(f"endomorphism matrix must be {self.algebra.dim} square")
        object.__setattr__(self, "matrix", m)

    def __call__(self, a: AElement) -> AElement:
        if a.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return AElement(self.algebra, self.matrix @ a.coeffs)


def _leibniz_residual(algebra: WeilAlgebra, matrix: np.ndarray) -> float | np.ndarray:
    """max over (a, b, s) of |coefficient s of d(e_a e_b) - d(e_a) e_b - e_a d(e_b)|.

    matrix is one (dim, dim) D, giving one float, or a (k, dim, dim) stack,
    giving the k residuals, each bit for bit what its element gives alone.
    One element gathers from a flat vector, the cheapest form per call; a
    stack gathers row-wise, in groups of elements of at most LEIBNIZ_BLOCK
    terms.  Both run in slices of at most ROWS_BLOCK triples, so that memory
    stays bounded and a large element's arrays stay in cache.
    """
    lhs, left, right = algebra._leibniz_index
    if matrix.ndim == 2:
        flat = np.concatenate((matrix.ravel(), (0.0,)))
        if len(lhs) <= ROWS_BLOCK:
            return _flat_residual(flat, lhs, left, right)
        parts = [slice(t, t + ROWS_BLOCK) for t in range(0, len(lhs), ROWS_BLOCK)]
        return float(np.max([_flat_residual(flat, lhs[p], left[p], right[p]) for p in parts]))  # NaN-sticky
    step = max(1, LEIBNIZ_BLOCK // len(lhs))
    if len(matrix) > step:
        slices = range(0, len(matrix), step)
        return np.concatenate([_leibniz_residual(algebra, matrix[k:k + step]) for k in slices])
    flat = np.concatenate((matrix.reshape(len(matrix), algebra.dim**2), np.zeros((len(matrix), 1))), axis=1)
    out = np.zeros(len(matrix))
    for t in range(0, len(lhs), ROWS_BLOCK):  # one element has about dim^3 / 3 terms
        part = slice(t, t + ROWS_BLOCK)
        residual, rhs = flat.take(lhs[part], axis=1), flat.take(left[part], axis=1)
        rhs += flat.take(right[part], axis=1)
        residual -= rhs
        np.maximum(out, np.abs(residual, out=residual).max(axis=1), out=out)
    return out


def _flat_residual(flat: np.ndarray, lhs: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """max |flat[lhs] - flat[left] - flat[right]|, in one gather each."""
    residual, rhs = flat[lhs], flat[left]
    rhs += flat[right]
    residual -= rhs
    return float(np.abs(residual, out=residual).max())


def is_derivation(algebra: WeilAlgebra, endo: LinearEndo | np.ndarray, tol: float = DERIVATION_TOL) -> bool:
    """Leibniz check d(e_a e_b) = d(e_a) e_b + e_a d(e_b) on all basis pairs.

    Raises DimensionMismatch unless the matrix is dim x dim.
    """
    matrix = endo.matrix if isinstance(endo, LinearEndo) else np.asarray(endo, dtype=float)
    if matrix.shape != (algebra.dim, algebra.dim):
        raise DimensionMismatch(f"derivation matrix must be {algebra.dim} square, got shape {matrix.shape}")
    return _leibniz_residual(algebra, matrix) <= tol


@dataclass(frozen=True)
class Derivation:
    """Leibniz-satisfying linear endomorphism of A.  Validated at construction."""

    endo: LinearEndo

    def __post_init__(self) -> None:
        if not is_derivation(self.endo.algebra, self.endo):
            raise NotADerivation("endomorphism fails the Leibniz rule")

    @classmethod
    def _of(cls, algebra: WeilAlgebra, matrix: np.ndarray) -> "Derivation":
        """Wrap a float (dim, dim) matrix whose Leibniz residual the caller has already checked."""
        endo = object.__new__(LinearEndo)
        object.__setattr__(endo, "algebra", algebra)
        object.__setattr__(endo, "matrix", matrix)
        d = object.__new__(cls)
        object.__setattr__(d, "endo", endo)
        return d

    @property
    def algebra(self) -> WeilAlgebra:
        return self.endo.algebra

    @property
    def matrix(self) -> np.ndarray:
        return self.endo.matrix

    def __call__(self, a: AElement) -> AElement:
        return self.endo(a)

    def scale(self, a: AElement) -> "Derivation":
        """The derivation b -> a * d(b) (module structure on Der(A))."""
        new = self.algebra.left_multiplication(a.coeffs) @ self.matrix
        return Derivation(LinearEndo(self.algebra, new))

    def commutator(self, other: "Derivation") -> "Derivation":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("derivations of different algebras")
        new = self.matrix @ other.matrix - other.matrix @ self.matrix
        return Derivation(LinearEndo(self.algebra, new))


def derivation_basis(algebra: WeilAlgebra) -> list[Derivation]:
    """Basis of Der(A), solved exactly from the values d(x_i).

    A derivation of R[x1..xk]/I is fixed by the values d(x_i) = sum_a u[i, a] e_a,
    and these define one exactly when d(x^g) = sum_i g_i x^(g-e_i) d(x_i) is zero
    in A for every minimal generator x^g (each x^(g-e_i) is then a standard
    monomial).  That gives one integer equation per pair (g, e_s).  An equation
    couples only unknowns u[i, a] of one weight e_a / x_i, so the system splits
    into blocks of at most k unknowns, each reduced exactly over the rationals.

    Order: each free unknown of the reduced row echelon form, in increasing
    index i * dim + a, gives one basis element: that unknown set to 1, the
    other free ones to 0, then scaled to the smallest integer vector, so that
    every matrix entry is an integer.  Column b of the matrix is
    d(x^b) = sum_i b_i x^(b-e_i) d(x_i).  All matrices are assembled in one
    scatter and validated by one batched Leibniz check.  Cached per algebra
    instance.
    """
    cached = getattr(algebra, "_derivation_basis", None)
    if cached is not None:
        return list(cached)
    algebra._leibniz_index  # built first, so that its transient arrays are freed before the matrices exist
    matrices = _assemble(algebra, _derivation_values(algebra))
    if not (_leibniz_residual(algebra, matrices) <= DERIVATION_TOL).all():
        raise NotADerivation("a solved basis element fails the Leibniz rule")
    out = [Derivation._of(algebra, m) for m in matrices]
    algebra._derivation_basis = tuple(out)
    return out


def _assemble(algebra: WeilAlgebra, values: list[list[tuple[int, int, int]]]) -> np.ndarray:
    """The (k, dim, dim) matrices of derivations given by their values (i, a, u[i, a]), in one bincount.

    Column b is d(x^b) = sum_i b_i x^(b-e_i) d(x_i): entry (e_a x^(b-e_i), b)
    gains b_i * u[i, a] for every value and every b with b_i > 0.
    """
    dim = algebra.dim
    element, var, a, v = np.array(
        [(n, *entry) for n, entries in enumerate(values) for entry in entries], dtype=np.int64
    ).reshape(-1, 4).T
    product, quotient = algebra._product_quotient
    xs = [algebra._index[_shift((0,) * algebra.num_vars, i, 1)] for i in range(algebra.num_vars)]
    lower = quotient[:, xs].T[var]  # x^(b-e_i) for every b, -1 where b_i = 0
    s = np.where(lower >= 0, product[a[:, None], lower], -1)
    keep = s >= 0
    position = (element[:, None] * dim + s) * dim + np.arange(dim)
    weights = algebra._exps.T[var] * v[:, None]
    size = len(values) * dim * dim
    return np.bincount(position[keep], weights[keep], minlength=size).reshape(len(values), dim, dim)


def _derivation_values(algebra: WeilAlgebra) -> list[list[tuple[int, int, int]]]:
    """The exact solve behind derivation_basis: per basis element, its integer values (i, a, u[i, a]) != 0."""
    dim, basis, index = algebra.dim, algebra.basis, algebra._index
    blocks: dict[tuple[int, ...], list[dict[int, Fraction]]] = {}
    for g in algebra.presentation.normalized_generators():
        for m in basis:
            weight = tuple(x - y for x, y in zip(m, g))
            row = {}
            for i, gi in enumerate(g):
                a = index.get(_shift(weight, i, 1)) if gi else None
                if a is not None:
                    row[i * dim + a] = Fraction(gi)
            if row:
                blocks.setdefault(weight, []).append(row)
    pivots: set[int] = set()
    dependents: dict[int, list[tuple[int, Fraction]]] = {}  # free -> [(pivot, value)]
    for rows in blocks.values():
        for p, row in _rref(rows).items():
            pivots.add(p)
            for col, v in row.items():
                if col != p:
                    dependents.setdefault(col, []).append((p, -v))
    out = []
    for free in range(algebra.num_vars * dim):
        if free in pivots:
            continue
        values = [(free, 1), *dependents.get(free, ())]
        scale = math.lcm(*(v.denominator for _, v in values))
        out.append([(*divmod(col, dim), v.numerator * (scale // v.denominator)) for col, v in values])
    return out


def _shift(exps: tuple[int, ...], i: int, delta: int) -> tuple[int, ...]:
    """exps with exponent i moved by delta."""
    return exps[:i] + (exps[i] + delta,) + exps[i + 1:]


def _rref(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of sparse rational rows, keyed by pivot column.

    Each pivot is the lowest column of its row, and no other row has an entry
    in a pivot column, so the result depends only on the span of the rows.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        for p, prow in reduced.items():
            _eliminate(row, prow, p)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        row = {c: v / lead for c, v in row.items()}
        for prow in reduced.values():
            _eliminate(prow, row, p)
        reduced[p] = row
    return reduced


def _eliminate(row: dict[int, Fraction], pivot_row: dict[int, Fraction], p: int) -> None:
    """Subtract the multiple of pivot_row (entry 1 at p) that clears column p of row."""
    factor = row.get(p)
    if not factor:
        return
    for c, v in pivot_row.items():
        x = row.get(c, 0) - factor * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)
