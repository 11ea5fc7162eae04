"""Computable A-valued functions on the near-point manifold.

The class implemented here consists of A-coefficient polynomials in
scalar generators: a generator (alpha, g) denotes the real-valued
function xi -> coefficient alpha of lift(g, xi).  A function is stored as
a small table of its distinct generators in key order (an equal key
keeps its first spelling, and every generator is used), its canonical
monomials as sorted tuples of positions into that table (each monomial
once, in key order: position order is key order, so comparing the int
tuples compares the key tuples), and one read-only (T, dim) matrix whose
row t is the A-coefficient of monomial t.  A product or sum merges the
operands' tables and remaps their positions through a monotone array;
the derivation extensions of a field and of a coordinate field are one
Leibniz fold (_leibniz), fed the image of each table generator.  The class is
closed under addition, multiplication, scaling by A, post-composition
with linear maps of A, and the derivation extensions used by vector
fields; it contains every lifted smooth function and every A-constant,
which is all the surrounding theory manipulates.

Equality of two such functions is decided by evaluation at sampled near
points, never structurally: distinct term lists routinely denote the
same function (e.g. the lift of f*g versus the product of the lifts).
Evaluation runs at a near point or at a block of N of them in one pass; a
near point is a block of one, with (dim,) values instead of (dim, N).  It
lifts each distinct generator function once, from the block's own lift
memo, gathers the generator values through an index plan read off the
table (generator k sits at slot(fn)*dim + alpha of the stacked lifts),
takes the product along each monomial and sums the rows per point in
order.  A function made by lifted_function is the one exception: it is
valued as the memoised lift plus 0.0, the bits of that sum for a finite
lift, while a non-finite lift keeps each inf or NaN in its own slot.
A field's derivation extension is valued likewise, from the values of its
components at the point or block, without being built (_extension_values),
by the same gather and TangentVector.apply's chain rule X(g) = sum_i lift(d_i g) X_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .expr import ONE, Const, Expr, diff, expr_key
from .points import Chart, NearPoint, NearPoints, TangentVector, _chain_rule, lift
from .weil import AElement, AlgebraMismatch, WeilAlgebra

__all__ = [
    "AFunction",
    "ScalarGenerator",
    "coordinate_derive",
    "lifted_function",
    "tangent_apply",
]


@dataclass(frozen=True)
class ScalarGenerator:
    """The real-valued function xi -> dual-basis coefficient alpha of lift(fn, xi)."""

    alpha: int
    fn: Expr

    @cached_property
    def key(self) -> tuple[int, str]:
        return (self.alpha, expr_key(self.fn))


Monomial = tuple[ScalarGenerator, ...]
Index = tuple[int, ...]  # a monomial as sorted positions into a generator table


class AFunction:
    """A-coefficient polynomial in scalar generators; immutable after construction.

    gens     distinct generators in key order, each used by some monomial
    indices  canonical monomials as sorted positions into gens, in key order, no two equal
    coeffs   read-only (len(indices), dim) matrix, no zero row
    monos and terms are read-only views of the same monomials spelled with generators.
    """

    __slots__ = ("algebra", "chart", "gens", "indices", "coeffs", "_plan")

    def __init__(
        self,
        algebra: WeilAlgebra,
        chart: Chart,
        terms: Iterable[tuple[AElement, Monomial]] = (),
    ):
        monos, rows = [], []
        for coeff, mono in terms:
            if coeff.algebra is not algebra and coeff.algebra != algebra:
                raise AlgebraMismatch("coefficient from a different algebra")
            monos.append(tuple(mono))
            rows.append(coeff.coeffs)
        gens, new = _table([g for mono in monos for g in mono])
        indices, at = [], 0
        for mono in monos:
            indices.append(tuple(sorted(new[at:at + len(mono)])))
            at += len(mono)
        rows = np.array(rows, dtype=float) if rows else np.zeros((0, algebra.dim))
        self._set(algebra, chart, *_nonzero(gens, *_canonical_rows(algebra.dim, indices, rows)))

    def _set(self, algebra: WeilAlgebra, chart: Chart, gens, indices: Sequence[Index], coeffs: np.ndarray, plan):
        coeffs.flags.writeable = False
        self.algebra = algebra
        self.chart = chart
        self.gens: tuple[ScalarGenerator, ...] = gens
        self.indices: tuple[Index, ...] = tuple(indices)
        self.coeffs: np.ndarray = coeffs
        self._plan = plan

    @classmethod
    def _of(cls, algebra: WeilAlgebra, chart: Chart, gens, indices: Sequence[Index], coeffs: np.ndarray, plan=None):
        """Build from rows already in canonical form: a used table, distinct sorted indices in key order, no zero row.

        The fast path that __init__, whose (algebra, chart, terms) signature
        stays public, does not offer.  coeffs becomes the function's read-only
        matrix, so the caller passes a fresh array or a read-only one; plan,
        when given, is the evaluation plan of this table and these indices.
        """
        phi = object.__new__(cls)
        phi._set(algebra, chart, gens, indices, coeffs, plan)
        return phi

    @property
    def monos(self) -> tuple[Monomial, ...]:
        """Canonical monomials spelled with generators, in key order."""
        gens = self.gens
        return tuple(tuple([gens[k] for k in m]) for m in self.indices)

    @property
    def terms(self) -> tuple[tuple[AElement, Monomial], ...]:
        """(coefficient, monomial) pairs in canonical order."""
        return tuple((AElement(self.algebra, row), mono) for row, mono in zip(self.coeffs, self.monos))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(a: AElement, chart: Chart) -> "AFunction":
        return AFunction._of(a.algebra, chart, *_nonzero((), ((),), a.coeffs[None, :].copy()))

    @staticmethod
    def zero(algebra: WeilAlgebra, chart: Chart) -> "AFunction":
        return AFunction._of(algebra, chart, (), (), np.zeros((0, algebra.dim)))

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "AFunction") -> None:
        if self.algebra is not other.algebra or self.chart is not other.chart:  # the common case, decided cheaply
            if self.algebra != other.algebra or self.chart != other.chart:
                raise AlgebraMismatch("functions over different algebras or charts")

    def __add__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        return _sum(self.algebra, self.chart, (self, other))

    def __sub__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        return _sum(self.algebra, self.chart, (self, -other))

    def __neg__(self) -> "AFunction":
        return AFunction._of(self.algebra, self.chart, self.gens, self.indices, -self.coeffs, self._plan)

    def __mul__(self, other: "AFunction") -> "AFunction":
        self._check(other)
        if not self.indices or not other.indices:
            return AFunction.zero(self.algebra, self.chart)
        rows = self.algebra.mul_rows(self.coeffs[:, None, :], other.coeffs[None, :, :])
        gens, (left, right) = _merged((self, other))
        monos = [tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2 for m1 in left for m2 in right]
        rows = rows.reshape(len(monos), self.algebra.dim)
        return AFunction._of(self.algebra, self.chart, *_nonzero(gens, *_canonical_rows(self.algebra.dim, monos, rows)))

    def scale(self, a: AElement | float) -> "AFunction":
        if isinstance(a, AElement):
            if not self.indices:
                return self
            if a.algebra != self.algebra:
                raise AlgebraMismatch("elements of different Weil algebras")
            rows = self.algebra.mul_rows(a.coeffs, self.coeffs)
        else:
            rows = self.coeffs * float(a)
        return AFunction._of(self.algebra, self.chart, *_nonzero(self.gens, self.indices, rows, self._plan))

    def is_structurally_zero(self) -> bool:
        return not self.indices

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, xi: NearPoint | NearPoints) -> AElement | np.ndarray:
        """Value at a near point, or the (dim, N) values at a block of N points.

        The generators' lifts come from the point's or block's own lift memo.
        A lifted_function, whose rows are the shared identity, is valued as
        that memoised lift plus 0.0: for a finite lift these are the bits of
        the in-order sum of its rows from 0.0, since all but one term of each
        slot are signed zeros; a non-finite lift keeps each inf or NaN in its
        own slot, where the sum puts 0*inf = NaN in every other slot.
        """
        if xi.algebra is not self.algebra and xi.algebra != self.algebra:
            raise AlgebraMismatch("near point over a different algebra")
        if self.coeffs is _lift_parts(self.algebra.dim)[0]:  # only lifted_function hands _of these rows
            return xi._wrap(xi._unwrap(lift(self.gens[0].fn, xi)) + 0.0)
        fns, index, stack = _generator_values(self, xi)
        gathered = stack[index]  # (T, width) or (T, width, N)
        scalars = gathered[:, 0]
        for j in range(1, index.shape[1]):
            scalars = scalars * gathered[:, j]
        # row t of point j is coeffs[t] * scalars[t, j]; sum_rows adds the rows per point in order
        rows = self.coeffs.reshape(self.coeffs.shape + (1,) * (scalars.ndim - 1)) * scalars[:, None]
        return xi._wrap(self.algebra.sum_rows(rows))

    def __repr__(self) -> str:
        if not self.indices:
            return "AFunction(0)"
        parts = []
        for coeff, mono in self.terms:
            gens = "*".join(f"gen({g.alpha},{expr_key(g.fn)!r})" for g in mono)
            parts.append(f"[{coeff!r}]" + (f"*{gens}" if gens else ""))
        return "AFunction(" + " + ".join(parts) + ")"


def _gather_plan(dim: int, gens: Sequence[ScalarGenerator], indices: Sequence[Index]) -> tuple:
    """(fns, index, padded) for evaluation, read off the generator table.

    fns are the distinct generator functions (by identity).  Their lifts,
    stacked, followed by a 1.0 when padded, form one vector (one row per
    coefficient at a block), where generator k sits at slot(fn)*dim + alpha;
    index[t, j] is the position of the j-th generator of monomial t, or -1
    (the 1.0) when monomial t has fewer generators.
    """
    fns = list({id(g.fn): g.fn for g in gens}.values())
    slot = {id(fn): s for s, fn in enumerate(fns)}
    position = [slot[id(g.fn)] * dim + g.alpha for g in gens] + [-1]
    width = max(1, max(map(len, indices), default=0))
    pad = [(len(gens),) * (width - n) for n in range(width + 1)]
    flat = list(itertools.chain.from_iterable(m + pad[len(m)] for m in indices))
    index = np.array(position, dtype=np.intp)[np.array(flat, dtype=np.intp).reshape(len(indices), width)]
    return fns, index, not fns or any(len(m) < width for m in indices)


def _generator_values(phi: AFunction, xi: NearPoint | NearPoints) -> tuple:
    """(fns, index, stack): phi's plan, built once, and stack[index] its generator values at xi.

    stack is the lifts of fns from xi's lift memo, then for a padded plan a 1.0 (a row of them at a block).
    """
    if phi._plan is None:
        phi._plan = _gather_plan(phi.algebra.dim, phi.gens, phi.indices)
    fns, index, padded = phi._plan
    values = [xi._unwrap(lift(fn, xi)) for fn in fns]
    if padded:
        values.append(xi._unwrap(lift(ONE, xi))[:1])
    return fns, index, values[0] if len(values) == 1 else np.concatenate(values)


def _table(gens: Sequence[ScalarGenerator]) -> tuple[tuple[ScalarGenerator, ...], list[int]]:
    """The distinct generators in key order, an equal key keeping its first spelling, and each input's position."""
    keys = [g.key for g in gens]
    table, new, last = [], [0] * len(keys), None
    for i in sorted(range(len(keys)), key=keys.__getitem__):  # stable: the first of equal keys comes first
        if keys[i] != last:
            last = keys[i]
            table.append(gens[i])
        new[i] = len(table) - 1
    return tuple(table), new


def _merged(phis: Sequence[AFunction]) -> tuple[tuple[ScalarGenerator, ...], list[Sequence[Index]]]:
    """The union of the functions' generator tables, and each one's monomials as positions into it."""
    tables = [phi.gens for phi in phis if phi.gens]
    if all(table is tables[0] for table in tables):  # at most one table: every position stays
        return (tables[0] if tables else ()), [phi.indices for phi in phis]
    gens, new = _table([g for phi in phis for g in phi.gens])
    parts, start = [], 0
    for phi in phis:
        parts.append(_remap(phi.indices, new[start:start + len(phi.gens)]))
        start += len(phi.gens)
    return gens, parts


def _remap(indices: Sequence[Index], new: Sequence[int]) -> Sequence[Index]:
    """Monomials through the position map new of their table; new is monotone, so they stay sorted."""
    if not new or new[-1] == len(new) - 1:  # a monotone map onto 0..n-1 is the identity
        return indices
    return [tuple([new[k] for k in m]) for m in indices]


def _canonical_rows(dim: int, monos: Sequence[Index], rows: np.ndarray) -> tuple[list[Index], np.ndarray]:
    """Canonical rows: equal (sorted) monomials summed in input order, in key order.

    Zero rows are left for the caller to drop.
    """
    first = dict(zip(reversed(monos), range(len(monos) - 1, -1, -1)))  # each monomial's first row
    keys = sorted(first)
    order = list(map(first.__getitem__, keys))
    if len(first) < len(monos):
        # bincount adds each monomial's rows in input order, from 0.0, into its first row
        bins = np.array(list(map(first.__getitem__, monos)), dtype=np.intp)[:, None] * dim + np.arange(dim)
        rows = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=rows.size).reshape(rows.shape)
        rows = rows.take(order, axis=0)
    elif order != list(range(len(order))):
        rows = rows.take(order, axis=0)
    return keys, rows


def _nonzero(gens, indices: Sequence[Index], coeffs: np.ndarray, plan=None) -> tuple:
    """Drop the zero rows (a NaN row stays) and the generators they leave unused; see _pruned."""
    keep = coeffs.any(axis=1)
    if np.count_nonzero(keep) == len(keep):
        return gens, indices, coeffs, plan
    return _pruned(gens, tuple(itertools.compress(indices, keep)), coeffs.compress(keep, axis=0))


def _pruned(gens, indices: Sequence[Index], coeffs: np.ndarray, plan=None) -> tuple:
    """Drop the generators no monomial uses, so that evaluation never lifts them; a plan survives only if none is dropped."""
    used = set().union(*indices)
    if len(used) == len(gens):
        return gens, indices, coeffs, plan
    kept = sorted(used)
    new = dict(zip(kept, range(len(kept))))
    return tuple(map(gens.__getitem__, kept)), [tuple([new[k] for k in m]) for m in indices], coeffs, None


def _sum(algebra: WeilAlgebra, chart: Chart, phis: Sequence[AFunction]) -> AFunction:
    """Sum of functions by one merge of their rows, in order."""
    if len(phis) < 2:
        return phis[0] if phis else AFunction.zero(algebra, chart)
    gens, parts = _merged(phis)
    monos = [m for part in parts for m in part]
    rows = np.concatenate([phi.coeffs for phi in phis])
    return AFunction._of(algebra, chart, *_nonzero(gens, *_canonical_rows(algebra.dim, monos, rows)))


def lifted_function(f: Expr, algebra: WeilAlgebra, chart: Chart) -> AFunction:
    """The lift of f as a function object: sum_alpha e_alpha * (coefficient alpha of the lift).

    Evaluating at any near point reproduces lift(f, xi) exactly; the expansion
    over the dual basis is what makes the lift manipulable termwise.  Its rows
    are the shared identity of _lift_parts, which evaluate reads as "exactly a
    lift".  Constant expressions collapse to constant functions.
    """
    if isinstance(f, Const):
        return AFunction.constant(algebra.scalar(f.value), chart)
    eye, singles, index = _lift_parts(algebra.dim)
    gens = tuple([ScalarGenerator(alpha, f) for alpha in range(algebra.dim)])
    return AFunction._of(algebra, chart, gens, singles, eye, ([f], index, False))


def _expansion(f: Expr, algebra: WeilAlgebra, chart: Chart, rows: np.ndarray) -> AFunction:
    """sum_alpha rows[alpha] * (coefficient alpha of the lift of f): lifted_function with other coefficient rows."""
    gens = tuple([ScalarGenerator(alpha, f) for alpha in range(algebra.dim)])
    return AFunction._of(algebra, chart, *_nonzero(gens, _lift_parts(algebra.dim)[1], rows))


@lru_cache(maxsize=None)
def _lift_parts(dim: int) -> tuple[np.ndarray, tuple[Index, ...], np.ndarray]:
    """What every lifted function at this dim shares: its read-only identity coefficients, its monomials, its plan index."""
    eye, index = np.eye(dim), np.arange(dim).reshape(dim, 1)
    eye.flags.writeable = index.flags.writeable = False
    return eye, tuple(zip(range(dim))), index


def coordinate_derive(phi: AFunction, i: int) -> AFunction:
    """Derivation extension of the i-th prolonged coordinate field, by the Leibniz fold _leibniz.

    A generator (alpha, g) goes to (alpha, d_i g), or for a constant d_i g = c to c at slot 0, 0 elsewhere.
    These operators commute; the tests check them against the general extension of d/dx_i.
    """
    gens, images = [], []
    for gen in phi.gens:
        dg = diff(gen.fn, i)
        if not isinstance(dg, Const):
            images.append((((len(gens),),), (1.0,)))
            gens.append(ScalarGenerator(gen.alpha, dg))
        else:
            images.append((((),), (dg.value,)) if dg.value != 0.0 and gen.alpha == 0 else None)
    return _leibniz(phi, gens, images)


def _extension(phi: AFunction, images: dict[int, AFunction]) -> AFunction:
    """A field's derivation extension, given X(g) = images[id(g)] per generator function g, by _leibniz.

    Generator (alpha, g) goes to the projection of X(g) onto slot alpha (the tests' oracle: dual_projection).
    """
    gens, monos = [], {}  # the images' tables one after another, each image's monomials as positions into them
    for key, image in images.items():
        monos[key] = [tuple([len(gens) + k for k in m]) for m in image.indices] if gens else image.indices
        gens += image.gens
    projections = []
    for gen in phi.gens:
        c = images[id(gen.fn)].coeffs[:, gen.alpha]
        keep = c != 0.0
        projections.append((list(itertools.compress(monos[id(gen.fn)], keep)), c[keep].tolist()))
    return _leibniz(phi, gens, projections)


def _leibniz(phi: AFunction, gens: Sequence[ScalarGenerator], images: Sequence) -> AFunction:
    """The Leibniz fold of the derivation extensions: the derivation sending generator k of phi to images[k].

    images[k] is (monos, scales), positions into gens (a monomial's generators in key order) and a nonzero
    real factor for each, or None for 0.  Each monomial of phi gives, per generator, one row per image
    monomial: phi's row times the factor plus 0.0, for a finite row mul_coeffs(factor * 1, row).
    """
    # one table for the images' generators and the generators of phi that a rest can keep (those beside another)
    multi = sorted({k for mono in phi.indices if len(mono) > 1 for k in mono})
    table, new = _table([phi.gens[k] for k in multi] + list(gens))
    own, at = dict(zip(multi, new)), new[len(multi):]
    if at != list(range(len(at))):
        images = [image and ([tuple([at[k] for k in m]) for m in image[0]], image[1]) for image in images]
    monos, left, right = [], [], []
    for t, mono in enumerate(phi.indices):
        for j, k in enumerate(mono):
            if images[k] is None:
                continue
            image, scales = images[k]
            if len(mono) == 1:
                monos += image
            else:
                rest = tuple(map(own.__getitem__, mono[:j] + mono[j + 1:]))
                for m2 in image:
                    monos.append(tuple(sorted(rest + m2)) if m2 else rest)
            left += [t] * len(image)
            right += scales
    rows = phi.coeffs[left] * np.array(right)[:, None] + 0.0
    # the table may hold generators that no monomial uses: _pruned drops them
    return AFunction._of(phi.algebra, phi.chart, *_pruned(*_nonzero(table, *_canonical_rows(phi.algebra.dim, monos, rows))))


def _extension_values(phi: AFunction, xi: NearPoint | NearPoints, u: Sequence[np.ndarray]) -> np.ndarray:
    """X~(phi) at xi, where u[i] is the value there of component i of X: (dim,) at a point, (dim, N) at a block.

    The canonical extension of X, valued without building it: X(g) by _chain_rule per distinct generator
    function g; then per monomial and generator (alpha, g), coefficient alpha of X(g) times the other
    generators' values in their order, one row per pair, summed in that order by sum_rows.
    """
    shape = xi.values[0].shape
    if not phi.gens:  # an A-constant: no (monomial, generator) pair, so no plan to build
        return np.zeros(shape)
    fns, index, at = _generator_values(phi, xi)
    t, j = np.nonzero(index >= 0)  # the (monomial, generator) pairs in order; index -1 pads a short monomial
    if not len(t):
        return np.zeros(shape)
    scalars = np.concatenate([_chain_rule(fn, xi, u) for fn in fns])[index[t, j]]
    width = index.shape[1]
    if width > 1:
        skip = np.arange(width - 1)
        others = index[t[:, None], skip + (skip >= j[:, None])]  # the other positions of each pair's monomial
        product = at[others[:, 0]]
        for l in range(1, width - 1):
            product = product * at[others[:, l]]
        scalars = product * scalars
    coeffs = phi.coeffs[t]
    return phi.algebra.sum_rows(coeffs.reshape(coeffs.shape + (1,) * (scalars.ndim - 1)) * scalars[:, None])


def tangent_apply(v: TangentVector, phi: AFunction) -> AElement:
    """Canonical point-derivation extension of a tangent vector, evaluated on phi.

    A-linear in the coefficients, zero on constants, v on lifted functions, Leibniz relative to evaluation
    at v.at: _extension_values there, with v's components as the field's values.
    """
    if phi.algebra != v.at.algebra:
        raise AlgebraMismatch("function over a different algebra")
    return AElement(phi.algebra, _extension_values(phi, v.at, [u.coeffs for u in v.components]))
