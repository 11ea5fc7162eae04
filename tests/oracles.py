"""Reference routes kept beside the tests that check npk against them."""

import itertools

from npk.functions import AFunction, _pruned


def dual_projection(phi: AFunction, alpha: int) -> AFunction:
    """Post-compose with the dual functional: a -> (coefficient alpha of a) * 1.

    This is the coefficient recombination that keeps derivation extensions
    inside the implemented function class; the result is scalar-valued.
    functions._extension folds it into one pass per generator.
    """
    c = phi.coeffs[:, alpha]
    keep = c != 0.0
    rows = c.compress(keep)[:, None] * phi.algebra.unit().coeffs
    return AFunction._of(phi.algebra, phi.chart, *_pruned(phi.gens, tuple(itertools.compress(phi.indices, keep)), rows))
