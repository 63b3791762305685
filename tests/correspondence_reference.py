"""A seeded generator of random correspondences, the built composite, and
the pairings summed term by term, kept as test-side helpers.

The command line states correspondences only through their specs; the
tests that sample composition, traces and pairings on arbitrary
correspondences draw them from here.  compose builds y o x as tensor
complexes; the package never builds a composite (it reads classes, and
hochschild.composite_trace reads the trace), so compose is the oracle of
those readings.  The package reads every pairing as one bilinear form on a
correspondence's class and copy weights (motives.Correspondence.k0 and
.weights); the *_by_terms functions are the oracles of that reading: they
read each term on its own and sum over terms or term pairs.
"""

import random
from fractions import Fraction

from ncmotives.algebra import hom_algebra
from ncmotives.complexes import PerfectComplex
from ncmotives.corpus import random_perfect_complex
from ncmotives.derived import compose_classes, euler_pairing, k0_class
from ncmotives.hochschild import hochschild_euler, pair_with_diagonal, tensor_class
from ncmotives.motives import Correspondence, NCMotive
from tensor_reference import tensor_over


def random_correspondence(
    src: NCMotive,
    dst: NCMotive,
    rng: random.Random,
    max_terms: int = 2,
    max_width: int = 1,
    max_shift: int = 0,
) -> Correspondence:
    """Random correspondence between identity motives: a short rational
    combination of random perfect complexes over the Hom algebra, each
    shifted by up to max_shift degrees either way."""
    e = hom_algebra(src.algebra, dst.algebra)
    coeff_pool = [1, -1, 2, Fraction(1, 2), 1, -1]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        t = random_perfect_complex(e, rng, max_width=max_width, max_mult=1)
        if max_shift:
            t = t.shift(rng.randint(-max_shift, max_shift))
        if not t.is_zero():
            terms.append((rng.choice(coeff_pool), t))
    if not terms:
        terms = [(1, PerfectComplex(e, {0: (0,)}))]
    return Correspondence(src, dst, terms)


def compose(y: Correspondence, x: Correspondence) -> Correspondence:
    """Composite y o x of x: L -> M and y: M -> N, built: the termwise
    derived tensor X (x)_M Y over the middle algebra (tensor_reference.tensor_over).

    Every term of x must be a PerfectComplex (tensor_over reads the left
    factor off its copies and raises ValueError otherwise); the terms of y
    may be any bounded complexes.  The tensor complexes are returned
    unresolved, so a composite is not perfect and cannot be the x of a
    further compose."""
    if x.target != y.source:
        raise ValueError("correspondence endpoints do not chain")
    a = x.source.algebra
    b = x.target.algebra
    c = y.target.algebra
    terms = [(cx * cy, tensor_over(xt, yt, a, b, c)) for cx, xt in x.terms for cy, yt in y.terms]
    return Correspondence(x.source, y.target, terms)


def chi_hom_by_terms(x: Correspondence, y: Correspondence):
    """chi(x, y) as the sum over term pairs of the Euler pairings of the
    terms."""
    return sum(cx * cy * euler_pairing(xt, yt) for cx, xt in x.terms for cy, yt in y.terms)


def trace_by_terms(z: Correspondence):
    """The alternating sum of Hochschild dimensions of each term, combined
    by the coefficients."""
    a = z.source.algebra
    total = 0
    for c, t in z.terms:
        total += c * hochschild_euler(a, t)
    return total


def intersection_number_by_terms(x: Correspondence, y: Correspondence):
    """The alternating Hochschild dimension sums of X_i (x)_B Y_j, each read
    from the classes of X_i and Y_j, combined over term pairs."""
    a = x.source.algebra
    b = x.target.algebra
    total = 0
    for cx, xt in x.terms:
        for cy, yt in y.terms:
            cls = compose_classes(k0_class(xt), k0_class(yt), b)
            total += cx * cy * pair_with_diagonal(a, cls)
    return total


def composite_trace_by_terms(x: Correspondence, y: Correspondence):
    """trace(y o x) as the sum over term pairs of the class of X_i (x)_A Y_j,
    read from the copies of X_i and the class of Y_j, paired with the copy
    weights of B^!."""
    a, b = x.target.algebra, x.source.algebra
    return sum(
        cx * cy * pair_with_diagonal(b, tensor_class(xt.euler_copy_weights(), k0_class(yt), b, a, b))
        for cx, xt in x.terms
        for cy, yt in y.terms
    )
