"""A seeded generator of random correspondences and the built composite,
kept as test-side helpers.

The command line states correspondences only through their specs; the
tests that sample composition, traces and pairings on arbitrary
correspondences draw them from here.  compose builds y o x as tensor
complexes; the package never builds a composite (it reads classes, and
hochschild.composite_trace reads the trace), so compose is the oracle of
those readings.
"""

import random
from fractions import Fraction

from ncmotives.algebra import hom_algebra
from ncmotives.complexes import PerfectComplex
from ncmotives.corpus import random_perfect_complex
from ncmotives.motives import Correspondence, NCMotive
from tensor_reference import tensor_over


def random_correspondence(
    src: NCMotive,
    dst: NCMotive,
    rng: random.Random,
    max_terms: int = 2,
    max_width: int = 1,
) -> Correspondence:
    """Random correspondence between identity motives: a short rational
    combination of random perfect complexes over the Hom algebra."""
    e = hom_algebra(src.algebra, dst.algebra)
    coeff_pool = [1, -1, 2, Fraction(1, 2), 1, -1]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        t = random_perfect_complex(e, rng, max_width=max_width, max_mult=1)
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
