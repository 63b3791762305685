"""A seeded generator of random correspondences, kept as a test-side helper.

The command line states correspondences only through their specs; the
tests that sample composition, traces and pairings on arbitrary
correspondences draw them from here.
"""

import random
from fractions import Fraction

from ncmotives.algebra import hom_algebra
from ncmotives.complexes import PerfectComplex
from ncmotives.corpus import random_perfect_complex
from ncmotives.motives import Correspondence, NCMotive


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
