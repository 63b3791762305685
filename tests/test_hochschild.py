import pytest

from ncmotives.algebra import enveloping_algebra
from ncmotives.corpus import random_correspondence
from ncmotives.derived import diagonal_resolution
from ncmotives.hochschild import (
    bar_oracle,
    hochschild,
    hochschild_euler,
    intersection_number,
)
from ncmotives.modules import (
    diagonal_bimodule,
    dual_bimodule,
    regular_module,
    simple_modules,
)
from ncmotives.motives import NCMotive, identity_correspondence


def test_hochschild_of_scalars(q):
    assert hochschild(q, diagonal_bimodule(q), top=3).dims == [1, 0, 0, 0]


def test_hochschild_a2_diagonal(a2):
    # HH_0 = A / [A, A] is two-dimensional (the arrow is a commutator),
    # higher groups vanish for a tree quiver
    assert hochschild(a2, diagonal_bimodule(a2), top=4).dims == [2, 0, 0, 0, 0]


def test_hochschild_with_free_coefficients(a2, kronecker):
    # coefficients in the enveloping algebra itself: HH_0 = A, higher vanish
    for alg in (a2, kronecker):
        env = enveloping_algebra(alg)
        free = regular_module(env)
        dims = hochschild(alg, free, top=3).dims
        assert dims == [alg.dim, 0, 0, 0]


def test_bar_oracle_scalars(q):
    assert bar_oracle(q, diagonal_bimodule(q), top=3).dims == [1, 0, 0, 0]


def test_bar_oracle_semisimple(qxq):
    # separable algebra: only HH_0 survives, of dimension 2
    assert bar_oracle(qxq, diagonal_bimodule(qxq), top=3).dims == [2, 0, 0, 0]


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "Kronecker", "A3"])
def test_bar_agrees_with_resolution(name, request):
    alg = request.getfixturevalue(
        {"Q": "q", "QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name]
    )
    top = 3
    for w in (diagonal_bimodule(alg), dual_bimodule(alg)):
        assert hochschild(alg, w, top=top).dims == bar_oracle(alg, w, top=top).dims


def test_bar_agrees_on_simple_bimodules(a2):
    env = enveloping_algebra(a2)
    for s in simple_modules(env):
        assert hochschild(a2, s, top=3).dims == bar_oracle(a2, s, top=3).dims


def test_hochschild_euler_matches_profile(a2, a3, kronecker):
    for alg in (a2, a3, kronecker):
        for w in (diagonal_bimodule(alg), dual_bimodule(alg)):
            prof = hochschild(alg, w, top=4)
            assert hochschild_euler(alg, w) == prof.euler()


def test_hochschild_vanishes_beyond_resolution_range(a2, kronecker):
    # the tensor complex is bounded by the diagonal resolution length plus
    # the coefficient width, so higher groups are forced to vanish
    for alg in (a2, kronecker):
        length = diagonal_resolution(alg).hi - diagonal_resolution(alg).lo
        dims = hochschild(alg, diagonal_bimodule(alg), top=length + 3).dims
        assert all(d == 0 for d in dims[length + 1 :])


def test_hochschild_of_complex_coefficients(a2):
    """A two-term coefficient complex with zero differential: the profile is
    the degree-shifted sum of the module profiles, and the trace-only Euler
    fast path agrees."""
    from ncmotives.complexes import Complex

    w = diagonal_bimodule(a2)
    two = Complex(w.algebra, {-2: w, 0: w}, {})
    prof = hochschild(a2, two, top=4)
    base = hochschild(a2, w, top=4).dims
    expected = [base[n] + (base[n - 2] if n >= 2 else 0) for n in range(5)]
    assert prof.dims == expected
    assert hochschild_euler(a2, two) == prof.euler()


def test_intersection_number_over_scalars(q):
    m = NCMotive(q)
    x = identity_correspondence(m)
    assert intersection_number(x, x) == 1


def test_intersection_number_scaling(a2, kronecker, rng):
    from fractions import Fraction

    ma, mb = NCMotive(a2), NCMotive(kronecker)
    x = random_correspondence(ma, mb, rng)
    y = random_correspondence(mb, ma, rng)
    base = intersection_number(x, y)
    c = Fraction(3, 2)
    assert intersection_number(x.scale(c), y) == c * base
    assert intersection_number(x, y.scale(c)) == c * base


def test_intersection_identity_equals_hochschild_euler(a2):
    m = NCMotive(a2)
    x = identity_correspondence(m)
    # <[A] . [A]> = alternating sum of HH dims of A with coefficients in
    # A (x)_A A = A, which the Hochschild oracle evaluates to 2
    assert intersection_number(x, x) == 2
    assert hochschild(a2, diagonal_bimodule(a2), top=4).euler() == 2


def test_intersection_symmetry_samples(a2, qxq, rng):
    ma, mb = NCMotive(a2), NCMotive(qxq)
    for _ in range(4):
        x = random_correspondence(ma, mb, rng)
        y = random_correspondence(mb, ma, rng)
        assert intersection_number(x, y) == intersection_number(y, x)


def test_intersection_bilinearity_in_terms(a2, rng):
    ma = NCMotive(a2)
    x1 = random_correspondence(ma, ma, rng)
    x2 = random_correspondence(ma, ma, rng)
    y = random_correspondence(ma, ma, rng)
    lhs = intersection_number(x1.add(x2), y)
    assert lhs == intersection_number(x1, y) + intersection_number(x2, y)


def test_endpoint_mismatch_rejected(a2, qxq):
    ma, mb = NCMotive(a2), NCMotive(qxq)
    x = identity_correspondence(ma)
    with pytest.raises(ValueError):
        intersection_number(x, identity_correspondence(mb))


def test_coefficients_in_a_positive_degree_are_rejected(a2):
    """HH_n is read in degree -n, so a component in a positive degree would
    be dropped without a word; hochschild refuses it instead."""
    from ncmotives.complexes import Complex

    w = diagonal_bimodule(a2)
    with pytest.raises(ValueError, match="positive degree"):
        hochschild(a2, Complex(w.algebra, {1: w}, {}))
    with pytest.raises(ValueError, match="positive degree"):
        hochschild(a2, Complex(w.algebra, {0: w, 1: w}, {}))


def test_profile_euler_matches_class_pairing_on_random_complexes(a2, a3, kronecker, rng):
    """HHProfile.euler() (alternating sum of homology dimensions) equals
    hochschild_euler (the class of the coefficients paired with the
    diagonal resolution) on seeded bounded complexes of bimodules in
    degrees <= 0: random perfect complexes moved down to end in degree 0 or
    below, and sums of the diagonal and dual bimodules in random degrees."""
    from ncmotives.complexes import Complex
    from ncmotives.corpus import random_perfect_complex

    checked = 0
    for alg in (a2, a3, kronecker):
        env = enveloping_algebra(alg)
        for _ in range(4):
            x = random_perfect_complex(env, rng, max_shift=2)
            w = x.shift(-x.hi - rng.randint(0, 1)) if x.hi >= 0 else x
            assert w.hi <= 0
            assert hochschild(alg, w).euler() == hochschild_euler(alg, w)
            checked += not w.is_zero()
        for _ in range(2):
            degs = (-rng.randint(0, 1), -rng.randint(2, 3))
            w = Complex(env, dict(zip(degs, (diagonal_bimodule(alg), dual_bimodule(alg)))), {})
            assert hochschild(alg, w).euler() == hochschild_euler(alg, w)
    assert checked >= 8
