import pytest

from dense_reference import degrees, dense_module, euler_characteristic, from_rows, shift, single_module_complex
from ncmotives.algebra import scalar_algebra
from ncmotives.complexes import Complex, PerfectComplex, as_complex
from ncmotives.corpus import random_perfect_complex
from ncmotives.linalg import Matrix
from ncmotives.modules import simple_modules
from resolve_reference import ChainMap, cone, perfect_from_matrices


# A2 written as structure constants: basis e0, e1, a with e0 a = a = a e1
TABLE_A2 = {
    "kind": "table",
    "dim": 3,
    "labels": ["e0", "e1", "a"],
    "mul": [
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ],
    "unit": [1, 1, 0],
    "idempotents": [[1, 0, 0], [0, 1, 0]],
}


def one_dim_complex():
    q = scalar_algebra()
    m = dense_module(q, [Matrix.identity(1)])
    return single_module_complex(m, degree=2)


def test_homology_of_single_module():
    c = one_dim_complex()
    assert c.homology(2) == 1
    assert c.homology(1) == 0
    assert c.homology_dims() == {2: 1}


def test_cone_of_identity_is_acyclic(a2):
    s = simple_modules(a2)[0]
    x = single_module_complex(s)
    f = ChainMap(x, x, {0: Matrix.identity(1)})
    c = cone(f)
    assert all(d == 0 for d in c.homology_dims().values())
    assert euler_characteristic(c) == 0


def test_cone_of_zero_map_splits(a2):
    s0 = single_module_complex(simple_modules(a2)[0])
    s1 = single_module_complex(simple_modules(a2)[1])
    f = ChainMap(s0, s1, {})
    c = cone(f)
    # cone(0: X -> Y) = X[1] (+) Y
    assert c.homology_dims() == {-1: 1, 0: 1}


def test_shift_moves_degrees_and_signs(a2, rng):
    """PerfectComplex.shift and the reference shift of any complex follow
    one convention."""
    pc = random_perfect_complex(a2, rng)
    plain = Complex(a2, pc.components, pc.differentials)
    for c, shifted in ((pc, pc.shift), (plain, lambda k: shift(plain, k))):
        s = shifted(1)
        assert type(s) is type(c)
        assert {n + 1 for n in c.components} == set(s.components)
        for n in c.components:
            assert s.component_dim(n + 1) == c.component_dim(n)
        for n, d in c.differentials.items():
            assert s.differentials[n + 1] == Matrix(d.rows, d.cols, [[-x for x in r] for r in d.data])
        # shifting twice restores the signs
        s2 = shifted(2)
        for n, d in c.differentials.items():
            assert s2.differentials[n + 2] == d


def test_d_squared_enforced():
    q = scalar_algebra()
    m = dense_module(q, [Matrix.identity(1)])
    comps = {0: m, 1: m, 2: m}
    diffs = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    with pytest.raises(ValueError):
        Complex(q, comps, diffs)


def test_euler_characteristic_is_homology_invariant(a2, a3, kronecker, rng):
    for alg in (a2, a3, kronecker):
        for _ in range(6):
            c = random_perfect_complex(alg, rng)
            chi_components = euler_characteristic(c)
            chi_homology = sum(
                (-1 if n % 2 else 1) * c.homology(n) for n in degrees(c)
            )
            assert chi_components == chi_homology


def test_perfect_complex_block_roundtrip(a2, rng):
    pc = random_perfect_complex(a2, rng)
    # every assembled differential is a module map
    perfect_from_matrices(a2, pc.copies, dict(pc.differentials))
    # a perfect complex is a complex: its homology is that of its plain view
    plain = Complex(a2, pc.components, pc.differentials)
    assert isinstance(pc, Complex) and pc.homology_dims() == plain.homology_dims()


def test_perfect_rejects_non_module_map(a2):
    # P_0 -> P_0 sending e0 |-> e0 but a |-> 0 is not right-linear
    bad = from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="module map"):
        perfect_from_matrices(a2, {0: (0,), 1: (0,)}, {0: bad})


def test_perfect_rejects_a_block_outside_its_corner(a2):
    # the arrow a lies in e0 A e1, not in the corner e0 A e0 of a block
    # from a copy of e0 A to a copy of e0 A
    a = a2.labels.index("a")
    with pytest.raises(ValueError, match="Peirce corner"):
        PerfectComplex(a2, {0: (0,), 1: (0,)}, {0: {(0, 0): [(a, 1)]}})
    # a zero pair is dropped, not refused, and a block of zero pairs with it
    e0 = a2.idempotents[0]
    pc = PerfectComplex(
        a2, {0: (0,), 1: (0,), 2: (0,)}, {0: {(0, 0): [(a, 0), (e0, 2)]}, 1: {(0, 0): [(a, 0)]}}
    )
    assert pc.block_elements(0) == {(0, 0): ((e0, 2),)}
    assert pc.block_elements(1) == {} and 1 not in pc.differentials


def test_perfect_rejects_d_squared_nonzero_on_the_blocks(a2):
    e0, e1 = ([(g, 1)] for g in a2.idempotents)
    a = [(a2.labels.index("a"), 1)]
    with pytest.raises(ValueError, match="d\\^2"):
        PerfectComplex(a2, {0: (0,), 1: (0,), 2: (0,)}, {0: {(0, 0): e0}, 1: {(0, 0): e0}})
    # e1 A -> e1 A -> e0 A by e1, then a in e0 A e1: the composite is left
    # multiplication by a e1 = a, although e1 a = 0
    with pytest.raises(ValueError, match="d\\^2"):
        PerfectComplex(a2, {0: (1,), 1: (1,), 2: (0,)}, {0: {(0, 0): e1}, 1: {(0, 0): a}})


def test_blocks_round_trip_through_the_assembled_differentials(a2, kronecker, rng):
    """Every perfect complex the package builds (random complexes, shifts,
    duals, external tensors, the closed-form diagonal resolution, projective
    resolutions) holds each block as a tuple of nonzero (basis index,
    coefficient) pairs in strictly increasing index order, and keeps the
    blocks that the generator rows of its assembled differentials give
    back."""
    from ncmotives.specs import algebra_from_spec
    from ncmotives.corpus import CORPUS_NAMES, corpus_algebra
    from ncmotives.derived import diagonal_resolution, simple_resolutions
    from ncmotives.homalg import dual_perfect
    from ncmotives.modules import diagonal_bimodule
    from ncmotives.algebra import hom_algebra
    from ncmotives.resolutions import projective_resolution

    table_a2 = algebra_from_spec(TABLE_A2)
    e = hom_algebra(a2, kronecker)
    built = [random_perfect_complex(alg, rng) for alg in (a2, kronecker, e) for _ in range(4)]
    built += [dual_perfect(pc, a2, kronecker) for pc in built[-4:]]
    built += [pc.shift(1) for pc in built[:4]]
    built += simple_resolutions(e) + [diagonal_resolution(kronecker)]
    for alg in [*map(corpus_algebra, CORPUS_NAMES), table_a2]:
        built += [projective_resolution(s) for s in simple_modules(alg)]
    built.append(projective_resolution(diagonal_bimodule(table_a2)))
    # the table A2 has a simple and a diagonal resolution of length 1
    assert built[-1].block_elements(-1) and any(pc.block_elements(-1) for pc in built[-3:-1])
    for pc in built:
        for z in (z for n in pc.copies for z in pc.block_elements(n).values()):
            assert type(z) is tuple and z
            assert all(type(g) is int and x for g, x in z)
            assert all(g < h for (g, _), (h, _) in zip(z, z[1:]))
        dense = perfect_from_matrices(pc.algebra, pc.copies, dict(pc.differentials))
        for n in pc.copies:
            assert list(pc.block_elements(n).items()) == list(dense.block_elements(n).items())


def test_scalar_complex_and_as_complex():
    q = scalar_algebra()
    comps = {0: dense_module(q, [Matrix.identity(2)]), 1: dense_module(q, [Matrix.identity(1)])}
    c = Complex(q, comps, {0: from_rows([[0], [0]])})
    assert c.component_dim(0) == 2
    assert as_complex(c) is c


def test_empty_perfect(a2):
    pc = PerfectComplex(a2, {}, {})
    assert pc.is_zero()
    assert pc.homology_dims() == {}
    assert pc.euler_copy_weights() == [0, 0]
