import pytest

from ncmotives.algebra import scalar_algebra
from ncmotives.complexes import (
    ChainMap,
    Complex,
    PerfectComplex,
    as_complex,
    cone,
    single_module_complex,
)
from ncmotives.corpus import random_perfect_complex
from ncmotives.linalg import Matrix
from ncmotives.modules import Module, simple_modules


def one_dim_complex():
    q = scalar_algebra()
    m = Module(q, 1, [Matrix.identity(1)])
    return single_module_complex(m, degree=2)


def test_homology_of_single_module():
    c = one_dim_complex()
    assert c.homology(2)[0] == 1
    assert c.homology(1)[0] == 0
    assert c.homology_dims() == {2: 1}


def test_cone_of_identity_is_acyclic(a2):
    s = simple_modules(a2)[0]
    x = single_module_complex(s)
    f = ChainMap(x, x, {0: Matrix.identity(1)})
    c = cone(f)
    assert all(d == 0 for d in c.homology_dims().values())
    assert c.euler_characteristic() == 0


def test_cone_of_zero_map_splits(a2):
    s0 = single_module_complex(simple_modules(a2)[0])
    s1 = single_module_complex(simple_modules(a2)[1])
    f = ChainMap(s0, s1, {})
    c = cone(f)
    # cone(0: X -> Y) = X[1] (+) Y
    assert c.homology_dims() == {-1: 1, 0: 1}


def test_shift_moves_degrees_and_signs(a2, rng):
    pc = random_perfect_complex(a2, rng)
    for c in (pc, Complex(a2, pc.components, pc.differentials)):
        s = c.shift(1)
        assert type(s) is type(c)
        assert {n + 1 for n in c.components} == set(s.components)
        for n in c.components:
            assert s.component_dim(n + 1) == c.component_dim(n)
        for n, d in c.differentials.items():
            assert s.differential(n + 1) == d.scale(-1)
        # shifting twice restores the signs
        s2 = c.shift(2)
        for n, d in c.differentials.items():
            assert s2.differential(n + 2) == d


def test_d_squared_enforced():
    q = scalar_algebra()
    m = Module(q, 1, [Matrix.identity(1)])
    comps = {0: m, 1: m, 2: m}
    diffs = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    with pytest.raises(ValueError):
        Complex(q, comps, diffs)


def test_euler_characteristic_is_homology_invariant(a2, a3, kronecker, rng):
    for alg in (a2, a3, kronecker):
        for _ in range(6):
            c = random_perfect_complex(alg, rng)
            chi_components = c.euler_characteristic()
            chi_homology = sum(
                (-1 if n % 2 else 1) * c.homology(n)[0] for n in c.degrees()
            )
            assert chi_components == chi_homology


def test_perfect_complex_block_roundtrip(a2, rng):
    pc = random_perfect_complex(a2, rng)
    pc.check()
    # a perfect complex is a complex: its homology is that of its plain view
    plain = Complex(a2, pc.components, pc.differentials)
    assert isinstance(pc, Complex) and pc.homology_dims() == plain.homology_dims()


def test_perfect_rejects_non_module_map(a2):
    # P_0 -> P_0 sending e0 |-> e0 but a |-> 0 is not right-linear
    bad = Matrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        PerfectComplex(a2, {0: (0,), 1: (0,)}, {0: bad})


def test_homology_representatives_are_cycles(a2, rng):
    for _ in range(4):
        c = random_perfect_complex(a2, rng)
        for n in c.degrees():
            dim, reps = c.homology(n)
            assert dim == len(reps)
            d = c.differential(n)
            for v in reps:
                from ncmotives.linalg import row_times

                assert all(x == 0 for x in row_times(v, d))


def test_scalar_complex_and_as_complex():
    q = scalar_algebra()
    comps = {0: Module(q, 2, [Matrix.identity(2)]), 1: Module(q, 1, [Matrix.identity(1)])}
    c = Complex(q, comps, {0: Matrix.from_rows([[0], [0]])})
    assert c.component_dim(0) == 2
    assert as_complex(c) is c


def test_empty_perfect(a2):
    pc = PerfectComplex(a2, {}, {})
    assert pc.is_zero()
    assert pc.homology_dims() == {}
    assert pc.euler_copy_weights() == [0, 0]
