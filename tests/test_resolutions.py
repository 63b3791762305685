import pytest

from dense_reference import regular_module, single_module_complex, span_submodule
from ncmotives.algebra import table_algebra
from ncmotives.complexes import Complex
from ncmotives.corpus import random_perfect_complex
from ncmotives.derived import k0_class
from ncmotives.linalg import Matrix, RowBasis
from ncmotives.modules import (
    cover_data,
    diagonal_bimodule,
    direct_sum_modules,
    projective_module,
    quotient_module,
    simple_modules,
)
from ncmotives.resolutions import ResolutionCapExceeded, projective_resolution
from resolve_reference import ChainMap, cone, resolve_complex


def random_module(a, rng, copies=1):
    """Random quotient of a free module (always a valid module)."""
    free = direct_sum_modules(a, [regular_module(a)] * copies)
    gens = [[rng.randint(-1, 1) for _ in range(free.dim)] for _ in range(rng.randint(0, 2))]
    if not gens:
        return free
    _, rb, _ = span_submodule(free, gens)
    return quotient_module(free, rb)


def dual_numbers():
    """Q[x]/(x^2): finite-dimensional but of infinite global dimension."""
    return table_algebra(2, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], [[1, 0]])


def test_projective_resolves_to_itself(a2):
    p0 = projective_module(a2, 0)
    res = projective_resolution(p0)
    assert res.lo == res.hi == 0
    assert res.copies_at(0) == (0,)


def test_simple_resolutions_over_a2(a2):
    s0, s1 = simple_modules(a2)
    res0 = projective_resolution(s0)
    res1 = projective_resolution(s1)
    # the sink simple is projective, the source simple has a length-1
    # resolution; Euler classes match the alternating sum of the components
    assert res1.lo == res1.hi == 0
    assert res0.hi - res0.lo == 1
    k = k0_class(res0)
    comp_sum = [0, 0]
    for n in res0.copies:
        s = -1 if n % 2 else 1
        for i in res0.copies_at(n):
            p = projective_module(a2, i)
            dims = k0_class(p)
            comp_sum = [x + s * d for x, d in zip(comp_sum, dims)]
    assert list(k) == comp_sum


@pytest.mark.parametrize("name", ["QxQ", "A2", "A3", "Kronecker"])
def test_hereditary_simples_resolve_in_one_step(name, request):
    a = request.getfixturevalue(
        {"QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name]
    )
    for s in simple_modules(a):
        res = projective_resolution(s)
        assert res.hi - res.lo <= 1


def test_resolution_quasi_isomorphic_to_module(a2, a3, rng):
    for alg in (a2, a3):
        for _ in range(4):
            m = random_module(alg, rng)
            res = projective_resolution(m)
            dims = res.homology_dims()
            assert dims.get(0, 0) == m.dim
            assert all(d == 0 for n, d in dims.items() if n != 0)
            if m.dim:
                # the augmentation P^0 -> m is the cover of step 0
                _, _, augmentation = cover_data(m, RowBasis.full(m.dim))
                assert augmentation.rows == res.component_dim(0)
                assert augmentation.rank() == m.dim


def test_resolution_cap_signals_infinite_global_dimension():
    a = dual_numbers()
    (s,) = simple_modules(a)
    with pytest.raises(ResolutionCapExceeded):
        projective_resolution(s)


def test_resolve_complex_returns_perfect_unchanged(a2, rng):
    pc = random_perfect_complex(a2, rng)
    assert resolve_complex(pc) is pc


def test_resolve_zero_differential_complex(a2):
    s0, s1 = simple_modules(a2)
    from ncmotives.modules import direct_sum_modules

    comps = {0: s0, 2: s1}
    c = Complex(a2, comps, {})
    pc = resolve_complex(c)
    nonzero = {n: d for n, d in pc.homology_dims().items() if d}
    assert nonzero == {0: 1, 2: 1}


def test_resolve_acyclic_complex_is_empty(a2):
    s = simple_modules(a2)[0]
    x = single_module_complex(s)
    acyclic = cone(ChainMap(x, x, {0: Matrix.identity(1)}))
    pc = resolve_complex(acyclic)
    assert all(d == 0 for d in pc.homology_dims().values())


def test_resolve_complex_matches_homology_everywhere(a2, a3, kronecker, rng):
    for alg in (a2, a3, kronecker):
        for _ in range(3):
            m = random_module(alg, rng)
            c = single_module_complex(m, degree=rng.randint(-1, 1))
            pc = resolve_complex(c)
            degs = set(c.components) | set(pc.copies)
            for n in degs:
                assert pc.homology(n) == c.homology(n)


def test_diagonal_resolution_shapes(a2, kronecker):
    # hereditary algebras admit length-1 resolutions of the diagonal
    for alg in (a2, kronecker):
        res = projective_resolution(diagonal_bimodule(alg))
        assert res.hi - res.lo == 1
        assert res.homology_dims() == {-1: 0, 0: alg.dim} or res.homology_dims() == {0: alg.dim}


def test_syzygies_stay_subspaces_of_their_projectives():
    """projective_resolution builds no Module but direct sums of projectives
    (and the projectives themselves): each kernel is resolved as a span in
    the coordinates of the cover it sits in.  Run on the simples and the
    diagonal bimodule of A3 and the Kronecker quiver, whose resolutions have
    nonzero syzygies.  A fresh interpreter keeps modules cached by other
    tests from hiding a build."""
    from test_cli import _run_fresh

    script = (
        "import sys\n"
        "from ncmotives import modules\n"
        "from ncmotives.corpus import corpus_algebra\n"
        "from ncmotives.resolutions import projective_resolution, resolution_length\n"
        "algebras = [corpus_algebra(n) for n in ('A3', 'Kronecker')]\n"
        "inputs = [m for a in algebras for m in (*modules.simple_modules(a), modules.diagonal_bimodule(a))]\n"
        "builders = set()\n"
        "init = modules.Module.__init__\n"
        "def counted(self, *args):\n"
        "    builders.add(sys._getframe(1).f_code.co_name)\n"
        "    init(self, *args)\n"
        "modules.Module.__init__ = counted\n"
        "lengths = [resolution_length(projective_resolution(m)) for m in inputs]\n"
        "print(sorted(builders), lengths)\n"
    )
    assert _run_fresh(script, timeout=60) == (
        "['direct_sum_modules', 'projective_module'] [1, 1, 0, 1, 1, 0, 1]"
    )
