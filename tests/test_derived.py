import random

import pytest

from collections import Counter

from ncmotives.algebra import hom_algebra, scalar_algebra
from dense_reference import (
    as_pairs,
    degrees,
    euler_characteristic,
    from_rows,
    matrix_trace,
    single_module_complex,
)
from geometry_reference import kronecker_spec, line_spec
from ncmotives.complexes import Complex
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra, quiver_euler_oracle, random_perfect_complex
from ncmotives.derived import (
    check_smooth,
    compose_classes,
    diagonal_resolution,
    euler_matrix,
    euler_pairing,
    k0_class,
    serre,
    simple_resolutions,
)
from ncmotives.homalg import dual_perfect, hom_complex
from ncmotives.linalg import Matrix
from ncmotives.modules import Module, dual_bimodule, projective_module, simple_modules
from ncmotives.resolutions import ResolutionCapExceeded, projective_resolution, resolution_length
from resolve_reference import ChainMap, cone, resolve_complex
from tensor_reference import tensor_over


def corpus_algebras():
    return [corpus_algebra(n) for n in CORPUS_NAMES]


def injective_dimension_vector(a, i):
    """Dimension vector of the injective dual D(A e_i) of the left projective
    A e_i, read from the Peirce dimensions (the oracle for S(e_i A))."""
    return [a.peirce_dims()[j][i] for j in range(len(a.idempotents))]


def test_k0_of_simple_resolutions_is_standard_basis(a2, a3):
    for alg in (a2, a3):
        res = simple_resolutions(alg)
        for i, r in enumerate(res):
            coords = list(k0_class(r))
            expected = [1 if j == i else 0 for j in range(len(res))]
            assert coords == expected



def _plain_view(pc):
    """The components and differentials of pc as a plain Complex whose
    components know only their rows, so k0_class reads their dimension
    vectors from the traces of the idempotent actions, not from the Peirce
    table."""
    comps = {n: Module(m.algebra, m.dim, m.row) for n, m in pc.components.items()}
    return Complex(pc.algebra, comps, pc.differentials)


def test_k0_class_of_a_perfect_complex_is_memoized(a2, kronecker, rng):
    """A perfect complex keeps its class: a second call returns the same
    object, equal to the class of its plain view read from the rows."""
    for a in (a2, kronecker):
        for _ in range(5):
            pc = random_perfect_complex(a, rng)
            k = k0_class(pc)
            assert k0_class(pc) is k
            assert k == k0_class(_plain_view(pc))


def test_k0_class_from_copies_matches_traces(a2, kronecker, rng):
    """The class of a perfect complex, whose components answer from the
    Peirce table, agrees with that of its plain view, whose components
    answer from the traces of their rows."""
    for alg in corpus_algebras() + [hom_algebra(a2, kronecker)]:
        for _ in range(8):
            pc = random_perfect_complex(alg, rng, max_width=2, max_mult=2)
            assert k0_class(pc) == k0_class(_plain_view(pc))


def test_k0_additive_on_cones(a2, rng):
    x = random_perfect_complex(a2, rng)
    y = random_perfect_complex(a2, rng)
    f = ChainMap(x, y, {})  # the zero chain map
    c = cone(f)
    kx, ky, kc = k0_class(x), k0_class(y), k0_class(c)
    assert list(kc) == [b - a for a, b in zip(kx, ky)]


def test_k0_of_projective_counts_paths(a2):
    # e0 A has dimension vector given by the paths starting at vertex 0
    res = projective_resolution(projective_module(a2, 0))
    assert list(k0_class(res)) == [1, 1]


def test_euler_pairing_over_scalars(q, rng):
    p = projective_module(q, 0)
    res = projective_resolution(p)
    assert euler_pairing(res, res) == 1
    # chi factorizes as the product of Euler characteristics over a field
    for _ in range(5):
        m = random_perfect_complex(q, rng)
        n = random_perfect_complex(q, rng)
        chi = euler_pairing(m, n)
        assert chi == euler_characteristic(m) * euler_characteristic(n)


def test_euler_matrix_scalars(q):
    assert euler_matrix(q).data == [[1]]


def test_euler_matrix_semisimple_identity(qxq):
    assert euler_matrix(qxq).data == [[1, 0], [0, 1]]


@pytest.mark.parametrize("name", ["A2", "A3", "Kronecker"])
def test_euler_matrix_matches_combinatorial_form(name, request):
    alg = request.getfixturevalue({"A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name])
    assert euler_matrix(alg).data == quiver_euler_oracle(name)


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "A3", "Kronecker"])
def test_euler_matrix_unimodular(name, request):
    alg = request.getfixturevalue(
        {"Q": "q", "QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name]
    )
    assert euler_matrix(alg).det() in (1, -1)


def test_euler_pairing_equals_hom_homology_sum(a2, a3, rng):
    for alg in (a2, a3):
        for _ in range(4):
            m = random_perfect_complex(alg, rng)
            n = random_perfect_complex(alg, rng)
            h = hom_complex(m, n)
            by_components = euler_pairing(m, n)
            by_homology = sum(
                (-1 if k % 2 else 1) * h.homology(k) for k in degrees(h)
            )
            assert by_components == by_homology


def test_euler_pairing_respects_cones(a2, rng):
    x = random_perfect_complex(a2, rng)
    y = random_perfect_complex(a2, rng)
    n = random_perfect_complex(a2, rng)
    f = ChainMap(x, y, {})
    c = resolve_complex(cone(f))
    assert euler_pairing(c, n) == euler_pairing(y, n) - euler_pairing(x, n)


def test_serre_is_identity_over_scalars(q, rng):
    for _ in range(4):
        m = random_perfect_complex(q, rng)
        s = serre(m)
        assert s.homology_dims() == m.homology_dims() or all(
            s.homology(n) == m.homology(n)
            for n in set(s.copies) | set(m.copies)
        )


def test_serre_fixes_simples_of_semisimple(qxq):
    for r in simple_resolutions(qxq):
        s = serre(r)
        assert {n: d for n, d in s.homology_dims().items() if d} == {
            n: d for n, d in r.homology_dims().items() if d
        }
        assert list(k0_class(s)) == list(k0_class(r))


def test_serre_of_projectives_gives_injectives(a2, a3):
    """The Serre transform of e_i A has the homology of the injective dual
    of A e_i, computed independently from the Peirce dimensions."""
    for alg in (a2, a3):
        for i in range(len(alg.idempotents)):
            res = projective_resolution(projective_module(alg, i))
            s = serre(res)
            dims = {n: d for n, d in s.homology_dims().items() if d}
            inj = injective_dimension_vector(alg, i)
            assert dims == {0: sum(inj)}
            assert list(k0_class(s)) == inj


def test_serre_duality_degreewise(a2, a3, kronecker, qxq, rng):
    for alg in (qxq, a2, a3, kronecker):
        for _ in range(3):
            m = random_perfect_complex(alg, rng)
            n = random_perfect_complex(alg, rng)
            sm = serre(m)
            h1 = hom_complex(m, n).homology_dims()
            h2 = hom_complex(n, sm).homology_dims()
            degs = set(h1) | {-d for d in h2}
            for i in degs:
                assert h1.get(i, 0) == h2.get(-i, 0)


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "A3", "Kronecker"])
def test_unresolved_serre_matches_its_perfect_replacement(name, request, rng):
    """serre returns the tensor complex M (x)_A D(A) unresolved; resolving
    it must change neither homology, class, nor pairings into it."""
    from ncmotives.corpus import corpus_algebra
    alg = corpus_algebra(name)
    for _ in range(3):
        m = random_perfect_complex(alg, rng)
        sm = serre(m)
        res = resolve_complex(sm)
        degs = set(sm.components) | set(res.copies)
        assert all(sm.homology(d) == res.homology(d) for d in degs)
        assert k0_class(sm) == k0_class(res)
        for _ in range(2):
            n = random_perfect_complex(alg, rng)
            assert euler_pairing(n, sm) == euler_pairing(n, res)


def _serre_oracle_algebras():
    names = [("A2", "Kronecker"), ("A3", "A3"), ("Kronecker", "A2")]
    return corpus_algebras() + [
        hom_algebra(corpus_algebra(x), corpus_algebra(y)) for x, y in names
    ]


def test_serre_matches_tensor_with_the_dual_bimodule():
    """S(M) = D(Hom_A(M, A)) equals M (x)_A D(A) entry for entry: same
    components, same action matrices, same differentials, on the simple
    resolutions of the corpus algebras and of three Hom algebras (27 cases).
    Action matrices are compared because a wrong transpose keeps traces."""
    cases = 0
    for alg in _serre_oracle_algebras():
        dual = dual_bimodule(alg)
        for m in simple_resolutions(alg):
            got = serre(m)
            want = tensor_over(m, dual, scalar_algebra(), alg, alg)
            assert got.algebra is want.algebra is alg
            assert sorted(got.components) == sorted(want.components)
            for n, comp in want.components.items():
                for j in range(alg.dim):
                    assert got.components[n].act_matrix(((j, 1),)) == comp.act_matrix(((j, 1),))
            assert got.differentials == want.differentials
            cases += 1
    assert cases == 27


def test_serre_components_are_the_transposed_dual_components(rng):
    """The component of S(M) in degree n is a sum of injectives D(A e_i)
    whose rows are those of the transpose of the dual's component in degree
    -n: row u of b_j is column u of the dual's action matrix of b_j
    (Module.act_matrix, the dense oracle), and whose dimension vector
    (Module.dims) is the traces of that oracle at the idempotents.  On the
    simple resolutions and two random perfect complexes over every corpus
    algebra and its enveloping algebra.  Rows are compared because reading
    b_j t as t b_j keeps some traces."""
    q = scalar_algebra()
    checked = 0
    for a in corpus_algebras():
        for alg in (a, hom_algebra(a, a)):
            for m in simple_resolutions(alg) + [random_perfect_complex(alg, rng) for _ in range(2)]:
                d = dual_perfect(m, q, alg)
                s = serre(m)
                assert sorted(s.components) == sorted(-n for n in d.components)
                for n, comp in s.components.items():
                    oracles = [d.components[-n].act_matrix(((j, 1),)).transpose() for j in range(alg.dim)]
                    for j, oracle in enumerate(oracles):
                        assert [comp.row(u, j) for u in range(comp.dim)] == [as_pairs(r) for r in oracle.data]
                        checked += 1
                    assert comp.dims() == tuple(matrix_trace(oracles[g]) for g in alg.idempotents)
    assert checked > 1000


def _euler_gram(res):
    return [[euler_pairing(x, y) for y in res] for x in res]


def _corpus_hom_algebras():
    names = [n for n in CORPUS_NAMES if n != "Q"]
    return [
        hom_algebra(corpus_algebra(x), corpus_algebra(y)) for x in names for y in names
    ]


def test_kunneth_simple_resolutions_match_projective_resolutions():
    """Over a Hom algebra op(A) (x) B the simple resolutions are external
    tensor products of the factors' ones; each has the copies, homology and
    class of the minimal projective resolution over the product, and the
    Euler matrix is the same."""
    for e in _corpus_hom_algebras():
        assert e.meta["factors"]
        kunneth = simple_resolutions(e)
        direct = [projective_resolution(s) for s in simple_modules(e)]
        assert len(kunneth) == len(direct) == len(e.idempotents)
        for k, d in zip(kunneth, direct):
            assert {n: Counter(c) for n, c in k.copies.items()} == {
                n: Counter(c) for n, c in d.copies.items()
            }
            assert k.homology_dims() == d.homology_dims()
            assert k0_class(k) == k0_class(d)
        assert euler_matrix(e).data == _euler_gram(direct)


def test_kunneth_simple_resolutions_respect_the_cap(max_length):
    """The product of two length-1 resolutions has length 2: a bound of 1
    refuses it though each factor's resolutions fit, a bound of 2 accepts
    it."""
    from ncmotives.algebra import path_algebra

    a3 = path_algebra(3, [(0, 1, "a"), (1, 2, "b")])
    e = hom_algebra(a3, a3)
    max_length(1)
    with pytest.raises(ResolutionCapExceeded):
        simple_resolutions(e)
    max_length(2)
    lengths = [r.hi - r.lo for r in simple_resolutions(e)]
    assert max(lengths) == 2


def test_kernels_of_identity_and_zero():
    ident, zero = Matrix.identity(2), Matrix.zeros(2, 2)
    assert ident.left_kernel_basis() == [] and ident.kernel_basis() == []
    assert len(zero.left_kernel_basis()) == 2 and len(zero.kernel_basis()) == 2


def test_kernels_of_nilpotent_matrix_differ():
    g = from_rows([[0, 1], [0, 0]])
    left = g.left_kernel_basis()
    right = g.kernel_basis()
    # v G = 0 forces v_0 = 0; G v = 0 forces v_1 = 0: the two null spaces
    # are computed exactly and differ for this (non-Euler) matrix
    assert left == [[0, 1]]
    assert right == [[1, 0]]


@pytest.mark.parametrize(
    "name,length",
    [("Q", 0), ("QxQ", 0), ("A2", 1), ("Kronecker", 1), ("A3", 1)],
)
def test_check_smooth_lengths(name, length, request):
    alg = request.getfixturevalue(
        {"Q": "q", "QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name]
    )
    ok, res = check_smooth(alg)
    assert ok
    actual = 0 if res.is_zero() else res.hi - res.lo
    assert actual == length
    # the resolution really resolves the diagonal bimodule
    dims = {n: d for n, d in res.homology_dims().items() if d}
    assert dims == {0: alg.dim}


def test_check_smooth_cap_exhaustion_returns_false():
    from ncmotives.algebra import table_algebra

    dual_numbers = table_algebra(
        2, ["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0], [[1, 0]]
    )
    ok, res = check_smooth(dual_numbers)
    assert not ok and res is None


def test_quasi_isomorphism_invariance_of_chi(a2, rng):
    """Replacing either argument by a padded resolution with the same
    homology leaves the pairing unchanged."""
    s0 = simple_modules(a2)[0]
    res = projective_resolution(s0)
    other = resolve_complex(single_module_complex(s0))
    m = random_perfect_complex(a2, rng)
    assert euler_pairing(res, m) == euler_pairing(other, m)
    assert euler_pairing(m, res) == euler_pairing(m, other)


def test_serre_classes_in_verify_build_no_transpose(tmp_path, monkeypatch):
    """verify A3 -> A3 reads each Serre complex through its class, and the
    dimension vector of a Serre component comes from its injectives: no
    action matrix is built (Module.act_matrix)."""
    import json

    import ncmotives.derived as derived
    from ncmotives.cli import main
    from ncmotives.modules import Module, direct_sum_modules

    built = {"components": 0, "actions": 0}
    act_matrix = Module.act_matrix

    def counted_sum(a, mods):
        built["components"] += 1
        return direct_sum_modules(a, mods)

    def counted_matrix(m, pairs):
        built["actions"] += 1
        return act_matrix(m, pairs)

    monkeypatch.setattr(derived, "direct_sum_modules", counted_sum)
    monkeypatch.setattr(Module, "act_matrix", counted_matrix)
    a3 = line_spec(3)
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"format": 1, "source": {"algebra": a3}, "target": {"algebra": a3}}))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert built["components"] > 0
    assert built["actions"] == 0


def test_serre_check_builds_no_action_matrix():
    """serre-check on the Kronecker quiver (--seed 3 --samples 5) reads the
    Serre transforms through their rows and dimension vectors: Module.act_matrix, the
    one builder of a dense action matrix, is never called.  A fresh
    interpreter keeps modules cached by other tests from hiding a build."""
    from test_cli import _run_fresh

    kronecker = kronecker_spec(2)
    script = (
        "import json, os, tempfile\n"
        "from ncmotives.cli import main\n"
        "from ncmotives.modules import Module\n"
        "calls = []\n"
        "act_matrix = Module.act_matrix\n"
        "def counted(m, pairs):\n"
        "    calls.append(pairs)\n"
        "    return act_matrix(m, pairs)\n"
        "Module.act_matrix = counted\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path, out = os.path.join(tmp, 'kronecker.json'), os.path.join(tmp, 'report.json')\n"
        f"    json.dump({kronecker!r}, open(path, 'w'))\n"
        "    argv = ['--seed', '3', 'serre-check', path, '--samples', '5', '--out', out]\n"
        "    assert main(argv) == 0\n"
        "print(len(calls))\n"
    )
    assert _run_fresh(script, timeout=120) == "0"


def test_serre_class_is_read_from_the_copies():
    """k0(S(x))_j = sum_i w_i(x) dim(e_j A e_i), with w the copy weights of
    x, on every simple resolution of the corpus Hom algebras; the class
    k0_class reads equals it and the one read from the built transposes."""
    cases = 0
    for e in _corpus_hom_algebras():
        idem = e.idempotents
        for x in simple_resolutions(e):
            s = serre(x)
            got = list(k0_class(s))
            w = x.euler_copy_weights()
            closed = [
                sum(wi * e.peirce_dims()[j][i] for i, wi in enumerate(w)) for j in range(len(idem))
            ]
            built = [
                sum((-1 if n % 2 else 1) * matrix_trace(c.act_matrix(((g, 1),))) for n, c in s.components.items())
                for g in idem
            ]
            assert got == closed == built
            cases += 1
    assert cases == sum(len(e.idempotents) for e in _corpus_hom_algebras())


def _line(n):
    from ncmotives.algebra import path_algebra

    return path_algebra(n, [(i, i + 1, f"a{i}") for i in range(n - 1)])


def _kronecker(n):
    from ncmotives.algebra import path_algebra

    return path_algebra(2, [(0, 1, chr(97 + i)) for i in range(n)])


# Quivers with an arrow from a larger to a smaller vertex, whose copy in
# the diagonal resolution takes the sign -1 on the target's side.
DESCENDING_QUIVERS = {
    "1->0": (2, [(1, 0, "a")]),
    "0->2->1": (3, [(0, 2, "a"), (2, 1, "b")]),
    "0->1<-2": (3, [(0, 1, "a"), (2, 1, "b")]),
}


def _named_algebra(name):
    """The corpus algebras, the line quivers A4..A7, the Kronecker quivers
    K3, K4, the descending quivers, op(A3) and A2 (x) Kronecker, by name."""
    from ncmotives.algebra import opposite, path_algebra, tensor

    if name in CORPUS_NAMES:
        return corpus_algebra(name)
    if name in DESCENDING_QUIVERS:
        return path_algebra(*DESCENDING_QUIVERS[name])
    if name == "op(A3)":
        return opposite(corpus_algebra("A3"))
    if name == "A2xKronecker":
        return tensor(corpus_algebra("A2"), corpus_algebra("Kronecker"))
    return (_line if name[0] == "A" else _kronecker)(int(name[1:]))


def _cartan(a):
    n = len(a.idempotents)
    return Matrix(n, n, [[a.peirce_dims()[i][j] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize(
    "name", [*CORPUS_NAMES, "A4", "A5", "A6", "A7", "op(A3)", "A2xKronecker"]
)
def test_euler_matrix_inverts_the_cartan_matrix(name):
    """The Euler matrix on the simple basis is the inverse of the Cartan
    matrix C_ij = dim(e_i A e_j): chi(S_i, -) pairs the resolution of S_i
    with dimension vectors, and the classes of the projectives are the rows
    of C.  Where C is not symmetric (on every algebra here with an arrow)
    its transpose is not inverted, so the order of the indices is tested
    too."""
    a = _named_algebra(name)
    n = len(a.idempotents)
    g, c = euler_matrix(a), _cartan(a)
    assert g * c == Matrix.identity(n)
    if c != c.transpose():
        assert g * c.transpose() != Matrix.identity(n)


CLASS_ALGEBRAS = ["Q", "QxQ", "A2", "A3", "Kronecker", "op(A3)", "A2xKronecker"]


def test_compose_classes_matches_the_block_count_on_simple_resolutions():
    """compose_classes (U chi_B V) against the block count of
    hochschild.tensor_class, the trace formula's route, which never reads an
    Euler matrix, on every pair res(S_i) over hom(A, B), res(S_j) over
    hom(B, C): A and B range over CLASS_ALGEBRAS, C over its first five
    (7990 pairs)."""
    from ncmotives.hochschild import tensor_class

    algs = [_named_algebra(n) for n in CLASS_ALGEBRAS]
    pairs = 0
    for a in algs:
        for b in algs:
            left = [(x, k0_class(x)) for x in simple_resolutions(hom_algebra(a, b))]
            for c in algs[:5]:
                for y in simple_resolutions(hom_algebra(b, c)):
                    v = k0_class(y)
                    for x, u in left:
                        assert compose_classes(u, v, b) == tensor_class(x.euler_copy_weights(), v, a, b, c)
                        pairs += 1
    assert pairs == 7990


@pytest.mark.parametrize("seed", range(3))
def test_compose_classes_matches_the_block_count_on_random_and_serre_pairs(seed):
    """The same comparison on seeded random perfect complexes x over
    hom(A, B) against y over hom(B, C) and against its unresolved Serre
    transform, whose class is read from its injectives, not copies."""
    from ncmotives.hochschild import tensor_class

    rng = random.Random(seed)
    algs = [_named_algebra(n) for n in CLASS_ALGEBRAS]
    for _ in range(20):
        a, b = rng.choice(algs), rng.choice(algs)
        c = rng.choice(algs[:5])
        x = random_perfect_complex(hom_algebra(a, b), rng)
        y = random_perfect_complex(hom_algebra(b, c), rng)
        u = k0_class(x)
        for z in (y, serre(y)):
            assert compose_classes(u, k0_class(z), b) == tensor_class(x.euler_copy_weights(), k0_class(z), a, b, c)


DIAGONAL_CASES = [n for n in CORPUS_NAMES if n != "Q"] + ["A4", "A5", "A6", "A7", "K3", "K4", *DESCENDING_QUIVERS]


@pytest.mark.parametrize("name", DIAGONAL_CASES)
def test_closed_form_diagonal_resolution_matches_projective_resolution(name):
    """diagonal_resolution writes the standard resolution of a path algebra;
    the minimal projective resolution of the diagonal bimodule over the
    enveloping algebra is the oracle.  The two have the same copies per
    degree, in the same order, the same differential and the same class;
    the closed form squares to zero and resolves A.  hochschild, the Hom
    complex from the dual of the closed form, gives the homology of the
    oracle tensored with the left structure of the diagonal bimodule
    (tests/hochschild_reference.py)."""
    from hochschild_reference import tensor_route_complex
    from ncmotives.hochschild import hochschild
    from ncmotives.modules import diagonal_bimodule

    a = _named_algebra(name)
    closed = diagonal_resolution(a)
    oracle = projective_resolution(diagonal_bimodule(a))
    assert "quiver" in a.meta
    assert closed.copies == oracle.copies
    assert closed.differentials == oracle.differentials
    assert k0_class(closed) == k0_class(oracle)
    for n, d in closed.differentials.items():
        if n + 1 in closed.differentials:
            assert (d * closed.differentials[n + 1]).is_zero()
    assert {n: h for n, h in closed.homology_dims().items() if h} == {0: a.dim}
    through_oracle = tensor_route_complex(oracle, diagonal_bimodule(a), a)
    top = max(0, -through_oracle.lo)
    assert hochschild(a, diagonal_bimodule(a), top=top) == [
        through_oracle.homology(-n) for n in range(top + 1)
    ]


def test_closed_form_diagonal_resolution_respects_the_cap(max_length):
    """A path algebra with an arrow has a diagonal resolution of length 1
    (closed form), a tensor of two such has length 2 (projective_resolution):
    a bound below the length raises, through check_smooth it reads as not
    smooth, and a semisimple quiver algebra passes a bound of 0."""
    from ncmotives.algebra import path_algebra, tensor

    a2 = path_algebra(2, [(0, 1, "a")])
    kronecker = path_algebra(2, [(0, 1, "a"), (0, 1, "b")])
    a3 = path_algebra(3, [(0, 1, "a"), (1, 2, "b")])
    for a, length in ((a3, 1), (tensor(a2, kronecker), 2)):
        max_length(length - 1)
        with pytest.raises(ResolutionCapExceeded):
            diagonal_resolution(a)
        assert check_smooth(a) == (False, None)
        max_length(length)
        assert resolution_length(diagonal_resolution(a)) == length
    max_length(0)
    assert resolution_length(diagonal_resolution(path_algebra(2, []))) == 0


def test_verify_resolves_over_no_enveloping_algebra_of_a_quiver_algebra(tmp_path, monkeypatch):
    """verify A3 -> A3 takes the diagonal resolutions of its quiver algebras
    in closed form: projective_resolution runs, for the simple modules of
    the path algebras, but never over an enveloping algebra."""
    import json

    import ncmotives.derived as derived
    from ncmotives.algebra import opposite
    from ncmotives.cli import main

    resolved = []

    def spy(m):
        resolved.append(m.algebra)
        return projective_resolution(m)

    monkeypatch.setattr(derived, "projective_resolution", spy)
    a3 = {
        "format": 1,
        "kind": "quiver",
        "vertices": 3,
        "arrows": [{"from": i, "to": i + 1, "label": f"r{i}"} for i in range(2)],
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"format": 1, "source": {"algebra": a3}, "target": {"algebra": a3}}))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert resolved
    for alg in resolved:
        factors = alg.meta.get("factors")
        assert not (factors and factors[0] is opposite(factors[1]) and "quiver" in factors[1].meta)


def test_verify_resolves_simples_only_over_its_algebras_and_hom_algebras(tmp_path, monkeypatch):
    """verify A4 -> A2 through the command line resolves the simple modules
    of A4, A2, their opposites, hom(A4, A2) and hom(A2, A4), each once:
    classes compose through the Euler matrices of A4 and A2, so neither
    hom(A4, A4) (dimension 100) nor hom(A2, A2) is resolved."""
    import json

    from ncmotives import derived, motives, specs
    from ncmotives.algebra import opposite
    from ncmotives.cli import main

    resolved = []
    resolve = derived.simple_resolutions

    def spy(a):
        if ("simple_resolutions",) not in a._cache:
            resolved.append(a)
        return resolve(a)

    for module in (derived, motives, specs):
        monkeypatch.setattr(module, "simple_resolutions", spy)

    def line(n):
        arrows = [{"from": i, "to": i + 1, "label": f"r{i}"} for i in range(n - 1)]
        return {"format": 1, "kind": "quiver", "vertices": n, "arrows": arrows}

    path = tmp_path / "a4_a2.json"
    path.write_text(json.dumps({"format": 1, "source": {"algebra": line(4)}, "target": {"algebra": line(2)}}))
    argv = ["--seed", "1", "verify", str(path), "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    a4, a2 = sorted((a for a in resolved if "quiver" in a.meta), key=lambda a: -a.dim)
    expected = [a4, a2, opposite(a4), opposite(a2), hom_algebra(a4, a2), hom_algebra(a2, a4)]
    assert len(resolved) == 6
    assert all(any(r is e for r in resolved) for e in expected)


def _happel_algebra(name):
    """A corpus algebra, A2 as a `table` spec, or the Beilinson algebra of
    P^1, P^2 or P^1 x P^1 (tests/geometry_reference.py), by name."""
    from geometry_reference import beilinson_spec
    from ncmotives.specs import algebra_from_spec
    from test_complexes import TABLE_A2

    if name in CORPUS_NAMES:
        return corpus_algebra(name)
    if name == "table A2":
        return algebra_from_spec(TABLE_A2)
    if name == "P1xP1":
        return algebra_from_spec({"kind": "tensor", "factors": [beilinson_spec(1)] * 2})
    return algebra_from_spec(beilinson_spec(int(name[1:])))


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "table A2", "P1", "P2", "P1xP1"])
def test_diagonal_copy_weights_are_the_euler_matrix(name):
    """Happel's formula: copy (i, j) of the minimal resolution of the
    diagonal sits in degree -k exactly dim Ext^k(S_i, S_j) times, so its
    alternating count is chi(S_i, S_j), the Euler matrix flattened row by
    row.  The two sides share no code: one is the diagonal resolution, the
    other the one-sided resolutions of the simples."""
    a = _happel_algebra(name)
    assert diagonal_resolution(a).euler_copy_weights() == [x for row in euler_matrix(a).data for x in row]
