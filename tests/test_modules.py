import pytest

from dense_reference import matrix_sum, regular_module, right_matrix, span_submodule
from ncmotives.algebra import hom_algebra, opposite, tensor
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra
from ncmotives.derived import k0_class
from ncmotives.linalg import Matrix, RowBasis
from ncmotives.modules import (
    cover_data,
    diagonal_bimodule,
    direct_sum_modules,
    dual_bimodule,
    left_structure_module,
    module_radical,
    projective_module,
    quotient_module,
    simple_modules,
)
from test_algebra import left_matrix


@pytest.mark.parametrize("name", ["Q", "QxQ", "A2", "A3", "Kronecker"])
def test_module_axioms_on_corpus(name, request):
    a = request.getfixturevalue({"Q": "q", "QxQ": "qxq", "A2": "a2", "A3": "a3", "Kronecker": "kronecker"}[name])
    regular_module(a).check()
    diagonal_bimodule(a).check()
    dual_bimodule(a).check()
    for s in simple_modules(a):
        s.check()
    for i in range(len(a.idempotents)):
        projective_module(a, i)[0].check()


def test_simples_of_scalars(q):
    (s,) = simple_modules(q)
    assert s.dim == 1
    assert s.action[0] == Matrix.identity(1)


def test_simples_of_a2_explicit_actions(a2):
    simples = simple_modules(a2)
    assert [s.dim for s in simples] == [1, 1]
    # S_i: e_i acts as 1, every other basis element acts as 0
    for i, s in enumerate(simples):
        for t in range(a2.dim):
            expected = 1 if t == a2.idempotent_basis_indices()[i] else 0
            assert s.action[t].data == [[expected]]


def test_simples_of_kronecker(kronecker):
    simples = simple_modules(kronecker)
    assert [s.dim for s in simples] == [1, 1]


def test_projective_module_bases(a2):
    p0, basis0 = projective_module(a2, 0)
    p1, basis1 = projective_module(a2, 1)
    assert p0.dim == 2 and [a2.labels[t] for t in basis0] == ["e0", "a"]
    assert p1.dim == 1 and [a2.labels[t] for t in basis1] == ["e1"]


def test_module_radical_of_projective(a2):
    p0, _ = projective_module(a2, 0)
    rad = module_radical(p0)
    assert rad.dim == 1  # the arrow spans rad(e0 A)


def test_cover_of_projective_is_identity_length(a2):
    p0, _ = projective_module(a2, 0)
    copies, gens, cover = cover_data(p0)
    assert copies == [0]
    assert cover.rank() == p0.dim
    # kernel of the cover vanishes: the projective is its own cover
    assert cover.left_kernel_basis() == []


def test_span_submodule_closure(a2):
    reg = regular_module(a2)
    # the span of e0 inside A is e0 A (closed under the action)
    sub, rb, incl = span_submodule(reg, [a2.basis_vector(0)])
    assert sub.dim == 2
    sub.check()


def test_quotient_module_dims(a2):
    reg = regular_module(a2)
    _, rb, _ = span_submodule(reg, [a2.basis_vector(2)])  # the arrow ideal
    quot, proj = quotient_module(reg, rb)
    assert quot.dim == 2
    quot.check()


def test_direct_sum(a2):
    p0, _ = projective_module(a2, 0)
    p1, _ = projective_module(a2, 1)
    total, offsets = direct_sum_modules(a2, [p0, p1])
    assert total.dim == 3 and offsets == [0, 2]
    total.check()


def test_k0_class_of_a_module_is_its_dimension_vector(a2):
    reg = regular_module(a2)
    # dim(A e_i) per idempotent: e0 fixes {e0}, arrow and e1 end at vertex 1
    assert k0_class(reg).coords == (1, 2)
    p0, _ = projective_module(a2, 0)
    assert k0_class(p0).coords == (1, 1)


def test_diagonal_bimodule_action(a2):
    diag = diagonal_bimodule(a2)
    env = hom_algebra(a2, a2)
    # (e0^op, e0) projects onto e0 A e0 = span{e0}
    t = diag.act_matrix(env.idempotents[0]).trace()
    assert t == 1


def test_dual_bimodule_dimension_vector(a2):
    da = dual_bimodule(a2)
    env = hom_algebra(a2, a2)
    # dim(e_i D(A) e_j) = dim(e_j A e_i)
    for i in range(2):
        for j in range(2):
            idx = i * 2 + j
            t = da.act_matrix(env.idempotents[idx]).trace()
            assert t == a2.peirce_dim(j, i)


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "env(A2)"])
def test_bimodule_actions_match_dense_products(name):
    """diagonal_bimodule and dual_bimodule fill their actions from the
    structure constants; the dense products L_i R_j and (L_j R_i)^T are the
    oracle."""
    a = hom_algebra(corpus_algebra("A2"), corpus_algebra("A2")) if name == "env(A2)" else corpus_algebra(name)
    diag = diagonal_bimodule(a)
    dual = dual_bimodule(a)
    for t in range(hom_algebra(a, a).dim):
        i, j = divmod(t, a.dim)
        assert diag.action[t] == left_matrix(a, i) * right_matrix(a, j)
        assert dual.action[t] == (left_matrix(a, j) * right_matrix(a, i)).transpose()


def test_left_structure_module_is_valid(a2):
    w = diagonal_bimodule(a2)
    lm = left_structure_module(w, a2)
    assert lm.algebra is opposite(tensor(opposite(a2), a2))
    lm.check()


def dense_module_radical(m):
    """m * rad(A) from the rows of the trace-form radical of m's algebra
    itself: the construction module_radical replaces over tensor algebras."""
    rb = RowBasis(m.dim)
    for g in m.algebra.radical().rows:
        rb.extend(m.act_matrix(g).data)
    return rb


def test_kuenneth_module_radical_matches_the_full_radical():
    """Over every corpus enveloping and Hom algebra (a tensor algebra), the
    span built from the factors' radicals equals the one built from the
    radical of the product, on the regular module, the indecomposable
    projectives and, for enveloping algebras, the diagonal and dual
    bimodules."""
    seen = []
    for na in CORPUS_NAMES:
        a = corpus_algebra(na)
        for nb in CORPUS_NAMES:
            e = tensor(opposite(a), corpus_algebra(nb))
            if "factors" not in e.meta or any(e is s for s in seen):
                continue
            seen.append(e)
            mods = [regular_module(e)]
            mods += [projective_module(e, i)[0] for i in range(len(e.idempotents))]
            if e is hom_algebra(a, a):
                mods += [diagonal_bimodule(a), dual_bimodule(a)]
            for m in mods:
                assert module_radical(m).rows == dense_module_radical(m).rows
    assert len(seen) == 16


@pytest.mark.parametrize("name", ["A2", "A3", "Kronecker", "A4"])
def test_diagonal_resolution_matches_one_built_through_the_dense_radical(name, monkeypatch):
    from ncmotives import modules
    from ncmotives.algebra import Quiver, path_algebra
    from ncmotives.corpus import corpus_quiver
    from ncmotives.derived import diagonal_resolution
    from ncmotives.resolutions import projective_resolution

    if name == "A4":
        quiver = Quiver(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")])
    else:
        quiver = corpus_quiver(name)
    a = path_algebra(quiver)
    res = diagonal_resolution(a)
    monkeypatch.setattr(modules, "module_radical", dense_module_radical)
    dense, _ = projective_resolution(diagonal_bimodule(a))
    assert res.copies == dense.copies
    assert res.differentials == dense.differentials


def _sparse_action_modules(a):
    """Each kind of module that answers Module.row its own way: the
    projectives (structure constants), direct sums of them with a zero
    summand inside (their summands), and the simples (explicit matrices)."""
    from ncmotives.modules import zero_module

    projectives = [projective_module(a, i)[0] for i in range(len(a.idempotents))]
    total, _ = direct_sum_modules(a, [projectives[-1], zero_module(a), *projectives])
    return [*projectives, total, *simple_modules(a)]


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "env(A2)", "op(A3)xA3"])
def test_sparse_right_action_matches_the_dense_builder(name, rng):
    """Module.row(s, j) is row s of the dense action matrix, as its nonzero
    (k, c) pairs, on every module kind and basis element; act_matrix and
    act_vector, which read through it, equal the dense sums of action
    matrices (dense_reference.matrix_sum and row_times) on random elements."""
    from ncmotives.linalg import row_times

    if name == "env(A2)":
        a = hom_algebra(corpus_algebra("A2"), corpus_algebra("A2"))
    elif name == "op(A3)xA3":
        a = tensor(opposite(corpus_algebra("A3")), corpus_algebra("A3"))
    else:
        a = corpus_algebra(name)
    for m in _sparse_action_modules(a):
        for j in range(a.dim):
            dense = [tuple((k, c) for k, c in enumerate(r) if c) for r in m.action[j].data]
            assert [m.row(s, j) for s in range(m.dim)] == dense
        for _ in range(3):
            coeffs = [rng.choice([0, 0, 1, -2]) for _ in range(a.dim)]
            v = [rng.choice([0, 1, 3]) for _ in range(m.dim)]
            terms = [(m.action[k], c) for k, c in enumerate(coeffs) if c]
            assert m.act_matrix(coeffs) == matrix_sum(terms, m.dim, m.dim)
            assert m.act_vector(v, coeffs) == [
                sum(c * x for c, x in zip(coeffs, col)) for col in zip(*(row_times(v, m.action[k]) for k in range(a.dim)))
            ]


def test_verify_builds_no_direct_sum_action_matrix(tmp_path, monkeypatch):
    """verify A3 -> A3 reads every direct sum of projectives (the components
    of its perfect complexes, the covers of its resolutions) through the
    sparse right action: not one block-diagonal action matrix is built."""
    import json

    import ncmotives.complexes as complexes
    import ncmotives.modules as modules
    import ncmotives.resolutions as resolutions
    from ncmotives.cli import main

    built = {"sums": 0, "matrices": 0}

    def counted(a, mods):
        m, offsets = direct_sum_modules(a, mods)
        build = m.action._build

        def run(j):
            built["matrices"] += 1
            return build(j)

        m.action._build = run
        built["sums"] += 1
        return m, offsets

    for mod in (modules, complexes, resolutions):
        monkeypatch.setattr(mod, "direct_sum_modules", counted)
    a3 = {
        "format": 1,
        "kind": "quiver",
        "vertices": 3,
        "arrows": [{"from": i, "to": i + 1, "label": f"s{i}"} for i in range(2)],
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"format": 1, "source": {"algebra": a3}, "target": {"algebra": a3}}))
    assert main(["verify", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert built["sums"] > 50
    assert built["matrices"] == 0
