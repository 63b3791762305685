import pytest

from dense_reference import (
    act_vector,
    as_pairs,
    basis_vector,
    matrix_sum,
    matrix_trace,
    regular_module,
    right_matrix,
    span_submodule,
)
from hochschild_reference import left_structure_module
from ncmotives.algebra import hom_algebra, opposite, tensor
from ncmotives.corpus import CORPUS_NAMES, corpus_algebra
from ncmotives.derived import k0_class
from ncmotives.linalg import Matrix, RowBasis
from ncmotives.modules import (
    Module,
    cover_data,
    diagonal_bimodule,
    direct_sum_modules,
    dual_bimodule,
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
        projective_module(a, i).check()


def test_simples_of_scalars(q):
    (s,) = simple_modules(q)
    assert s.dim == 1
    assert s.act_matrix(((0, 1),)) == Matrix.identity(1)


def test_simples_of_a2_explicit_actions(a2):
    simples = simple_modules(a2)
    assert [s.dim for s in simples] == [1, 1]
    # S_i: e_i acts as 1, every other basis element acts as 0
    for i, s in enumerate(simples):
        for t in range(a2.dim):
            expected = 1 if t == a2.idempotents[i] else 0
            assert s.act_matrix(((t, 1),)).data == [[expected]]


def test_simples_of_kronecker(kronecker):
    simples = simple_modules(kronecker)
    assert [s.dim for s in simples] == [1, 1]


def test_projective_module_bases(a2):
    p0 = projective_module(a2, 0)
    p1 = projective_module(a2, 1)
    assert p0.dim == 2 and [a2.labels[t] for t in a2.projective_basis(0)] == ["e0", "a"]
    assert p1.dim == 1 and [a2.labels[t] for t in a2.projective_basis(1)] == ["e1"]


def test_module_radical_of_projective(a2):
    p0 = projective_module(a2, 0)
    rad = module_radical(p0, RowBasis.full(p0.dim))
    assert rad.dim == 1  # the arrow spans rad(e0 A)


def test_cover_of_projective_is_identity_length(a2):
    p0 = projective_module(a2, 0)
    copies, gens, cover = cover_data(p0, RowBasis.full(p0.dim))
    assert copies == [0]
    assert cover.rank() == p0.dim
    # kernel of the cover vanishes: the projective is its own cover
    assert cover.left_kernel_basis() == []


def test_cover_of_a_submodule_is_read_in_the_ambient_coordinates(a2):
    """rad(e0 A) = span{a} inside e0 A (basis e0, a) is the simple top of
    e1 A: one copy at vertex 1, generated by the arrow itself, with the
    generator and the cover rows in e0 A's coordinates."""
    p0 = projective_module(a2, 0)
    copies, gens, cover = cover_data(p0, RowBasis(2).extend([[0, 1]]))
    assert (copies, gens, cover.data) == ([1], [[0, 1]], [[0, 1]])


@pytest.mark.parametrize("build", [cover_data, module_radical])
def test_a_span_that_is_not_action_closed_is_refused(a2, build):
    """span{e0} inside e0 A is not a submodule (e0 * a = a leaves it): its
    product with the radical generator a, which the cover and the radical
    compute anyway, raises."""
    p0 = projective_module(a2, 0)
    with pytest.raises(ValueError, match="span is not action-closed"):
        build(p0, RowBasis(2).extend([[1, 0]]))


def test_span_submodule_closure(a2):
    reg = regular_module(a2)
    # the span of e0 inside A is e0 A (closed under the action)
    sub, rb, incl = span_submodule(reg, [basis_vector(a2, 0)])
    assert sub.dim == 2
    sub.check()


def test_quotient_module_dims(a2):
    reg = regular_module(a2)
    _, rb, _ = span_submodule(reg, [basis_vector(a2, 2)])  # the arrow ideal
    quot = quotient_module(reg, rb)
    assert quot.dim == 2
    quot.check()


def test_direct_sum(a2):
    p0 = projective_module(a2, 0)
    p1 = projective_module(a2, 1)
    total = direct_sum_modules(a2, [p0, p1])
    assert total.dim == 3
    # p1's one row sits after p0's two
    for j in range(a2.dim):
        moved = tuple((k + 2, c) for k, c in p1.row(0, j))
        assert [total.row(s, j) for s in range(3)] == [p0.row(0, j), p0.row(1, j), moved]
    total.check()


def test_k0_class_of_a_module_is_its_dimension_vector(a2):
    reg = regular_module(a2)
    # dim(A e_i) per idempotent: e0 fixes {e0}, arrow and e1 end at vertex 1
    assert k0_class(reg) == (1, 2)
    p0 = projective_module(a2, 0)
    assert k0_class(p0) == (1, 1)


def test_diagonal_bimodule_action(a2):
    diag = diagonal_bimodule(a2)
    env = hom_algebra(a2, a2)
    # (e0^op, e0) projects onto e0 A e0 = span{e0}
    t = matrix_trace(diag.act_matrix(((env.idempotents[0], 1),)))
    assert t == 1


def test_dual_bimodule_dimension_vector(a2):
    da = dual_bimodule(a2)
    env = hom_algebra(a2, a2)
    # dim(e_i D(A) e_j) = dim(e_j A e_i)
    for i in range(2):
        for j in range(2):
            idx = i * 2 + j
            t = matrix_trace(da.act_matrix(((env.idempotents[idx], 1),)))
            assert t == a2.peirce_dims()[j][i] == da.dims()[idx]


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "env(A2)"])
def test_bimodule_actions_match_dense_products(name):
    """diagonal_bimodule and dual_bimodule read their rows from the
    structure constants; the dense products L_i R_j and (L_j R_i)^T are the
    oracle, and their traces at the idempotents that of Module.dims."""
    a = hom_algebra(corpus_algebra("A2"), corpus_algebra("A2")) if name == "env(A2)" else corpus_algebra(name)
    diag = diagonal_bimodule(a)
    dual = dual_bimodule(a)
    traces = {}
    for t in range(hom_algebra(a, a).dim):
        i, j = divmod(t, a.dim)
        assert diag.act_matrix(((t, 1),)) == left_matrix(a, i) * right_matrix(a, j)
        assert dual.act_matrix(((t, 1),)) == (left_matrix(a, j) * right_matrix(a, i)).transpose()
        traces[t] = (matrix_trace(diag.act_matrix(((t, 1),))), matrix_trace(dual.act_matrix(((t, 1),))))
    idem = hom_algebra(a, a).idempotents
    assert diag.dims() == tuple(traces[g][0] for g in idem)
    assert dual.dims() == tuple(traces[g][1] for g in idem)


def test_left_structure_module_is_valid(a2):
    """The left structure of a bimodule, through which the reference route
    of tests/hochschild_reference.py meets the diagonal, is a module over
    the opposite enveloping algebra."""
    w = diagonal_bimodule(a2)
    lm = left_structure_module(w, a2)
    assert lm.algebra is opposite(tensor(opposite(a2), a2))
    lm.check()
    assert lm.dims() == Module(lm.algebra, lm.dim, lm.row).dims()


def dense_module_radical(m, sub):
    """N * rad(A), N the span of sub, from the rows of the trace-form radical
    of m's algebra itself: the construction module_radical replaces over
    tensor algebras."""
    rb = RowBasis(m.dim)
    for g in m.algebra.radical().rows:
        rb.extend(act_vector(m, r, g) for r in sub.rows)
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
            mods += [projective_module(e, i) for i in range(len(e.idempotents))]
            if e is hom_algebra(a, a):
                mods += [diagonal_bimodule(a), dual_bimodule(a)]
            for m in mods:
                whole = RowBasis.full(m.dim)
                assert module_radical(m, whole).rows == dense_module_radical(m, whole).rows
    assert len(seen) == 16


@pytest.mark.parametrize("name", ["A2", "A3", "Kronecker", "A4"])
def test_diagonal_resolution_matches_one_built_through_the_dense_radical(name, monkeypatch):
    from geometry_reference import line_spec
    from ncmotives import modules
    from ncmotives.algebra import path_algebra
    from ncmotives.derived import diagonal_resolution
    from ncmotives.resolutions import projective_resolution
    from ncmotives.specs import NAMED_SPECS
    from test_algebra import quiver_of

    a = path_algebra(*quiver_of(line_spec(4) if name == "A4" else NAMED_SPECS[name]))
    res = diagonal_resolution(a)
    monkeypatch.setattr(modules, "module_radical", dense_module_radical)
    dense = projective_resolution(diagonal_bimodule(a))
    assert res.copies == dense.copies
    assert res.differentials == dense.differentials


def _restrict(m: Matrix, basis) -> Matrix:
    """The square submatrix of m on the rows and columns in basis."""
    return Matrix(len(basis), len(basis), [[m.data[s][t] for t in basis] for s in basis])


def _block_diagonal(mats) -> Matrix:
    n = sum(m.rows for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for r, row in enumerate(m.data):
            out[off + r][off : off + m.cols] = row
        off += m.rows
    return Matrix(n, n, out)


def _sparse_action_modules(a):
    """Each kind of module that answers Module.row its own way, with a dense
    oracle of its action, oracle(j): the projectives (R_j restricted to
    e_i A), the injectives (L_j restricted to A e_i, transposed), direct
    sums of both with a zero summand inside (block-diagonal), and the
    simples (e_i acts as 1, every other basis element as 0)."""
    from ncmotives.modules import injective_module

    n = len(a.idempotents)
    cases = []
    for i in range(n):
        basis = a.projective_basis(i)
        cases.append((projective_module(a, i), lambda j, b=basis: _restrict(right_matrix(a, j), b)))
    for i in range(n):
        basis = a.coprojective_basis(i)
        cases.append(
            (injective_module(a, i), lambda j, b=basis: _restrict(left_matrix(a, j), b).transpose())
        )
    zero = (Module(a, 0, None), lambda j: Matrix.zeros(0, 0))
    summands = [cases[n - 1], zero, *cases[:n], cases[-1]]
    total = direct_sum_modules(a, [m for m, _ in summands])
    cases.append((total, lambda j: _block_diagonal([oracle(j) for _, oracle in summands])))
    for i, s in enumerate(simple_modules(a)):
        cases.append((s, lambda j, g=a.idempotents[i]: Matrix(1, 1, [[1 if j == g else 0]])))
    return cases


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "env(A2)", "op(A3)xA3"])
def test_sparse_right_action_matches_the_dense_builder(name, rng):
    """Module.row(s, j) is row s of a dense oracle of the action, as its
    nonzero (k, c) pairs, on every module kind and basis element, and
    Module.dims() the oracle's traces at the idempotents; act_matrix and
    Module.times (through
    dense_reference.act_vector), which read through row, equal the dense
    sums of the oracle matrices (dense_reference.matrix_sum and row_times)
    on random elements."""
    from ncmotives.linalg import row_times

    if name == "env(A2)":
        a = hom_algebra(corpus_algebra("A2"), corpus_algebra("A2"))
    elif name == "op(A3)xA3":
        a = tensor(opposite(corpus_algebra("A3")), corpus_algebra("A3"))
    else:
        a = corpus_algebra(name)
    for m, oracle in _sparse_action_modules(a):
        dense = [oracle(j) for j in range(a.dim)]
        for j in range(a.dim):
            assert [m.row(s, j) for s in range(m.dim)] == [as_pairs(r) for r in dense[j].data]
        assert m.dims() == tuple(matrix_trace(dense[g]) for g in a.idempotents)
        for _ in range(3):
            coeffs = [rng.choice([0, 0, 1, -2]) for _ in range(a.dim)]
            v = [rng.choice([0, 1, 3]) for _ in range(m.dim)]
            terms = [(dense[k], c) for k, c in enumerate(coeffs) if c]
            pairs = [(k, c) for k, c in enumerate(coeffs) if c]
            assert m.act_matrix(pairs) == matrix_sum(terms, m.dim, m.dim)
            assert act_vector(m, v, coeffs) == [
                sum(c * x for c, x in zip(coeffs, col)) for col in zip(*(row_times(v, dense[k]) for k in range(a.dim)))
            ]


def test_verify_builds_no_direct_sum_action_matrix(tmp_path, monkeypatch):
    """verify A3 -> A3 reads every direct sum (the components of its perfect
    complexes and Serre transforms, the covers of its resolutions) through
    the sparse right action: not one action matrix is built
    (Module.act_matrix)."""
    import json

    import ncmotives.complexes as complexes
    import ncmotives.derived as derived
    import ncmotives.modules as modules
    import ncmotives.resolutions as resolutions
    from ncmotives.cli import main

    built = {"sums": 0, "matrices": 0}

    def counted(a, mods):
        built["sums"] += 1
        return direct_sum_modules(a, mods)

    act_matrix = modules.Module.act_matrix

    def counted_matrix(m, pairs):
        built["matrices"] += 1
        return act_matrix(m, pairs)

    for mod in (modules, complexes, resolutions, derived):
        monkeypatch.setattr(mod, "direct_sum_modules", counted)
    monkeypatch.setattr(modules.Module, "act_matrix", counted_matrix)
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
