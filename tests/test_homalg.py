"""Hom complexes, tensor products and duals, cross-checked against a
commutant-equation solver that never uses the projective shortcut."""

import pytest

from ncmotives.algebra import opposite, scalar_algebra, tensor
from ncmotives.complexes import Complex, PerfectComplex
from ncmotives.corpus import random_perfect_complex
from ncmotives.derived import k0_class, serre
from class_reference import tensor_class
from dense_reference import degrees, from_rows, hh_euler, shift, single_module_complex
from ncmotives.homalg import (
    dual_perfect,
    hom_complex,
    tensor_over,
)
from ncmotives.linalg import Matrix
from ncmotives.modules import (
    Module,
    projective_module,
    simple_modules,
)
from ncmotives.resolutions import projective_resolution


def brute_hom_dim(m1: Module, m2: Module) -> int:
    """dim Hom_A(M1, M2) by solving the commutant equations directly."""
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return 0
    rows = []
    for b in range(m1.algebra.dim):
        a1 = m1.action[b]
        a2 = m2.action[b]
        for r in range(d1):
            for c in range(d2):
                row = [0] * (d1 * d2)
                for k in range(d1):
                    if a1.data[r][k]:
                        row[k * d2 + c] += a1.data[r][k]
                for k in range(d2):
                    if a2.data[k][c]:
                        row[r * d2 + k] -= a2.data[k][c]
                rows.append(row)
    return len(Matrix(len(rows), d1 * d2, rows).kernel_basis())


def test_hom_of_projective_over_scalars(q):
    p, _ = projective_module(q, 0)
    res, _ = projective_resolution(p)
    h = hom_complex(res, res)
    assert h.homology_dims() == {0: 1}


def test_hom_component_dims_match_brute_force(a2, a3, kronecker):
    algebras = (a2, a3, kronecker, opposite(kronecker), tensor(opposite(a2), kronecker))
    for alg in algebras:
        mods = simple_modules(alg) + [projective_module(alg, i)[0] for i in range(len(alg.idempotents))]
        for m in mods:
            res, _ = projective_resolution(m)
            for n in mods:
                h = hom_complex(res, single_module_complex(n))
                # compare the full Hom-space dimension at each bidegree
                for p in degrees(res):
                    comp, _ = _component_module(res, alg, p)
                    assert h.component_dim(-p) == brute_hom_dim(comp, n)


def test_hom_complex_rejects_different_algebras(a2, kronecker):
    res, _ = projective_resolution(simple_modules(a2)[0])
    with pytest.raises(ValueError, match="different algebras"):
        hom_complex(res, single_module_complex(simple_modules(kronecker)[0]))


def _component_module(res, alg, p):
    from ncmotives.modules import direct_sum_modules

    mods = [projective_module(alg, i)[0] for i in res.copies_at(p)]
    return direct_sum_modules(alg, mods)


def test_a2_ext_table_against_explicit_resolution(a2):
    """Ext dims for the A2 simples from a hand-written resolution and the
    commutant solver, compared with hom_complex homology."""
    s0, s1 = simple_modules(a2)
    # hand-built: S0 has resolution  P1 --(left mult by a)--> P0
    p0, basis0 = projective_module(a2, 0)
    p1, basis1 = projective_module(a2, 1)
    # map e1 |-> a, expressed on the monomial bases {e1} -> {e0, a}
    d = from_rows([[0, 1]])
    # Hom(P0, S_j) and Hom(P1, S_j) and the induced map give Ext^0/Ext^1
    expected = {}
    for j, s in enumerate((s0, s1)):
        hom_p0 = brute_hom_dim(p0, s)
        hom_p1 = brute_hom_dim(p1, s)
        # the induced map Hom(P0,S) -> Hom(P1,S) is precomposition with d;
        # for 1-dimensional S it kills a hom iff the generator image dies
        # under the radical map, which happens exactly when j != 1
        # rank computed honestly below
        rank = 0
        if hom_p0 and hom_p1:
            # a hom P0 -> S sends e0 to some s-value v and a to v*a = 0;
            # precomposing with d maps the generator e1 to the image of a,
            # which is zero, so the induced map is zero
            rank = 0
        expected[(0, j)] = (hom_p0 - rank, hom_p1 - rank)
    res0, _ = projective_resolution(s0)
    for j, s in enumerate((s0, s1)):
        h = hom_complex(res0, single_module_complex(s))
        ext0, ext1 = expected[(0, j)]
        assert h.homology(0)[0] == ext0
        assert h.homology(1)[0] == ext1
    # the sink simple is projective: Ext^1(S1, -) = 0
    res1, _ = projective_resolution(s1)
    for s in (s0, s1):
        h = hom_complex(res1, single_module_complex(s))
        assert h.homology(1)[0] == 0


def test_ext_dims_match_arrow_counts(a2, a3, kronecker):
    # Ext^1(S_i, S_j) has dimension equal to the number of arrows i -> j
    from ncmotives.corpus import corpus_quiver

    for alg, name in ((a2, "A2"), (a3, "A3"), (kronecker, "Kronecker")):
        quiver = corpus_quiver(name)
        counts = {}
        for arr in quiver.arrows:
            counts[(arr.source, arr.target)] = counts.get((arr.source, arr.target), 0) + 1
        simples = simple_modules(alg)
        for i, si in enumerate(simples):
            res, _ = projective_resolution(si)
            for j, sj in enumerate(simples):
                h = hom_complex(res, single_module_complex(sj))
                assert h.homology(0)[0] == (1 if i == j else 0)
                assert h.homology(1)[0] == counts.get((i, j), 0)


def test_hom_shift_compatibility(a2, rng):
    m = random_perfect_complex(a2, rng)
    n = random_perfect_complex(a2, rng)
    h = hom_complex(m, n).homology_dims()
    h_shift = hom_complex(m, n.shift(1)).homology_dims()
    degs = set(h) | {d - 1 for d in h_shift}
    for i in degs:
        assert h.get(i, 0) == h_shift.get(i + 1, 0)


def test_hom_dims_independent_of_resolution(a2, rng):
    """Two different resolutions of the same homology give equal Hom
    cohomology: pad the minimal resolution with an acyclic two-term piece."""
    s0, s1 = simple_modules(a2)
    res, _ = projective_resolution(s0)
    # acyclic complex P1 --id--> P1 in degrees -1, 0
    padded = PerfectComplex(
        a2,
        {n: res.copies_at(n) + ((1,) if n in (-1, 0) else ()) for n in degrees(res)},
        _padded_blocks(a2, res),
    )
    assert padded.homology_dims() == res.homology_dims()
    for target in (s0, s1):
        h1 = hom_complex(res, single_module_complex(target)).homology_dims()
        h2 = hom_complex(padded, single_module_complex(target)).homology_dims()
        degs = set(h1) | set(h2)
        assert all(h1.get(d, 0) == h2.get(d, 0) for d in degs)


def _padded_blocks(a2, res):
    # copies at -1: res(-1) + (1,); copies at 0: res(0) + (1,)
    blocks = dict(res.block_elements(-1))
    e1 = [(a2.idempotent_basis_indices()[1], 1)]
    blocks[(len(res.copies_at(-1)), len(res.copies_at(0)))] = e1
    return {-1: blocks}


def test_tensor_over_requires_perfect_left_factor(a2, q):
    from ncmotives.modules import diagonal_bimodule

    diag = single_module_complex(diagonal_bimodule(a2))
    try:
        tensor_over(diag, diag, q, a2, a2)
    except ValueError as exc:
        assert "perfect" in str(exc)
        return
    raise AssertionError("non-perfect left factor must be rejected")


def test_tensor_over_middle_algebra_mismatch(a2, kronecker, q, rng):
    x = random_perfect_complex(a2, rng)
    y = random_perfect_complex(kronecker, rng)
    try:
        tensor_over(x, y, q, a2, q)
    except ValueError:
        return
    raise AssertionError("algebra mismatch must be rejected")


def test_tensor_over_scalars_multiplies_dims(q, rng):
    x = random_perfect_complex(q, rng, max_width=1)
    y = random_perfect_complex(q, rng, max_width=1)
    t = tensor_over(x, y, q, q, q)
    for k in degrees(t):
        expected = sum(
            x.component_dim(p) * y.component_dim(k - p) for p in degrees(x)
        )
        assert t.component_dim(k) == expected


def test_tensor_unit_constraint(a2, rng):
    """A (x)_A M is quasi-isomorphic to M for the diagonal bimodule A."""
    from ncmotives.derived import diagonal_resolution

    q = scalar_algebra()
    diag = diagonal_resolution(a2)
    for _ in range(3):
        m = random_perfect_complex(a2, rng)
        # view M as a (Q, A)-bimodule complex and tensor on the left:
        # M (x)_A (diagonal) via the A-A-bimodule resolution
        t = tensor_over(m, diag, q, a2, a2)
        degs = set(t.components) | set(m.copies)
        for n in degs:
            assert t.homology(n)[0] == m.homology(n)[0]


def test_tensor_class_matches_assembled(a2, kronecker, rng):
    q = scalar_algebra()
    e = tensor(opposite(a2), kronecker)
    e_rev = tensor(opposite(kronecker), a2)
    x = random_perfect_complex(e, rng, max_width=1)
    y = random_perfect_complex(e_rev, rng, max_width=1)
    t = tensor_over(x, y, a2, kronecker, a2)
    cls = tensor_class(x, y, a2, kronecker, a2)
    plain_y = Complex(e_rev, y.components, y.differentials)
    assert tensor_class(x, plain_y, a2, kronecker, a2) == cls
    env = tensor(opposite(a2), a2)
    idem_idx = env.idempotent_basis_indices()
    for r in range(len(env.idempotents)):
        total = 0
        for n in degrees(t):
            comp = t.components.get(n)
            if comp is None:
                continue
            tr = comp.action[idem_idx[r]].trace()
            total += (-1 if n % 2 else 1) * tr
        assert total == cls[r]


def test_tensor_over_output_is_a_complex_of_modules(a2, qxq, kronecker, rng):
    """Deep structural validation: every component of a tensor product
    satisfies the full module axioms over the output algebra and every
    differential commutes with the action."""
    shapes = [(a2, kronecker, a2), (qxq, a2, qxq), (a2, a2, kronecker)]
    for left, middle, right in shapes:
        e_x = tensor(opposite(left), middle)
        e_y = tensor(opposite(middle), right)
        x = random_perfect_complex(e_x, rng, max_width=1)
        y = random_perfect_complex(e_y, rng, max_width=1)
        t = tensor_over(x, y, left, middle, right)
        for n in degrees(t):
            comp = t.components.get(n)
            if comp is None:
                continue
            comp.check()
            d = t.differentials.get(n)
            if d is None:
                continue
            nxt = t.components.get(n + 1)
            for b in range(comp.algebra.dim):
                assert comp.action[b] * d == d * nxt.action[b]


def test_dual_of_free_rank_one(a2):
    e = tensor(opposite(a2), a2)
    # hom algebra of (A2, A2); rank-one free = sum of all idempotent summands
    free = PerfectComplex(e, {0: tuple(range(len(e.idempotents)))}, {})
    d = dual_perfect(free, a2, a2)
    assert d.copies_at(0) and len(d.copies_at(0)) == len(e.idempotents)


def test_dual_is_strict_involution(a2, kronecker, rng):
    e = tensor(opposite(a2), kronecker)
    for _ in range(4):
        x = random_perfect_complex(e, rng)
        d = dual_perfect(x, a2, kronecker)
        assert dual_perfect(x, a2, kronecker) is d
        assert dual_perfect(d, kronecker, a2) is x
        # a dual built without the memo
        dd = dual_perfect(_fresh(d), kronecker, a2)
        assert dd is not x and dd.copies == x.copies
        assert dd.differentials == x.differentials


def test_a_complex_and_its_dual_are_freed_by_reference_counting(a2, kronecker, rng):
    """The dual holds its complex only weakly, so a complex and its dual are
    no reference cycle: dropping both frees both with the collector off.
    A dual whose complex is gone dualizes to a new complex."""
    import gc
    import weakref

    e = tensor(opposite(a2), kronecker)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(4):
            x = random_perfect_complex(e, rng)
            d = dual_perfect(x, a2, kronecker)
            assert dual_perfect(d, kronecker, a2) is x
            for n in d.differentials:  # the lazily built maps hold no cycle either
                d.differentials[n]
            refs = weakref.ref(x), weakref.ref(d)
            copies = x.copies
            del x
            assert refs[0]() is None
            x2 = dual_perfect(d, kronecker, a2)
            assert x2.copies == copies and dual_perfect(d, kronecker, a2) is x2
            assert dual_perfect(x2, a2, kronecker) is d
            del d, x2
            assert refs[1]() is None
    finally:
        if enabled:
            gc.enable()


def test_dual_k0_naturality(a2, rng):
    """The class of the dual is the image of the class under the duality
    matrix computed on the simple basis."""
    from ncmotives.derived import simple_resolutions

    e = tensor(opposite(a2), opposite(a2))
    aop = opposite(a2)
    res = simple_resolutions(e)
    n = len(res)
    cols = [list(k0_class(dual_perfect(r, a2, aop)).coords) for r in res]
    for _ in range(4):
        x = random_perfect_complex(e, rng)
        kx = k0_class(x).coords
        expected = [sum(cols[i][t] * kx[i] for i in range(n)) for t in range(len(cols[0]))]
        assert list(k0_class(dual_perfect(x, a2, aop)).coords) == expected


def _fresh(y):
    """The same complex with an empty cache."""
    if isinstance(y, PerfectComplex):
        return PerfectComplex(y.algebra, y.copies, {n: y.block_elements(n) for n in y.copies})
    return Complex(y.algebra, y.components, y.differentials)


def _assert_same_tensor(t, u):
    """Entry-for-entry equality: components, every action matrix and the
    differentials."""
    assert t.algebra is u.algebra
    assert sorted(t.components) == sorted(u.components)
    for k, comp in t.components.items():
        assert comp.dim == u.components[k].dim
        assert list(comp.action) == list(u.components[k].action)
    assert t.differentials == u.differentials


def _y_memo_pairs(y):
    """The (middle, right) pairs of the memos tensor_over keeps on y."""
    return {k[1:3] for k in y._cache if k[0] in ("_yblock", "_ymove", "_ytrace")}


def test_shared_right_factor_data_matches_a_cold_build(q):
    """tensor_over keeps what it reads of the right factor y in y's cache,
    keyed by (middle, right, ...).  On the trace-formula triples of the corpus
    Hom models (left factors D(x) over tensor(op(B), A), y over
    tensor(op(A), B)) a warm build equals a cold one; each y meets two left
    factors, then serves a second key (Q, tensor(op(A), B)) against a
    perfect complex over Q.  The unresolved Serre complex S(y), which is not
    perfect, keeps its memos the same way."""
    from ncmotives.corpus import corpus_motive_scenarios
    from ncmotives.derived import simple_resolutions

    pairs = []
    for _, src, dst in corpus_motive_scenarios():
        key = (src.algebra, dst.algebra)
        if key not in pairs:
            pairs.append(key)
    over_q = PerfectComplex(q, {0: (0, 0), 1: (0,)}, {0: {(0, 0): [(0, 1)], (1, 0): [(0, 2)]}})
    checked = 0
    for a, b in pairs:
        e = tensor(opposite(a), b)
        res = simple_resolutions(e)
        lefts = [dual_perfect(res[0], a, b), dual_perfect(res[-1], a, b)]
        for y in res:
            for x in lefts:
                warm = tensor_over(x, y, b, a, b, check=False)
                _assert_same_tensor(warm, tensor_over(x, _fresh(y), b, a, b, check=False))
            warm = tensor_over(over_q, y, q, q, e, check=False)
            _assert_same_tensor(warm, tensor_over(over_q, _fresh(y), q, q, e, check=False))
            assert {(a, b), (q, e)} <= _y_memo_pairs(y)
            sy = serre(y)
            for x in lefts:
                warm = tensor_over(x, sy, b, a, b, check=False)
                _assert_same_tensor(warm, tensor_over(x, _fresh(sy), b, a, b, check=False))
            assert (a, b) in _y_memo_pairs(sy)
            checked += 1
    assert checked > 30


def test_second_build_against_one_y_reads_only_memos(a2, kronecker, monkeypatch):
    """Every map of y that tensor_over writes is memoized in y's cache, so
    building the same tensors again against one y computes no block
    coordinates: the duals of every simple resolution over
    tensor(op(A2), Kronecker), each tensored with one resolution y."""
    from ncmotives.derived import simple_resolutions
    from ncmotives.linalg import RowBasis

    e = tensor(opposite(a2), kronecker)
    res = simple_resolutions(e)
    xs = [dual_perfect(r, a2, kronecker) for r in res]
    y = _fresh(res[-1])
    calls = []
    coords = RowBasis.coords
    monkeypatch.setattr(RowBasis, "coords", lambda rb, v: calls.append(1) or coords(rb, v))
    first = [tensor_over(x, y, kronecker, a2, kronecker) for x in xs]
    assert calls
    calls.clear()
    second = [tensor_over(x, y, kronecker, a2, kronecker) for x in xs]
    assert not calls
    for t, u in zip(first, second):
        _assert_same_tensor(t, u)


def _trace_formula_factors(names=None):
    """(D(x_t), y_t, B, A, B) for every term pair of y o D(x) over the basis
    pairs x, y of the corpus Hom models A -> B (or of the named ones): the
    tensor products the trace-formula check reads."""
    from ncmotives.corpus import corpus_motive_scenarios
    from ncmotives.motives import build_hom_model, dualize

    for name, src, dst in corpus_motive_scenarios():
        if names is not None and name not in names:
            continue
        model = build_hom_model(src, dst)
        a, b = src.algebra, dst.algebra
        for x in model.realized:
            for _, dx in dualize(x).terms:
                for y in model.realized:
                    for _, yt in y.terms:
                        yield dx, yt, b, a, b


def _count_builds(monkeypatch):
    """Count the action matrices and differentials of tensor_over outputs
    built from here on, and the outputs made."""
    import ncmotives.homalg as homalg
    from ncmotives.complexes import LazyDifferentials
    from ncmotives.modules import LazyActions

    built = {"actions": 0, "differentials": 0, "complexes": 0}

    def counted(kind, build):
        def run(j):
            built[kind] += 1
            return build(j)

        return run

    class Actions(LazyActions):
        def __init__(self, count, dim, build, trace=None):
            super().__init__(count, dim, counted("actions", build), trace)

    class Differentials(LazyDifferentials):
        def __init__(self, degrees, build):
            built["complexes"] += 1
            super().__init__(degrees, counted("differentials", build))

    monkeypatch.setattr(homalg, "LazyActions", Actions)
    monkeypatch.setattr(homalg, "LazyDifferentials", Differentials)
    return built


def test_layout_traces_match_built_actions():
    """tensor_over answers the trace of a component action from its block
    layout while the matrix is unbuilt (LazyActions.trace); Matrix.trace()
    of the dense built action is the oracle.  Every trace-formula composite
    of the corpus Hom models, every idempotent of the output algebra, every
    degree; every basis element where the output algebra has dimension at
    most 9 (the endo-composites over Q, QxQ and A2)."""
    checked = 0
    for x, y, left, middle, right in _trace_formula_factors():
        t = tensor_over(x, y, left, middle, right, check=False)
        ts = range(t.algebra.dim) if t.algebra.dim <= 9 else t.algebra.idempotent_basis_indices()
        for comp in t.components.values():
            for g in ts:
                from_layout = comp.action.trace(g)
                assert from_layout == comp.action[g].trace()
                checked += 1
    assert checked > 1500


def test_class_of_a_composite_builds_no_action_matrix(monkeypatch):
    """k0_class of a tensor_over output reads every idempotent trace from
    the layout, so it builds no action matrix and no differential; the
    class equals tensor_class's formula."""
    built = _count_builds(monkeypatch)
    classes = 0
    for x, y, left, middle, right in _trace_formula_factors({"A2-id", "Kronecker-id"}):
        t = tensor_over(x, y, left, middle, right, check=False)
        assert list(k0_class(t).coords) == tensor_class(x, y, left, middle, right)
        classes += 1
    assert classes > 10 and built["complexes"] == classes
    assert built["actions"] == 0 and built["differentials"] == 0


def test_verify_builds_no_composite_differential(tmp_path, monkeypatch):
    """verify A3 -> A3 reads the composites of the trace-formula check only
    through their classes: tensor_over makes them, and neither one of their
    differentials nor one of their action matrices is built."""
    import json

    from ncmotives.cli import main

    a3 = {
        "format": 1,
        "kind": "quiver",
        "vertices": 3,
        "arrows": [{"from": i, "to": i + 1, "label": f"a{i}"} for i in range(2)],
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"format": 1, "source": {"algebra": a3}, "target": {"algebra": a3}}))
    built = _count_builds(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert sum(c["name"].startswith("trace-formula") for c in report["checks"]) == 81
    assert built["complexes"] > 0
    assert built["differentials"] == 0 and built["actions"] == 0


def test_differentials_on_first_read_equal_a_checked_build(monkeypatch):
    """A tensor_over output builds no differential until one is read; the
    differentials it then builds equal, entry for entry, those of a
    check=True build, which builds all of them at once for the d^2 check."""
    built = _count_builds(monkeypatch)
    compared = 0
    for x, y, left, middle, right in _trace_formula_factors({"A2-id", "Kronecker-id", "A2-to-Kronecker"}):
        lazy = tensor_over(x, y, left, middle, right, check=False)
        assert built["differentials"] == 0
        checked = tensor_over(x, y, left, middle, right, check=True)
        assert built["differentials"] == len(checked.differentials)
        for n in checked.differentials:
            assert lazy.differentials[n] == checked.differentials[n]
            assert lazy.differential(n) == checked.differential(n)
        assert lazy.differentials == checked.differentials
        compared += len(checked.differentials)
        built["differentials"] = 0
    assert compared > 20


def test_hochschild_of_trace_formula_composites():
    """hochschild() reads the differentials of a composite as tensor_over
    builds them on first read.  On the trace-formula composites of three
    corpus Hom models, each moved down to end in degree <= 0 if it does
    not, the dims equal those of the same complex with the differentials of
    a check=True build, the Euler characteristic equals hochschild_euler
    (read from the layout traces), and the dims summed per model are
    pinned (computed before differentials were built lazily)."""
    from ncmotives.hochschild import hochschild, hochschild_euler

    names = {"A2-id", "Kronecker-id", "A2-to-Kronecker"}
    sums = {}
    for x, y, left, middle, right in _trace_formula_factors(names):
        t = tensor_over(x, y, left, middle, right, check=False)
        if t.is_zero():
            continue
        checked = tensor_over(x, y, left, middle, right, check=True)
        eager = Complex(t.algebra, t.components, dict(checked.differentials.items()))
        if t.hi > 0:
            t, eager = shift(t, -t.hi), shift(eager, -t.hi)
        prof = hochschild(right, t, top=3)
        assert prof.dims == hochschild(right, eager, top=3).dims
        assert hh_euler(prof) == hochschild_euler(right, t)
        key = (left.dim, middle.dim)
        sums[key] = [s + d for s, d in zip(sums.get(key, [0] * 4), prof.dims)]
    assert sums == {(3, 3): [4, 4, 1, 0], (4, 4): [9, 6, 1, 0], (4, 3): [6, 5, 1, 0]}
