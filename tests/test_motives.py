import random

import pytest
from fractions import Fraction
from itertools import combinations

from ncmotives.algebra import hom_algebra
from ncmotives.complexes import PerfectComplex
from correspondence_reference import compose, random_correspondence
from geometry_reference import beilinson_spec
from ncmotives.specs import InputError, algebra_from_spec, motive_from_spec
from ncmotives.derived import euler_matrix
from ncmotives.hochschild import composite_trace, intersection_number
from ncmotives.linalg import Matrix, RowBasis, gram, span_equal
from ncmotives.motives import (
    Correspondence,
    NCMotive,
    build_hom_model,
    chi_hom,
    complement_idempotent,
    compose_classes,
    dualize,
    identity_class,
    identity_correspondence,
    numerical_kernel,
    project_class,
    realize_class,
    serre_correspondence,
    trace,
    verify_equivalence,
    vertex_cut_idempotent,
)


def test_compose_with_identity_preserves_class(a2, kronecker, rng):
    ma, mb = NCMotive(a2), NCMotive(kronecker)
    x = random_correspondence(ma, mb, rng)
    idb = identity_correspondence(mb)
    ida = identity_correspondence(ma)
    assert compose(idb, x).k0() == x.k0()
    assert compose(x, ida).k0() == x.k0()


def _scaled(x, c):
    """c times the correspondence x."""
    return Correspondence(x.source, x.target, [(c * k, t) for k, t in x.terms])


def test_compose_over_scalars_multiplies_classes(q):
    m = NCMotive(q)
    x = _scaled(identity_correspondence(m), 2)
    y = _scaled(identity_correspondence(m), 3)
    assert compose(y, x).k0() == [6]


def test_class_composition_table_matches_complex_composition(a2, qxq, rng):
    """The class formula compose_classes reproduces the class of the honest
    derived tensor composite."""
    ma, mb, mc = NCMotive(a2), NCMotive(qxq), NCMotive(a2)
    for _ in range(3):
        x = random_correspondence(ma, mb, rng)
        y = random_correspondence(mb, mc, rng)
        assert compose(y, x).k0() == compose_classes(x.k0(), y.k0(), qxq)


def test_composition_associative_on_classes(a2, qxq, kronecker, rng):
    """compose takes a perfect left factor only, so the inner composite
    y o x goes through the perfect replacement of the test oracle before it
    is composed again."""
    from resolve_reference import resolve_terms

    ma, mb, mc = NCMotive(a2), NCMotive(qxq), NCMotive(kronecker)
    x = random_correspondence(ma, mb, rng)
    y = random_correspondence(mb, mc, rng)
    z = random_correspondence(mc, ma, rng)
    left = compose(z, resolve_terms(compose(y, x)))
    right = compose(compose(z, y), x)
    assert left.k0() == right.k0()


def test_compose_rejects_a_left_factor_that_is_not_perfect(a2, qxq, rng):
    ma, mb = NCMotive(a2), NCMotive(qxq)
    x = random_correspondence(ma, mb, rng)
    y = random_correspondence(mb, ma, rng)
    with pytest.raises(ValueError, match="must be a perfect complex"):
        compose(x, compose(y, x))
    with pytest.raises(ValueError, match="must be a perfect complex"):
        compose(y, serre_correspondence(x))


def test_compose_takes_a_right_factor_that_is_not_perfect(a2, qxq, kronecker, rng):
    """The right factor of a composite may be any bounded complex: a Serre
    transform, left unresolved, composes, and its class is the one the
    Euler-matrix formula gives."""
    ma, mb, mc = NCMotive(a2), NCMotive(qxq), NCMotive(kronecker)
    for _ in range(3):
        x = random_correspondence(ma, mb, rng)
        y = serre_correspondence(random_correspondence(mb, mc, rng))
        assert not any(isinstance(t, PerfectComplex) for _, t in y.terms)
        assert compose(y, x).k0() == compose_classes(x.k0(), y.k0(), qxq)


def test_trace_of_identity_scalars(q):
    assert trace(identity_correspondence(NCMotive(q))) == 1


def test_trace_is_linear(a2):
    m = NCMotive(a2)
    ident = identity_correspondence(m)
    c = Fraction(5, 3)
    assert trace(_scaled(ident, c)) == c * trace(ident)


def test_trace_of_identity_a2(a2):
    assert trace(identity_correspondence(NCMotive(a2))) == 2


def test_trace_requires_endomorphism(a2, qxq, rng):
    x = random_correspondence(NCMotive(a2), NCMotive(qxq), rng)
    with pytest.raises(ValueError):
        trace(x)


def test_chi_hom_identity_scalars(q):
    ident = identity_correspondence(NCMotive(q))
    assert chi_hom(ident, ident) == 1


def test_chi_hom_on_simple_classes_matches_euler_matrix(qxq, a2):
    """chi of realized basis classes reproduces the Gram matrix entries."""
    for alg in (qxq, a2):
        m = NCMotive(alg)
        e = hom_algebra(alg, alg)
        g = euler_matrix(e)
        n = g.rows
        for i in range(n):
            for j in range(n):
                ei = [1 if t == i else 0 for t in range(n)]
                ej = [1 if t == j else 0 for t in range(n)]
                x = realize_class(ei, m, m)
                y = realize_class(ej, m, m)
                assert chi_hom(x, y) == g.data[i][j]


def test_trace_formula_on_random_pairs(a2, qxq, rng):
    """chi(x, y) = trace(D(x) o y), the cyclic partner of the order in
    criterion 7: Ext pipeline against Hochschild pipeline, the composite
    built (the oracle compose) and read from its factors (composite_trace,
    an endo-trace over A2 here, over QxQ in verify's order)."""
    ma, mb = NCMotive(a2), NCMotive(qxq)
    for _ in range(4):
        x = random_correspondence(ma, mb, rng)
        y = random_correspondence(ma, mb, rng)
        assert chi_hom(x, y) == trace(compose(dualize(x), y)) == composite_trace(y, dualize(x))


def test_commutative_square_on_random_pairs(a2, kronecker, rng):
    ma, mb = NCMotive(a2), NCMotive(kronecker)
    for _ in range(4):
        x = random_correspondence(ma, mb, rng)
        y = random_correspondence(ma, mb, rng)
        assert chi_hom(x, y) == intersection_number(dualize(x), y)
        # symmetry transport: the square's right-hand side is symmetric
        assert intersection_number(dualize(x), y) == intersection_number(y, dualize(x))


def test_dualize_is_class_involution(a2, kronecker, rng):
    ma, mb = NCMotive(a2), NCMotive(kronecker)
    x = random_correspondence(ma, mb, rng)
    assert dualize(dualize(x)).k0() == x.k0()


def test_dualize_identity_semisimple(q, qxq):
    # over a semisimple algebra the dual bimodule is the diagonal one, so
    # the identity class is self-dual
    for alg in (q, qxq):
        ident = identity_correspondence(NCMotive(alg))
        assert dualize(ident).k0() == ident.k0()


def test_dualize_preserves_rank_of_hom_basis(a2):
    m = NCMotive(a2)
    model = build_hom_model(m, m)
    duals = [dualize(r).k0() for r in model.realized]
    rb = RowBasis(len(duals[0]))
    for v in duals:
        rb.add(v)
    assert rb.dim == model.dim


def test_idempotent_law_enforced(a2):
    e = vertex_cut_idempotent(a2, [0])
    cls = e.k0()
    assert compose_classes(cls, cls, a2) == cls
    # a non-idempotent class is rejected
    bad = _scaled(e, 2)
    with pytest.raises(ValueError):
        NCMotive(a2, bad)


def test_vertex_cut_rejects_connected_pairs(a2, a3):
    with pytest.raises(ValueError):
        vertex_cut_idempotent(a2, [0, 1])
    with pytest.raises(ValueError):
        vertex_cut_idempotent(a3, [0, 2])  # the length-2 path connects them


def test_complement_idempotent_is_idempotent(a2):
    e = vertex_cut_idempotent(a2, [1])
    ce = complement_idempotent(e)
    NCMotive(a2, ce)  # construction verifies e o e = e
    assert [a + b for a, b in zip(e.k0(), ce.k0())] == identity_class(a2)


def test_motive_refuses_an_idempotent_of_zero_class(a2):
    """The zero class is idempotent, but its motive is zero: a Hom model on
    it would be 0-dimensional and its verdict a comparison of empty spaces."""
    identity = identity_correspondence(NCMotive(a2))
    for idem in (vertex_cut_idempotent(a2, []), complement_idempotent(identity)):
        assert not any(idem.k0())
        with pytest.raises(ValueError, match="the idempotent is the zero class"):
            NCMotive(a2, idem)


def test_identity_class_is_peirce_vector(a2):
    assert identity_class(a2) == [1, 1, 0, 1]


def test_hom_model_scalars(q):
    m = NCMotive(q)
    model = build_hom_model(m, m)
    assert model.dim == 1
    assert gram(chi_hom, model.realized, model.realized).data == [[1]]


def test_hom_model_a2_identity(a2):
    m = NCMotive(a2)
    model = build_hom_model(m, m)
    assert model.dim == 4
    assert gram(chi_hom, model.realized, model.realized).det() in (1, -1)


def test_hom_model_is_its_basis_and_its_realization():
    from ncmotives.motives import HomSpaceModel

    assert HomSpaceModel._fields == ("source", "target", "basis", "realized")


def test_euler_gram_is_the_euler_matrix_on_the_basis_classes(a2, kronecker):
    """chi_hom on the realized basis equals B chi B^T, with B the basis
    classes and chi the Euler matrix of the Hom algebra, on a full and on
    a cut Hom-space."""
    cut = NCMotive(a2, vertex_cut_idempotent(a2, [0]))
    for src, dst in ((NCMotive(a2), NCMotive(kronecker)), (cut, NCMotive(a2))):
        model = build_hom_model(src, dst)
        chi = euler_matrix(hom_algebra(src.algebra, dst.algebra))
        b = Matrix(model.dim, chi.rows, model.basis)
        assert gram(chi_hom, model.realized, model.realized) == b * chi * b.transpose()


def test_idempotent_cuts_reduce_model_dimension(a2):
    full = build_hom_model(NCMotive(a2), NCMotive(a2))
    cut = NCMotive(a2, vertex_cut_idempotent(a2, [0]))
    restricted = build_hom_model(cut, NCMotive(a2))
    assert 0 < restricted.dim < full.dim


def test_correspondence_restriction_validation(a2):
    cut = NCMotive(a2, vertex_cut_idempotent(a2, [0]))
    model = build_hom_model(cut, NCMotive(a2))
    for v, r in zip(model.basis, model.realized):
        # the class lies in e o K0 o e' for the endpoint idempotents
        cls = r.k0()
        assert project_class(r.source, r.target, cls) == cls


def test_numerical_kernel_unimodular_model_is_zero(a2):
    m = NCMotive(a2)
    model = build_hom_model(m, m)
    nk = numerical_kernel(model)
    assert nk == []


def test_numerical_kernel_full_for_zero_pairing(a2):
    """Numerically trivial correspondences pair to zero against everything:
    a model whose basis classes are realized by acyclic complexes has full
    numerical kernel."""
    from dense_reference import single_module_complex
    from ncmotives.modules import simple_modules as sm
    from ncmotives.motives import HomSpaceModel
    from resolve_reference import ChainMap, cone, resolve_complex

    m = NCMotive(a2)
    e = hom_algebra(a2, a2)
    s = sm(e)[0]
    x = single_module_complex(s)
    acyclic = resolve_complex(cone(ChainMap(x, x, {0: Matrix.identity(1)})))
    zero_corr = Correspondence(m, m, [(1, acyclic)])
    assert zero_corr.k0() == [0, 0, 0, 0]
    model = HomSpaceModel(
        source=m,
        target=m,
        basis=[[1, 0, 0, 0], [0, 1, 0, 0]],
        realized=[zero_corr, zero_corr],
    )
    nk = numerical_kernel(model)
    assert len(nk) == 2


def test_numerical_kernel_matches_gram_int_kernel(a2, qxq):
    for src_alg, dst_alg in ((a2, a2), (qxq, a2)):
        src, dst = NCMotive(src_alg), NCMotive(dst_alg)
        model = build_hom_model(src, dst)
        nk = numerical_kernel(model)
        gram_int = Matrix(
            model.dim,
            model.dim,
            [[intersection_number(dualize(x), y) for y in model.realized] for x in model.realized],
        )
        gk = gram_int.kernel_basis()
        left = RowBasis(model.dim).extend(nk)
        right = RowBasis(model.dim).extend(gk)
        assert span_equal(left, right)


def test_verify_equivalence_scalars(q):
    rep = verify_equivalence(build_hom_model(NCMotive(q), NCMotive(q)))
    assert rep["verdict"]
    assert rep["unimodular"]
    assert "both kernels are zero" in rep["kernel_statement"]


def test_verify_equivalence_a2(a2):
    rep = verify_equivalence(build_hom_model(NCMotive(a2), NCMotive(a2)))
    assert rep["verdict"]
    assert rep["kernel_dim"] == 0


def test_verify_equivalence_restricted(a2, kronecker):
    src = NCMotive(kronecker, vertex_cut_idempotent(kronecker, [1]))
    dst = NCMotive(a2, vertex_cut_idempotent(a2, [0]))
    rep = verify_equivalence(build_hom_model(src, dst))
    assert rep["verdict"]


def _statable_motives(algebra_spec):
    """The motives of a spec that the command line accepts as the identity,
    a vertex cut, or the complement of a cut: every nonempty vertex set is
    tried, and those it refuses (a path between two vertices, a zero class)
    are left out."""
    a = algebra_from_spec(algebra_spec)
    n = len(a.idempotents)
    cuts = [
        {"kind": "vertex-cut", "vertices": list(vs)}
        for k in range(1, n + 1)
        for vs in combinations(range(n), k)
    ]
    motives = []
    for idem in [None, *cuts, *({"kind": "complement", "of": c} for c in cuts)]:
        spec = {"algebra": algebra_spec} if idem is None else {"algebra": algebra_spec, "idempotent": idem}
        try:
            motives.append(motive_from_spec(spec))
        except InputError:
            continue
    return motives


def test_no_statable_motive_pair_has_a_kernel():
    """On every pair of motives the command line can state over A2, A3, the
    Kronecker quiver, QxQ and the Beilinson algebra of P^1 (the identity,
    each vertex cut, the complement of each), both the Euler kernel and the
    numerical kernel are zero and the verdict holds: verify has no input
    on these algebras whose kernel classes it could test for being an ideal."""
    specs = [{"kind": "named", "name": name} for name in ("A2", "A3", "Kronecker", "QxQ")]
    motives = [m for spec in [*specs, beilinson_spec(1)] for m in _statable_motives(spec)]
    assert len(motives) == 28
    for src in motives:
        for dst in motives:
            rep = verify_equivalence(build_hom_model(src, dst))
            assert (rep["kernel_dim"], rep["numerical_kernel_dim"], rep["verdict"]) == (0, 0, True)


def test_trace_of_a_composite_builds_only_idempotent_actions(monkeypatch):
    """trace reads a built composite's class from the dimension vectors of
    its components, each the traces of the idempotent actions summed from
    their rows (modules._row_dims): no action matrix is built, and no row
    of another basis element is read (36 basis elements, 9 idempotents on
    A3 -> A3).  composite_trace gives the same numbers from D(x)'s copies
    and y's class, and reads no row at all."""
    from ncmotives import modules
    from ncmotives.corpus import corpus_algebra
    from ncmotives.derived import simple_resolutions

    m = NCMotive(corpus_algebra("A3"))
    e = hom_algebra(m.algebra, m.algebra)
    idem = set(e.idempotents)
    res = simple_resolutions(e)
    read = []
    row_dims = modules._row_dims

    def recorded(a, row, dim):
        return row_dims(a, lambda s, j: read.append(j) or row(s, j), dim)

    def refused(mod, pairs):
        raise AssertionError("an action matrix was built")

    monkeypatch.setattr(modules, "_row_dims", recorded)
    monkeypatch.setattr(modules.Module, "act_matrix", refused)
    for i, j in [(0, 0), (0, 8), (4, 2), (8, 0)]:
        x = Correspondence(m, m, [(1, res[i])])
        y = Correspondence(m, m, [(1, res[j])])
        dx = dualize(x)
        before = len(read)
        direct = composite_trace(dx, y)
        assert len(read) == before
        assert trace(compose(y, dx)) == direct
    assert read and set(read) <= idem


def test_class_arithmetic_is_exact_and_integral_on_integer_inputs(a2):
    """A coefficient 1/2 gives exact Fractions from chi_hom,
    intersection_number and compose_classes; integer inputs give int."""
    from ncmotives.derived import simple_resolutions

    m = NCMotive(a2)
    res = simple_resolutions(hom_algebra(a2, a2))
    whole = Correspondence(m, m, [(1, res[0])])
    half = Correspondence(m, m, [(Fraction(1, 2), res[0])])
    assert type(chi_hom(whole, whole)) is int and chi_hom(whole, whole) == 1
    assert type(chi_hom(half, whole)) is Fraction and chi_hom(half, whole) == Fraction(1, 2)
    n = intersection_number(dualize(whole), whole)
    assert type(n) is int and n == 1
    n = intersection_number(dualize(half), whole)
    assert type(n) is Fraction and n == Fraction(1, 2)
    ident = identity_class(a2)
    out = compose_classes(ident, [1, 0, 0, 0], a2)
    assert out == [1, 0, 0, 0] and all(type(x) is int for x in out)
    out = compose_classes(ident, [Fraction(1, 2), 0, 0, 0], a2)
    assert out == [Fraction(1, 2), 0, 0, 0] and type(out[0]) is Fraction
    assert all(type(x) is int for x in out[1:])


def test_class_and_dual_of_a_correspondence_are_computed_once(a2, monkeypatch):
    from ncmotives import motives

    x = identity_correspondence(NCMotive(a2))
    calls = []
    k0 = motives.k0_class
    monkeypatch.setattr(motives, "k0_class", lambda t: calls.append(t) or k0(t))
    cls = x.k0()
    cls.append(99)
    assert x.k0() == identity_class(a2)
    assert len(calls) == 1
    first, second = dualize(x).terms, dualize(x).terms
    assert len(first) == len(second) == 1
    assert all(t is u for (_, t), (_, u) in zip(first, second))


def test_verify_dualizes_each_basis_class_once(monkeypatch):
    """verify_equivalence builds one dual per basis term: the intersection
    Gram and the trace formula read D(x) for every pair (x, y), yet each of
    these duals is built once.  The Serre transforms verify reads only
    through their classes, so serre dualizes no x over Q, and no opposite
    of a tensor algebra (the Hom algebra) is constructed.  A fresh A3 keeps
    duals kept by earlier tests (simple resolutions live in the algebra's
    cache) out of the count."""
    from ncmotives import algebra, derived, motives
    from ncmotives.algebra import path_algebra
    from ncmotives.specs import NAMED_SPECS
    from test_algebra import quiver_of

    made = []
    init = algebra.Algebra.__init__

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(algebra.Algebra, "__init__", recorded_init)
    duals = {}
    for module in (motives, derived):
        dual = module.dual_perfect

        def recorded(*args, dual=dual):
            d = dual(*args)
            duals[id(d)] = d
            return d

        monkeypatch.setattr(module, "dual_perfect", recorded)
    a3 = path_algebra(*quiver_of(NAMED_SPECS["A3"]))
    m = NCMotive(a3)
    model = build_hom_model(m, m)
    rep = verify_equivalence(model)
    assert rep["verdict"] is True
    assert sum(len(r.terms) for r in model.realized) == 9
    assert len(duals) == 9
    opposites_of = [b.meta["of"] for b in made if "of" in b.meta]
    assert opposites_of and not any("factors" in b.meta for b in opposites_of)


def test_verify_reads_each_serre_class_once(a3, monkeypatch):
    """The serre-symmetry check pairs every y with S(x_i); the class of the
    unresolved Serre complex is read once per i, not once per pair."""
    from ncmotives import derived, motives

    made, reads = [], []
    serre, k0_class = motives.serre, derived.k0_class

    def recorded_serre(m):
        made.append(serre(m))
        return made[-1]

    def counted_k0_class(x):
        if any(x is c for c in made):
            reads.append(x)
        return k0_class(x)

    monkeypatch.setattr(motives, "serre", recorded_serre)
    monkeypatch.setattr(derived, "k0_class", counted_k0_class)
    monkeypatch.setattr(motives, "k0_class", counted_k0_class)
    m = NCMotive(a3)
    rep = verify_equivalence(build_hom_model(m, m))
    assert rep["verdict"] is True
    assert len(made) == 9
    assert 0 < len(reads) <= 9


@pytest.mark.parametrize("seed", range(3))
def test_each_pairing_is_the_bilinear_form_of_its_terms(seed):
    """chi_hom, trace, intersection_number and composite_trace read each
    correspondence once, through its class and copy weights; on seeded
    correspondences between corpus algebras (up to 3 terms, fractional
    coefficients, shifted terms, unresolved Serre transforms as the class
    argument) each equals its oracle, which reads every term on its own and
    sums over terms or term pairs."""
    from correspondence_reference import (
        chi_hom_by_terms,
        composite_trace_by_terms,
        intersection_number_by_terms,
        trace_by_terms,
    )
    from ncmotives.corpus import CORPUS_NAMES, corpus_algebra

    rng = random.Random(seed)
    motives = [NCMotive(corpus_algebra(name)) for name in CORPUS_NAMES]
    fractional = 0
    for _ in range(12):
        ma, mb = rng.choice(motives), rng.choice(motives)

        def draw(src, dst):
            return random_correspondence(src, dst, rng, max_terms=3, max_shift=2)

        x, x2, y, z = draw(ma, mb), draw(ma, mb), draw(mb, ma), draw(ma, ma)
        sx2 = serre_correspondence(x2)
        for u, v in ((x, x2), (x, sx2), (x2, x)):
            assert chi_hom(u, v) == chi_hom_by_terms(u, v)
        for u in (z, serre_correspondence(z)):
            assert trace(u) == trace_by_terms(u)
        for u, v in ((x, y), (y, x), (x, dualize(x2)), (y, serre_correspondence(x))):
            assert intersection_number(u, v) == intersection_number_by_terms(u, v)
        for u, v in ((y, x), (x, y), (dualize(x2), x), (y, sx2)):
            assert composite_trace(u, v) == composite_trace_by_terms(u, v)
        fractional += any(type(c) is Fraction for c, _ in x.terms + y.terms + z.terms)
    assert fractional


# Idempotents of the Kronecker quiver realized from a class u, and for each
# direction the determinant of the Gram of the corner: four of the six
# corners have a singular Gram.
KRONECKER_CORNERS = {
    ("u1", "e->id"): ([-1, 0, -1, 0], "0"),
    ("u1", "id->e"): ([-1, 0, -1, 0], "1"),
    ("u1", "e->e"): ([-1, 0, -1, 0], "0"),
    ("u2", "e->id"): ([-1, -1, -2, -2], "1"),
    ("u2", "id->e"): ([-1, -1, -2, -2], "0"),
    ("u2", "e->e"): ([-1, -1, -2, -2], "0"),
}


@pytest.mark.parametrize(
    "key", KRONECKER_CORNERS, ids=[f"{u}-{d}" for u, d in KRONECKER_CORNERS]
)
def test_euler_kernel_is_taken_on_the_whole_hom_algebra(key):
    """On Hom((A, e), (B, e')) the Euler kernel is the corner's part of
    Ker chi of the whole Hom algebra (the quotient by Ker chi comes before
    the idempotent completion), not the kernel of the Gram restricted to
    the corner.  The two differ where D(e) != e: four of these six corners
    have a singular corner Gram, yet no corner class pairs to zero with
    the whole Hom algebra, and no class is numerically trivial.  Every
    verdict is True with an Euler kernel of 0."""
    from geometry_reference import kronecker_spec

    u, det = KRONECKER_CORNERS[key]
    a = algebra_from_spec(kronecker_spec(2))
    ident = NCMotive(a)
    e = NCMotive(a, realize_class(u, ident, ident))
    src, dst = {"e->id": (e, ident), "id->e": (ident, e), "e->e": (e, e)}[key[1]]
    report = verify_equivalence(build_hom_model(src, dst))
    assert report["det_gram_chi"] == det
    assert report["kernel_dim"] == report["numerical_kernel_dim"] == 0
    assert report["kernel_basis"] == []
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
    assert report["verdict"] is True
