"""Motives over the supported algebras: objects (A, e), correspondences,
composition, trace, the two pairings on Hom-sets, and the kernel-equality
verdict.

A motive is an algebra with an idempotent endo-correspondence class; the
identity motive carries the class of the diagonal bimodule.  Correspondences
are rational combinations of perfect bimodule complexes, composed by the
derived tensor product over the middle algebra and compared at the level of
Grothendieck classes (the morphisms of the category are exactly those
classes).  On classes, composition over a middle algebra B is
[X] chi_B [Y] (derived.compose_classes, chi_B the Euler matrix of B), so
restricted Hom-sets, the images of the projector e o - o e', need no
composite to be built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import Algebra, cached, hom_algebra
from .complexes import PerfectComplex
from .derived import (
    compose_classes,
    diagonal_resolution,
    k0_class,
    serre,
    simple_resolutions,
)
from .homalg import dual_perfect, tensor_over
from .hochschild import hochschild_euler, intersection_number
from .linalg import Matrix, RowBasis, exact_text, norm_scalar, span_equal
from .resolutions import DEFAULT_CAP


# -- motives and correspondences --------------------------------------------------


class NCMotive:
    """An algebra together with an idempotent correspondence class.

    idem=None means the identity motive (class of the diagonal bimodule).
    Idempotency e o e = e is verified at the class level on construction,
    through the Euler matrix of the algebra at the given cap.  An idempotent
    whose class is zero is refused (ValueError): its motive is zero, so every
    check on it would compare empty spaces."""

    def __init__(self, algebra: Algebra, idem: "Correspondence | None" = None, cap: int = DEFAULT_CAP):
        self.algebra = algebra
        self.idem = idem
        self.name = f"({algebra.meta.get('name', '?')}, {'id' if idem is None else 'e'})"
        if idem is not None:
            if idem.source.algebra is not algebra or idem.target.algebra is not algebra:
                raise ValueError("idempotent must be an endo-correspondence of the algebra")
            cls = idem.k0()
            if not any(cls):
                raise ValueError("the idempotent is the zero class")
            if compose_classes(cls, cls, algebra, cap) != list(cls):
                raise ValueError("correspondence class is not idempotent")

    def idem_class(self):
        if self.idem is not None:
            return list(self.idem.k0())
        return identity_class(self.algebra)

    def is_identity(self) -> bool:
        return self.idem is None

    def __eq__(self, other):
        return (
            isinstance(other, NCMotive)
            and self.algebra is other.algebra
            and self.idem_class() == other.idem_class()
        )

    def __repr__(self):
        return f"<Motive {self.name}>"


def identity_class(a: Algebra):
    """Class of the diagonal bimodule in the simple basis of the enveloping
    algebra: the Peirce dimension vector."""
    return [d for row in a.peirce_dims() for d in row]


class Correspondence:
    """Rational combination of bimodule complexes between motives.

    Terms built from specs, simple resolutions, duals and vertex cuts are
    perfect; compose and serre_correspondence give unresolved tensor
    complexes.  Terms must be perfect in the first argument of chi_hom, in
    dualize and in the x of compose (its right factor y may be any bounded
    complex); k0, trace and intersection_number (which reads classes)
    accept any bounded complex.

    terms is a tuple of (coefficient, complex) with exact coefficients (an
    int unless the coefficient is a proper fraction).  The class (k0) is
    computed once and kept; dualize reads the dual each term keeps."""

    def __init__(self, source: NCMotive, target: NCMotive, terms):
        self.source = source
        self.target = target
        self.terms = tuple((norm_scalar(c), t) for c, t in terms)
        self._cache: dict = {}
        e = hom_algebra(source.algebra, target.algebra)
        for _, t in self.terms:
            if t.algebra is not e:
                raise ValueError("term does not live over the Hom algebra")

    def k0(self):
        """Class vector in the simple basis of the Hom algebra."""
        return list(self._class())

    @cached
    def _class(self):
        e = hom_algebra(self.source.algebra, self.target.algebra)
        out = [0] * len(e.idempotents)
        for c, t in self.terms:
            for i, x in enumerate(k0_class(t).coords):
                if x:
                    out[i] += c * x
        return tuple(norm_scalar(x) for x in out)

    def __repr__(self):
        return f"<Correspondence {self.source.name} -> {self.target.name}, {len(self.terms)} terms>"


def identity_correspondence(m: NCMotive, cap: int = DEFAULT_CAP) -> Correspondence:
    """The identity of the identity motive: class of the diagonal bimodule,
    represented by its minimal resolution."""
    if not m.is_identity():
        raise ValueError("identity correspondence is attached to identity motives")
    return Correspondence(m, m, [(1, diagonal_resolution(m.algebra, cap))])


def vertex_cut_idempotent(a: Algebra, vertices) -> Correspondence:
    """Idempotent correspondence class cutting out the summands at the given
    idempotent indices: the projective bimodule (+)_{v} (A e_v (x) e_v A).

    Requires no composable pair among the chosen indices (e_v A e_w = 0 for
    distinct chosen v, w), which makes the class idempotent."""
    vertices = sorted(set(vertices))
    n = len(a.idempotents)
    for v in vertices:
        for w in vertices:
            if v != w and a.peirce_dim(v, w):
                raise ValueError(
                    "vertex set admits a path between distinct members; class would not be idempotent"
                )
    e = hom_algebra(a, a)
    ident = NCMotive(a)
    copies = tuple(v * n + v for v in vertices)
    term = PerfectComplex(e, {0: copies})
    return Correspondence(ident, ident, [(1, term)])


def complement_idempotent(e: Correspondence, cap: int = DEFAULT_CAP) -> Correspondence:
    """1 - e for an idempotent endo-correspondence of an identity motive."""
    ident = identity_correspondence(e.source, cap)
    return Correspondence(e.source, e.target, [*ident.terms, *((-c, t) for c, t in e.terms)])


def project_class(src: NCMotive, dst: NCMotive, cls, cap: int = DEFAULT_CAP):
    """The projector e o - o e' on classes over the Hom algebra."""
    left = compose_classes(src.idem_class(), cls, src.algebra, cap)
    return compose_classes(left, dst.idem_class(), dst.algebra, cap)


# -- operations --------------------------------------------------------------------


def compose(y: Correspondence, x: Correspondence) -> Correspondence:
    """Composite y o x of x: L -> M and y: M -> N: termwise derived tensor
    X (x)_M Y over the middle algebra.

    Every term of x must be a PerfectComplex (tensor_over reads the left
    factor off its copies and raises ValueError otherwise); the terms of y
    may be any bounded complexes.  The tensor complexes are returned
    unresolved, so a composite is not perfect and cannot be the x of a
    further compose."""
    if x.target != y.source:
        raise ValueError("correspondence endpoints do not chain")
    a = x.source.algebra
    b = x.target.algebra
    c = y.target.algebra
    terms = []
    for cx, xt in x.terms:
        for cy, yt in y.terms:
            terms.append((cx * cy, tensor_over(xt, yt, a, b, c, check=False)))
    return Correspondence(x.source, y.target, terms)


def dualize(x: Correspondence) -> Correspondence:
    """Termwise dual, with the endpoints swapped.  Each term keeps its dual
    (homalg.dual_perfect), so it is computed once per term."""
    a = x.source.algebra
    b = x.target.algebra
    return Correspondence(x.target, x.source, [(c, dual_perfect(t, a, b)) for c, t in x.terms])


def trace(z: Correspondence, cap: int = DEFAULT_CAP) -> int | Fraction:
    """Categorical trace of an endo-correspondence: the alternating sum of
    Hochschild dimensions of each term, combined by the coefficients."""
    if z.source != z.target:
        raise ValueError("trace requires an endo-correspondence")
    a = z.source.algebra
    total = 0
    for c, t in z.terms:
        total += c * hochschild_euler(a, t, cap)
    return total


def chi_hom(x: Correspondence, y: Correspondence) -> int | Fraction:
    """Euler form on a Hom-set: bilinear extension of the Euler pairing of
    the underlying perfect bimodule complexes, i.e. the copy weights of each
    term of x paired with the memoized class of y."""
    if x.source != y.source or x.target != y.target:
        raise ValueError("chi_hom requires parallel correspondences")
    ky = y.k0()
    total = 0
    for cx, xt in x.terms:
        total += cx * sum(w * c for w, c in zip(xt.euler_copy_weights(), ky))
    return total


def serre_correspondence(x: Correspondence) -> Correspondence:
    """Termwise Serre transform over the Hom algebra (same endpoints); the
    terms of x must be perfect, those of the result are unresolved."""
    return Correspondence(
        x.source, x.target, [(c, serre(t)) for c, t in x.terms]
    )


def realize_class(cls, src: NCMotive, dst: NCMotive, cap: int = DEFAULT_CAP) -> Correspondence:
    """A correspondence representing a class vector: the combination of
    simple resolutions over the Hom algebra with the given coefficients."""
    e = hom_algebra(src.algebra, dst.algebra)
    res = simple_resolutions(e, cap)
    terms = [(c, res[i]) for i, c in enumerate(cls) if c]
    return Correspondence(src, dst, terms)


# -- Hom-space models ----------------------------------------------------------------


class HomSpaceModel(namedtuple("HomSpaceModel", "source target basis realized")):
    """basis: class vectors (rows of the canonical echelon basis); realized:
    correspondences realizing them."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)


def build_hom_model(src: NCMotive, dst: NCMotive, cap: int = DEFAULT_CAP) -> HomSpaceModel:
    """Model of Hom((A,e),(B,e')): basis of the image of the projector
    e o - o e' on classes, each basis class realized by a correspondence."""
    e = hom_algebra(src.algebra, dst.algebra)
    n = len(e.idempotents)
    rb = RowBasis(n)
    for i in range(n):
        std = [0] * n
        std[i] = 1
        rb.add(project_class(src, dst, std, cap))
    basis = [r[:] for r in rb.rows]
    for v in basis:
        if project_class(src, dst, v, cap) != v:
            raise AssertionError("projector image is not projector-stable")
    realized = [realize_class(v, src, dst, cap) for v in basis]
    return HomSpaceModel(src, dst, basis, realized)


def euler_gram(m: HomSpaceModel) -> Matrix:
    """Gram matrix of chi_hom on the realized basis: entry (i, j) is
    chi(x_i, x_j)."""
    return Matrix(m.dim, m.dim, [[chi_hom(x, y) for y in m.realized] for x in m.realized])


def numerical_kernel(m: HomSpaceModel, cap: int = DEFAULT_CAP):
    """Classes pairing to zero against the whole reversed Hom-space model,
    via the rectangular intersection matrix; coordinates over m.basis."""
    reverse = build_hom_model(m.target, m.source, cap)
    if m.dim == 0:
        return []
    if reverse.dim == 0:
        return [list(v) for v in Matrix.identity(m.dim).data]
    rect = Matrix(
        m.dim,
        reverse.dim,
        [
            [intersection_number(m.realized[i], reverse.realized[j], cap) for j in range(reverse.dim)]
            for i in range(m.dim)
        ],
    )
    return rect.left_kernel_basis()


# -- the full verdict ------------------------------------------------------------------


def check_record(name, identity, expected, actual) -> dict:
    """One report check: the identity it instantiates, both sides as text,
    and whether they are equal (compared exactly, not as text)."""
    return {
        "name": name,
        "identity": identity,
        "expected": exact_text(expected),
        "actual": exact_text(actual),
        "pass": expected == actual,
    }


def verify_equivalence(m: HomSpaceModel, cap: int = DEFAULT_CAP, sample_pairs: int | None = None) -> dict:
    """Run every identity the construction promises on a Hom-space model and
    report the kernel-equality verdict.

    Checks (named by the identity they instantiate):
      serre-symmetry        chi(x, y) = chi(y, S(x)) on basis pairs
      trace-formula         chi(x, y) = trace(y o D(x)) on basis pairs
      commutative-square    chi(x, y) = <D(x) . y> on basis pairs
      kernel-left-right     left and right kernels of the Euler Gram agree
      gram-int-kernel       kernel of the intersection Gram = Euler kernel
      numerical-kernel      pairing-to-zero classes = Euler kernel
      idempotent-law        e o e = e for both endpoint motives
    The pairwise checks read chi(x, y) from the Euler Gram, and
    commutative-square reads <D(x) . y> from the intersection Gram.
    Failures are recorded in the report, not raised."""
    checks = []
    n = m.dim
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if sample_pairs is not None and len(pairs) > sample_pairs:
        step = max(1, len(pairs) // max(1, sample_pairs))
        pairs = pairs[::step][:sample_pairs]
    gram_chi = euler_gram(m)
    duals = [dualize(x) for x in m.realized]
    gram_int = Matrix(n, n, [[intersection_number(d, y, cap) for y in m.realized] for d in duals])

    # idempotent law
    for motive, tag in ((m.source, "source"), (m.target, "target")):
        cls = motive.idem_class()
        checks.append(check_record(
            f"idempotent-law-{tag}",
            "e o e = e on classes",
            list(cls),
            compose_classes(cls, cls, motive.algebra, cap),
        ))

    # pairwise identities
    serres = {}
    for i, j in pairs:
        x, y = m.realized[i], m.realized[j]
        lhs = gram_chi.data[i][j]
        if i not in serres:
            serres[i] = serre_correspondence(x)
        checks.append(check_record(
            f"serre-symmetry[{i},{j}]",
            "chi(x,y) = chi(y, S(x))",
            lhs,
            chi_hom(y, serres[i]),
        ))
        checks.append(check_record(
            f"trace-formula[{i},{j}]",
            "chi(x,y) = trace(y o D(x))",
            lhs,
            trace(compose(y, duals[i]), cap),
        ))
        checks.append(check_record(
            f"commutative-square[{i},{j}]",
            "chi(x,y) = <D(x) . y>",
            lhs,
            gram_int.data[i][j],
        ))

    # kernels
    kl = gram_chi.left_kernel_basis()
    kr = gram_chi.kernel_basis()
    span_l = RowBasis(n).extend(kl)
    span_r = RowBasis(n).extend(kr)
    checks.append(check_record(
        "kernel-left-right",
        "Ker_L(chi) = Ker_R(chi)",
        True,
        span_equal(span_l, span_r),
    ))

    ki = gram_int.kernel_basis()
    span_i = RowBasis(n).extend(ki)
    checks.append(check_record(
        "gram-int-kernel",
        "Ker(<D(-) . ->) = Ker(chi)",
        True,
        span_equal(span_r, span_i),
    ))

    nk = numerical_kernel(m, cap)
    span_n = RowBasis(n).extend(nk)
    checks.append(check_record(
        "numerical-kernel",
        "numerically trivial classes = Ker(chi)",
        True,
        span_equal(span_n, span_r),
    ))

    det = gram_chi.det() if n else 1
    unimodular = det in (1, -1)
    report = {
        "hom_space": f"Hom({m.source.name}, {m.target.name})",
        "dim": n,
        "gram_chi": [[exact_text(x) for x in row] for row in gram_chi.data],
        "det_gram_chi": exact_text(det),
        "unimodular": unimodular,
        "kernel_dim": len(kr),
        "kernel_basis": [[exact_text(x) for x in v] for v in kr],
        "numerical_kernel_dim": len(nk),
        "kernel_statement": (
            "gram_chi is unimodular; both kernels are zero (non-vacuous check)"
            if unimodular
            else f"kernel dimension {len(kr)}"
        ),
        "checks": checks,
        "verdict": all(c["pass"] for c in checks),
    }
    return report


def ideal_stability_samples(
    m: HomSpaceModel,
    kernel_vectors,
    partners,
    cap: int = DEFAULT_CAP,
):
    """Compositions of kernel classes with arbitrary correspondences stay in
    the respective kernels (sampled ideal stability).

    partners: list of correspondences composable on the target side
    (w: target -> anything).  Returns a list of booleans, one per
    (kernel vector, partner) pair, each True when the composite's class is
    numerically trivial in its own Hom-space."""
    results = []
    for v in kernel_vectors:
        xv = realize_class(v, m.source, m.target, cap)
        for w in partners:
            comp = compose(w, xv)
            model = build_hom_model(comp.source, comp.target, cap)
            nk = numerical_kernel(model, cap)
            span = RowBasis(model.dim).extend(nk)
            cls = comp.k0()
            coords = RowBasis(len(cls)).extend(model.basis).coords(cls)
            if coords is None:
                results.append(False)
                continue
            results.append(span.contains(coords))
    return results

