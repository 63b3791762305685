"""Motives over the supported algebras: objects (A, e), correspondences,
composition, trace, the two pairings on Hom-sets, and the kernel-equality
verdict.

A motive is an algebra with an idempotent endo-correspondence class; the
identity motive carries the class of the diagonal bimodule.  Correspondences
are rational combinations of perfect bimodule complexes, read through two
vectors on the simple basis of the Hom algebra: the class k0() (the
morphisms of the category are exactly those classes) and the copy weights
weights().  Every pairing is a bilinear form on them: chi(x, y) is
x.weights() . y.k0(), and trace, intersection number and the trace of a
composite pair a class with the copy weights of A^!.  Composition is the
derived tensor product over the middle algebra, and no composite is ever
built: on classes it is [X] chi_B [Y] (derived.compose_classes, chi_B the
Euler matrix of B), so restricted Hom-sets, the images of the projector
e o - o e', are read from classes, and the trace of a composite is read
from the copy weights of its left factor and the class of its right one
(hochschild.composite_trace).

The verdict reads Grams built once on a Hom-space model (linalg.gram):
one table compares each pairwise identity with the Euler Gram entry by
entry, the other compares the kernels of each kernel identity as spans.
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
from .homalg import dual_perfect
from .hochschild import composite_trace, intersection_number, pair_with_diagonal
from .linalg import Matrix, RowBasis, exact_text, gram, norm_scalar, span_equal


# -- motives and correspondences --------------------------------------------------


class NCMotive:
    """An algebra together with an idempotent correspondence class.

    idem=None means the identity motive (class of the diagonal bimodule).
    cls is the class of the idempotent, read once at construction.
    Idempotency e o e = e is verified at the class level on construction,
    through the Euler matrix of the algebra.  An idempotent
    whose class is zero is refused (ValueError): its motive is zero, so every
    check on it would compare empty spaces."""

    def __init__(self, algebra: Algebra, idem: "Correspondence | None" = None):
        self.algebra = algebra
        self.idem = idem
        self.name = f"({algebra.meta.get('name', '?')}, {'id' if idem is None else 'e'})"
        if idem is None:
            self.cls = identity_class(algebra)
            return
        if idem.source.algebra is not algebra or idem.target.algebra is not algebra:
            raise ValueError("idempotent must be an endo-correspondence of the algebra")
        self.cls = idem.k0()
        if not any(self.cls):
            raise ValueError("the idempotent is the zero class")
        if compose_classes(self.cls, self.cls, algebra) != self.cls:
            raise ValueError("correspondence class is not idempotent")

    def is_identity(self) -> bool:
        return self.idem is None

    def __eq__(self, other):
        return (
            isinstance(other, NCMotive)
            and self.algebra is other.algebra
            and self.cls == other.cls
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
    perfect; serre_correspondence gives unresolved complexes.  Terms must be
    perfect where copies are read (weights, so the first argument of
    chi_hom and the x of hochschild.composite_trace, and dualize); k0, trace
    and intersection_number (which read classes) accept any bounded complex.

    terms is a tuple of (coefficient, complex) with exact coefficients (an
    int unless the coefficient is a proper fraction).  Both vectors are
    computed once and kept; dualize reads the dual each term keeps."""

    def __init__(self, source: NCMotive, target: NCMotive, terms):
        self.source = source
        self.target = target
        self.terms = tuple((norm_scalar(c), t) for c, t in terms)
        self._cache: dict = {}
        e = hom_algebra(source.algebra, target.algebra)
        if any(t.algebra is not e for _, t in self.terms):
            raise ValueError("term does not live over the Hom algebra")

    def k0(self):
        """Class vector in the simple basis of the Hom algebra."""
        return list(self._vector(k0_class))

    def weights(self):
        """Copy-weight vector (PerfectComplex.euler_copy_weights) in the same
        basis; ValueError unless every term is perfect."""
        return list(self._vector(_copy_weights))

    @cached
    def _vector(self, read):
        out = [0] * len(hom_algebra(self.source.algebra, self.target.algebra).idempotents)
        for c, t in self.terms:
            for i, x in enumerate(read(t)):
                if x:
                    out[i] += c * x
        return tuple(norm_scalar(x) for x in out)

    def __repr__(self):
        return f"<Correspondence {self.source.name} -> {self.target.name}, {len(self.terms)} terms>"


def _copy_weights(t) -> list:
    if not isinstance(t, PerfectComplex):
        raise ValueError("term is not perfect: it has no copies to weigh")
    return t.euler_copy_weights()


def identity_correspondence(m: NCMotive) -> Correspondence:
    """The identity of the identity motive: class of the diagonal bimodule,
    represented by its minimal resolution."""
    if not m.is_identity():
        raise ValueError("identity correspondence is attached to identity motives")
    return Correspondence(m, m, [(1, diagonal_resolution(m.algebra))])


def vertex_cut_idempotent(a: Algebra, vertices) -> Correspondence:
    """Idempotent correspondence class cutting out the summands at the given
    idempotent indices: the projective bimodule (+)_{v} (A e_v (x) e_v A).

    Requires no composable pair among the chosen indices (e_v A e_w = 0 for
    distinct chosen v, w), which makes the class idempotent."""
    vertices = sorted(set(vertices))
    n = len(a.idempotents)
    for v in vertices:
        for w in vertices:
            if v != w and a.peirce_dims()[v][w]:
                raise ValueError(
                    "vertex set admits a path between distinct members; class would not be idempotent"
                )
    e = hom_algebra(a, a)
    ident = NCMotive(a)
    copies = tuple(v * n + v for v in vertices)
    term = PerfectComplex(e, {0: copies})
    return Correspondence(ident, ident, [(1, term)])


def complement_idempotent(e: Correspondence) -> Correspondence:
    """1 - e for an idempotent endo-correspondence of an identity motive."""
    ident = identity_correspondence(e.source)
    return Correspondence(e.source, e.target, [*ident.terms, *((-c, t) for c, t in e.terms)])


def project_class(src: NCMotive, dst: NCMotive, cls):
    """The projector e o - o e' on classes over the Hom algebra."""
    left = compose_classes(src.cls, cls, src.algebra)
    return compose_classes(left, dst.cls, dst.algebra)


# -- operations --------------------------------------------------------------------


def dualize(x: Correspondence) -> Correspondence:
    """Termwise dual, with the endpoints swapped.  Each term keeps its dual
    (homalg.dual_perfect), so it is computed once per term."""
    a = x.source.algebra
    b = x.target.algebra
    return Correspondence(x.target, x.source, [(c, dual_perfect(t, a, b)) for c, t in x.terms])


def trace(z: Correspondence) -> int | Fraction:
    """Categorical trace of an endo-correspondence: its class paired with
    the copy weights of A^!, the alternating sum of Hochschild dimensions
    of any complex of that class (hochschild.pair_with_diagonal)."""
    if z.source != z.target:
        raise ValueError("trace requires an endo-correspondence")
    return pair_with_diagonal(z.source.algebra, z.k0())


def chi_hom(x: Correspondence, y: Correspondence) -> int | Fraction:
    """Euler form on a Hom-set, the bilinear extension of the Euler pairing
    of perfect bimodule complexes: the copy weights of x paired with the
    class of y."""
    if x.source != y.source or x.target != y.target:
        raise ValueError("chi_hom requires parallel correspondences")
    return sum(w * c for w, c in zip(x.weights(), y.k0()))


def serre_correspondence(x: Correspondence) -> Correspondence:
    """Termwise Serre transform over the Hom algebra (same endpoints); the
    terms of x must be perfect, those of the result are unresolved."""
    return Correspondence(
        x.source, x.target, [(c, serre(t)) for c, t in x.terms]
    )


def realize_class(cls, src: NCMotive, dst: NCMotive) -> Correspondence:
    """A correspondence representing a class vector: the combination of
    simple resolutions over the Hom algebra with the given coefficients."""
    e = hom_algebra(src.algebra, dst.algebra)
    res = simple_resolutions(e)
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


def build_hom_model(src: NCMotive, dst: NCMotive) -> HomSpaceModel:
    """Model of Hom((A,e),(B,e')): basis of the image of the projector
    e o - o e' on classes, each basis class realized by a correspondence."""
    e = hom_algebra(src.algebra, dst.algebra)
    n = len(e.idempotents)
    rb = RowBasis(n)
    for i in range(n):
        std = [0] * n
        std[i] = 1
        rb.add(project_class(src, dst, std))
    basis = [r[:] for r in rb.rows]
    for v in basis:
        if project_class(src, dst, v) != v:
            raise AssertionError("projector image is not projector-stable")
    realized = [realize_class(v, src, dst) for v in basis]
    return HomSpaceModel(src, dst, basis, realized)


def numerical_kernel(m: HomSpaceModel):
    """Classes pairing to zero against the whole reversed Hom-space model,
    via the rectangular intersection matrix; coordinates over m.basis."""
    reverse = build_hom_model(m.target, m.source)
    return gram(intersection_number, m.realized, reverse.realized).left_kernel_basis()


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


def verify_equivalence(m: HomSpaceModel) -> dict:
    """Run every identity the construction promises on a Hom-space model and
    report the kernel-equality verdict.

    Four Grams are built once on the realized basis (linalg.gram, each
    pairing called once per pair): chi(x, y), chi(y, S(x)),
    trace(y o D(x)) (hochschild.composite_trace, from the copies of D(x)
    and the class of y, no Euler matrix read) and <D(x) . y> (classes
    composed through Euler matrices).  After idempotent-law (e o e = e for
    both endpoint motives) two tables give the checks, each identity named
    once:
      pairwise rows, entry (i, j) of a Gram against chi(x_i, x_j):
        serre-symmetry      chi(x,y) = chi(y, S(x))
        trace-formula       chi(x,y) = trace(y o D(x))
        commutative-square  chi(x,y) = <D(x) . y>
      kernel rows, two spans compared with span_equal:
        kernel-left-right   left and right kernels of the corner Gram
        gram-int-kernel     kernel of the intersection Gram, Ker_R(gram_chi)
        numerical-kernel    numerically trivial classes, the Euler kernel
    The Euler kernel (kernel_dim) is the part of the corner in Ker chi of
    the whole Hom algebra, the left kernel of the basis' copy weights
    (B chi_E); gram_chi, det_gram_chi and its kernels are the corner's.
    Failures are recorded in the report, not raised."""
    n = m.dim
    xs = m.realized
    gram_chi = gram(chi_hom, xs, xs)
    duals = [dualize(x) for x in xs]
    gram_int = gram(intersection_number, duals, xs)
    gram_serre = gram(lambda sx, y: chi_hom(y, sx), [serre_correspondence(x) for x in xs], xs)
    pairwise = (
        ("serre-symmetry", "chi(x,y) = chi(y, S(x))", gram_serre),
        ("trace-formula", "chi(x,y) = trace(y o D(x))", gram(composite_trace, duals, xs)),
        ("commutative-square", "chi(x,y) = <D(x) . y>", gram_int),
    )
    width = len(hom_algebra(m.source.algebra, m.target.algebra).idempotents)
    kc = Matrix(n, width, [x.weights() for x in xs]).left_kernel_basis()
    nk = numerical_kernel(m)
    kr = gram_chi.kernel_basis()
    kernels = (
        ("kernel-left-right", "Ker_L(gram_chi) = Ker_R(gram_chi)", gram_chi.left_kernel_basis(), kr),
        ("gram-int-kernel", "Ker(<D(-) . ->) = Ker_R(gram_chi)", gram_int.kernel_basis(), kr),
        (
            "numerical-kernel",
            "numerically trivial classes = Ker(chi) of the Hom algebra, on the corner",
            nk,
            kc,
        ),
    )

    checks = [
        check_record(
            f"idempotent-law-{tag}",
            "e o e = e on classes",
            motive.cls,
            compose_classes(motive.cls, motive.cls, motive.algebra),
        )
        for motive, tag in ((m.source, "source"), (m.target, "target"))
    ]
    for i in range(n):
        for j in range(n):
            for name, identity, rhs in pairwise:
                checks.append(check_record(
                    f"{name}[{i},{j}]", identity, gram_chi.data[i][j], rhs.data[i][j]
                ))
    for name, identity, left, right in kernels:
        checks.append(check_record(
            name, identity, True, span_equal(RowBasis(n).extend(left), RowBasis(n).extend(right))
        ))

    det = gram_chi.det()
    unimodular = det in (1, -1)
    report = {
        "hom_space": f"Hom({m.source.name}, {m.target.name})",
        "dim": n,
        "gram_chi": [[exact_text(x) for x in row] for row in gram_chi.data],
        "det_gram_chi": exact_text(det),
        "unimodular": unimodular,
        "kernel_dim": len(kc),
        "kernel_basis": [[exact_text(x) for x in v] for v in kc],
        "numerical_kernel_dim": len(nk),
        "kernel_statement": (
            "gram_chi is unimodular; both kernels are zero"
            " (the Euler kernel and the numerically trivial classes)"
            if unimodular
            else f"Euler kernel dimension {len(kc)}"
        ),
        "checks": checks,
        "verdict": all(c["pass"] for c in checks),
    }
    return report
