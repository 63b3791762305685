"""Motives over the supported algebras: objects (A, e), correspondences,
composition, trace, the two pairings on Hom-sets, and the kernel-equality
verdict.

A motive is an algebra with an idempotent endo-correspondence class; the
identity motive carries the class of the diagonal bimodule.  Correspondences
are rational combinations of perfect bimodule complexes, compared at the
level of Grothendieck classes (the morphisms of the category are exactly
those classes).  Composition is the derived tensor product over the middle
algebra, and no composite is ever built: on classes it is [X] chi_B [Y]
(derived.compose_classes, chi_B the Euler matrix of B), so restricted
Hom-sets, the images of the projector e o - o e', are read from classes,
and the trace of a composite is read from the copies of its left factor and
the class of its right one (hochschild.composite_trace).
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
from .hochschild import composite_trace, hochschild_euler, intersection_number
from .linalg import Matrix, RowBasis, exact_text, norm_scalar, span_equal


# -- motives and correspondences --------------------------------------------------


class NCMotive:
    """An algebra together with an idempotent correspondence class.

    idem=None means the identity motive (class of the diagonal bimodule).
    Idempotency e o e = e is verified at the class level on construction,
    through the Euler matrix of the algebra.  An idempotent
    whose class is zero is refused (ValueError): its motive is zero, so every
    check on it would compare empty spaces."""

    def __init__(self, algebra: Algebra, idem: "Correspondence | None" = None):
        self.algebra = algebra
        self.idem = idem
        self.name = f"({algebra.meta.get('name', '?')}, {'id' if idem is None else 'e'})"
        if idem is not None:
            if idem.source.algebra is not algebra or idem.target.algebra is not algebra:
                raise ValueError("idempotent must be an endo-correspondence of the algebra")
            cls = idem.k0()
            if not any(cls):
                raise ValueError("the idempotent is the zero class")
            if compose_classes(cls, cls, algebra) != list(cls):
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
    perfect; serre_correspondence gives unresolved complexes.  Terms must be
    perfect in the first argument of chi_hom, in dualize and in the x of
    hochschild.composite_trace; k0, trace and intersection_number (which
    read classes) accept any bounded complex.

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
            for i, x in enumerate(k0_class(t)):
                if x:
                    out[i] += c * x
        return tuple(norm_scalar(x) for x in out)

    def __repr__(self):
        return f"<Correspondence {self.source.name} -> {self.target.name}, {len(self.terms)} terms>"


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
    left = compose_classes(src.idem_class(), cls, src.algebra)
    return compose_classes(left, dst.idem_class(), dst.algebra)


# -- operations --------------------------------------------------------------------


def dualize(x: Correspondence) -> Correspondence:
    """Termwise dual, with the endpoints swapped.  Each term keeps its dual
    (homalg.dual_perfect), so it is computed once per term."""
    a = x.source.algebra
    b = x.target.algebra
    return Correspondence(x.target, x.source, [(c, dual_perfect(t, a, b)) for c, t in x.terms])


def trace(z: Correspondence) -> int | Fraction:
    """Categorical trace of an endo-correspondence: the alternating sum of
    Hochschild dimensions of each term, combined by the coefficients."""
    if z.source != z.target:
        raise ValueError("trace requires an endo-correspondence")
    a = z.source.algebra
    total = 0
    for c, t in z.terms:
        total += c * hochschild_euler(a, t)
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


def euler_gram(m: HomSpaceModel) -> Matrix:
    """Gram matrix of chi_hom on the realized basis: entry (i, j) is
    chi(x_i, x_j)."""
    return Matrix(m.dim, m.dim, [[chi_hom(x, y) for y in m.realized] for x in m.realized])


def numerical_kernel(m: HomSpaceModel):
    """Classes pairing to zero against the whole reversed Hom-space model,
    via the rectangular intersection matrix; coordinates over m.basis."""
    reverse = build_hom_model(m.target, m.source)
    if m.dim == 0:
        return []
    if reverse.dim == 0:
        return [list(v) for v in Matrix.identity(m.dim).data]
    rect = Matrix(
        m.dim,
        reverse.dim,
        [
            [intersection_number(m.realized[i], reverse.realized[j]) for j in range(reverse.dim)]
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


def verify_equivalence(m: HomSpaceModel) -> dict:
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
    The pairwise checks run on every pair of basis classes and read
    chi(x, y) from the Euler Gram; trace-formula reads trace(y o D(x)) from
    the copies of D(x) and the class of y (hochschild.composite_trace), and
    commutative-square reads <D(x) . y> from the intersection Gram, whose
    classes compose through Euler matrices.
    Failures are recorded in the report, not raised."""
    checks = []
    n = m.dim
    gram_chi = euler_gram(m)
    duals = [dualize(x) for x in m.realized]
    gram_int = Matrix(n, n, [[intersection_number(d, y) for y in m.realized] for d in duals])

    # idempotent law
    for motive, tag in ((m.source, "source"), (m.target, "target")):
        cls = motive.idem_class()
        checks.append(check_record(
            f"idempotent-law-{tag}",
            "e o e = e on classes",
            list(cls),
            compose_classes(cls, cls, motive.algebra),
        ))

    # pairwise identities
    for i in range(n):
        sx = serre_correspondence(m.realized[i])
        for j in range(n):
            y = m.realized[j]
            lhs = gram_chi.data[i][j]
            checks.append(check_record(
                f"serre-symmetry[{i},{j}]",
                "chi(x,y) = chi(y, S(x))",
                lhs,
                chi_hom(y, sx),
            ))
            checks.append(check_record(
                f"trace-formula[{i},{j}]",
                "chi(x,y) = trace(y o D(x))",
                lhs,
                composite_trace(duals[i], y),
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

    nk = numerical_kernel(m)
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
