"""Euler form, Grothendieck classes, Serre transform, smoothness.

The Grothendieck group of the derived category of a supported algebra is
free on the simple classes; a complex lands in it through the alternating
sum of its components' dimension vectors (Module.dims).  k0_class is the
one place that computes it, one route for every complex: a perfect
complex's components answer from the Peirce table, a Serre transform's
from its injectives, so neither reads a row.
The Euler pairing of two perfect complexes is the Euler characteristic of
their Hom complex, an exact integer: the copy weights of the first paired
with the class of the second.  Its matrix on the simple basis is the
inverse of the Cartan matrix, so the class of a derived tensor product
X (x)_B Y is [X] chi_B [Y] (compose_classes): correspondence classes
compose without building a tensor complex.

Which terms must be perfect: the first argument of euler_pairing (and of
homalg.hom_complex, which reads it off its copies) is a PerfectComplex;
the second may be any bounded complex, and a PerfectComplex is one (a
Complex read off its copies), so it is passed as it is.  The Serre transform is the Nakayama functor D(Hom_A(-, A)),
naturally isomorphic to - (x)_A D(A) on perfect complexes.  It is read off
the copies of M: Hom_A(e_i A, A) = A e_i, so S(M) is the unresolved
complex of injectives D(A e_i) over the copies of M, with the transposed
differentials of the summandwise dual (homalg.dual_perfect), built on
first read; neither the enveloping algebra of A nor D(A) as a bimodule is
built.  Every consumer
reads S(M) only as the second argument above, so no perfect replacement is
built either (the package has none; the tests compare S(M) with one built
by their reference module).  The defining duality of S is verified by the
test suite rather than assumed.

Simple resolutions over a tensor algebra L (x) R (every Hom algebra is one)
are the external tensor products of the factors' simple resolutions
(Kuenneth), not projective resolutions over the product.  The diagonal
resolution is written in closed form for a path algebra; only the other
algebras resolve a bimodule over their enveloping algebra.
"""

from __future__ import annotations

from .algebra import Algebra, cached, hom_algebra, join_pair_basis, scalar_algebra
from .complexes import Complex, LazyDifferentials, PerfectComplex, as_complex
from .homalg import dual_perfect
from .linalg import Matrix, gram, norm_scalar
from .modules import diagonal_bimodule, direct_sum_modules, injective_module, simple_modules
from .resolutions import (
    MAX_RESOLUTION_LENGTH,
    ResolutionCapExceeded,
    projective_resolution,
    resolution_length,
)


def k0_class(x) -> tuple:
    """Class of a complex or module in the simple basis, as its coordinate
    tuple: the alternating sum over the components of their dimension
    vectors dim(M e_j).  A complex's class is memoized on it; a copy e_i A
    contributes row i of the Peirce table, an injective D(A e_i) column i."""
    return _class(as_complex(x))


@cached
def _class(c: Complex) -> tuple:
    coords = [0] * len(c.algebra.idempotents)
    for deg, comp in c.components.items():
        s = -1 if deg % 2 else 1
        for j, d in enumerate(comp.dims()):
            coords[j] += s * d
    return tuple(coords)


def euler_pairing(m: PerfectComplex, n) -> int:
    """chi(M, N): Euler characteristic of the Hom complex.  Hom(e_i A, N) is
    N e_i, so chi is the copy weights of M paired with the class of N."""
    if n.algebra is not m.algebra:
        raise ValueError("euler_pairing arguments live over different algebras")
    return sum(w * c for w, c in zip(m.euler_copy_weights(), k0_class(n)))


@cached
def simple_resolutions(a: Algebra):
    """Cached minimal resolutions of the simple modules, in idempotent order.

    Over a tensor algebra L (x) R the simple S_(i,j) is S_i (x) S_j, and its
    minimal resolution is the external tensor product res(S_i) (x) res(S_j)
    of the factors' cached resolutions (Kuenneth over the field), so nothing
    is resolved over the product itself.  Any other algebra resolves its
    simples by projective_resolution.  Either way a resolution longer than
    MAX_RESOLUTION_LENGTH raises ResolutionCapExceeded."""
    factors = a.meta.get("factors")
    if factors is None:
        return [projective_resolution(s) for s in simple_modules(a)]
    left, right = (simple_resolutions(f) for f in factors)
    longest = sum(max(map(resolution_length, r), default=0) for r in (left, right))
    if longest > MAX_RESOLUTION_LENGTH:
        raise ResolutionCapExceeded(
            f"simple resolutions over {a!r} have length {longest} > {MAX_RESOLUTION_LENGTH}"
        )
    return [external_tensor(a, x, y) for x in left for y in right]


def external_tensor(a: Algebra, x: PerfectComplex, y: PerfectComplex) -> PerfectComplex:
    """x (x) y over a = tensor(L, R) for perfect x over L and y over R.

    Copy (i, j) of degree p + q pairs copy i of x^p with copy j of y^q; the
    copies of a degree are in a's idempotent order.  The block of d from
    (i, j) to (i', j) is z (x) e_j for the block z of d_x, the block from
    (i, j) to (i, j') is (-1)^p e_i (x) w for the block w of d_y."""
    left, right = a.meta["factors"]
    n_r = len(right.idempotents)
    g_l = left.idempotents
    g_r = right.idempotents
    slots: dict = {}
    for p, cs_x in x.copies.items():
        for q, cs_y in y.copies.items():
            for c, i in enumerate(cs_x):
                for c2, j in enumerate(cs_y):
                    slots.setdefault(p + q, []).append((i * n_r + j, p, q, c, c2))
    for entries in slots.values():
        entries.sort()
    pos = {key[1:]: k for entries in slots.values() for k, key in enumerate(entries)}
    copies = {n: tuple(e[0] for e in entries) for n, entries in slots.items()}
    blocks = {}
    for n, entries in slots.items():
        if n + 1 not in slots:
            continue
        d_blocks = blocks[n] = {}
        for k, (idem, p, q, c, c2) in enumerate(entries):
            i, j = divmod(idem, n_r)
            for (s, t), z in x.block_elements(p).items():
                if s == c:
                    d_blocks[(k, pos[(p + 1, q, t, c2)])] = [
                        (join_pair_basis(right, u, g_r[j]), coeff) for u, coeff in z
                    ]
            sign = -1 if p % 2 else 1
            for (s, t), w in y.block_elements(q).items():
                if s == c2:
                    d_blocks[(k, pos[(p, q + 1, c, t)])] = [
                        (join_pair_basis(right, g_l[i], v), sign * coeff) for v, coeff in w
                    ]
    return PerfectComplex(a, copies, blocks)


@cached
def euler_matrix(a: Algebra) -> Matrix:
    """Gram matrix of the Euler form on the simple basis; by bilinearity it
    determines the form on the whole rationalized Grothendieck group."""
    res = simple_resolutions(a)
    return gram(euler_pairing, res, res)


def compose_classes(u, v, middle: Algebra) -> list:
    """Class of X (x)_middle Y from the class u of X over
    tensor(op(L), middle) and the class v of Y over tensor(op(middle), R):
    read as an n_L x n_middle matrix U and an n_middle x n_R matrix V (row
    index the first factor's idempotent), it is U chi V, flattened the same
    way, with chi = euler_matrix(middle).  Entries are exact (norm_scalar).

    Why chi: if X is perfect with copy weights W (copy (l, m) is
    L e_l (x) e_m middle), then U = C_L W C, with C_L and C the Cartan
    matrices dim(e_i A e_j) of L and middle (see k0_class); the copy meets
    Y in L e_l (x) e_m Y, so the class of the product is C_L W V =
    U C^-1 V.  C^-1 is the Euler matrix: chi(e_i A, S_j) = delta_ij and
    [e_i A] = sum_k C_ik [S_k]."""
    chi = euler_matrix(middle).data
    n = len(chi)
    n_r = len(v) // n
    vrows = [v[r * n_r : (r + 1) * n_r] for r in range(n)]
    out = []
    for p in range(0, len(u), n):
        acc = [0] * n_r
        for q, x in enumerate(u[p : p + n]):
            if not x:
                continue
            for r, c in enumerate(chi[q]):
                if c:
                    for s, y in enumerate(vrows[r]):
                        if y:
                            acc[s] += x * c * y
        out.extend(norm_scalar(z) for z in acc)
    return out


def serre(m: PerfectComplex) -> Complex:
    """Serre transform S(M) = D(Hom_A(M, A)), naturally isomorphic to
    M (x)_A D(A) for perfect M (the Nakayama functor).

    Hom_A(M, A) is the summandwise dual of M: each copy e_i A in degree n
    becomes A e_i in degree -n.  D sends A e_i to the injective D(A e_i)
    and negates the degrees again, so the component of S(M) in degree n is
    the direct sum of modules.injective_module(a, i) over the copies i of M
    in degree n.  S(M) has a differential in degree n where M has one: the
    transpose of the dual's in degree -n - 1, with the dual over op(A)
    built on first read (complexes.LazyDifferentials), so a class builds
    neither.  The result is not resolved and not perfect: use it as the
    second argument of euler_pairing or hom_complex, where any bounded
    complex is valid."""
    a = m.algebra
    comps = {
        n: direct_sum_modules(a, [injective_module(a, i) for i in cs])
        for n, cs in m.copies.items()
    }
    diffs = LazyDifferentials(
        m.differentials,
        lambda k: dual_perfect(m, scalar_algebra(), a).differentials[-k - 1].transpose(),
    )
    return Complex(a, comps, diffs, check=False)


@cached
def diagonal_resolution(a: Algebra) -> PerfectComplex:
    """Minimal resolution of the diagonal bimodule over tensor(op(A), A).

    - A path algebra kQ takes the standard resolution in closed form
      (Happel, LNM 1404), read from the arrows in meta["quiver"]: one copy
      A e_v (x) e_v A per vertex in degree 0, one copy A e_s (x) e_t A per
      arrow a: s -> t in degree -1, and
      d(1 (x) 1) = +-(e_s (x) a - a (x) e_t), with the sign that gives the
      copy of the smaller vertex +1.  Copies, order and signs are those
      projective_resolution finds.  Bardzell's resolution of a monomial
      algebra continues the same pattern (paths in degree 0 and -1, then
      one copy per associated sequence of relations).
    - Any other algebra (a `table` spec, an opposite, a tensor algebra)
      resolves the diagonal bimodule by projective_resolution, which the
      tests also use as the oracle of the closed form.

    Raises ResolutionCapExceeded past MAX_RESOLUTION_LENGTH."""
    if "quiver" not in a.meta:
        return projective_resolution(diagonal_bimodule(a))
    res = _path_algebra_diagonal(a)
    if resolution_length(res) > MAX_RESOLUTION_LENGTH:
        raise ResolutionCapExceeded(
            f"diagonal resolution over {a!r} has length {resolution_length(res)} > {MAX_RESOLUTION_LENGTH}"
        )
    return res


def _path_algebra_diagonal(a: Algebra) -> PerfectComplex:
    """The standard resolution of a path algebra (see diagonal_resolution):
    degree 0 has the vertex copies (v, v) in vertex order, degree -1 the
    arrow copies (s, t) in idempotent order, parallel arrows in basis
    order."""
    g = a.idempotents
    n = len(g)
    env = hom_algebra(a, a)
    copies = {0: tuple(v * n + v for v in range(n))}
    arrows = sorted(a.meta["quiver"])
    if not arrows:
        return PerfectComplex(env, copies)
    copies[-1] = tuple(s * n + t for s, t, _ in arrows)
    blocks = {}
    for c, (s, t, b) in enumerate(arrows):
        sign = 1 if s < t else -1
        # e_s (x) a in the copy of s, a (x) e_t in the copy of t
        for v, (x, y), coeff in ((s, (g[s], b), sign), (t, (b, g[t]), -sign)):
            blocks[(c, v)] = [(join_pair_basis(a, x, y), coeff)]
    return PerfectComplex(env, copies, {-1: blocks})


def check_smooth(a: Algebra):
    """(True, diagonal resolution) when the diagonal bimodule has a projective
    resolution within MAX_RESOLUTION_LENGTH, else (False, None)."""
    try:
        return True, diagonal_resolution(a)
    except ResolutionCapExceeded:
        return False, None
