"""Hochschild homology with bimodule coefficients and the intersection pairing.

HH is a Hom complex.  With P the diagonal resolution over A^e =
tensor(op(A), A) and A^! = D_A(P) its bimodule dual (homalg.dual_perfect),
HH_n(A, W) = H^{-n}(P (x)_{A^e} W) = H^{-n} Hom_{A^e}(A^!, W), and
homalg.hom_complex builds that Hom complex from the copies of A^!: one
block W^q e per copy e A^e.  D_A has already swapped the two sides of A^e,
so W is read through its own right action.  bar_oracle is an independent oracle up to a given degree: the
normalized bar complex relative to the vertex idempotents, whose degree-n
term has one block e_r W e_l per composable n-tuple of non-idempotent basis
monomials (Cibils' complex for a path algebra), so it grows with the number
of such tuples rather than like dim(W) dim(A)^n.  The rank of each
differential is the dimension of the RowBasis spanned by its rows, the
package's one elimination engine.

Intersection numbers and traces of composites are alternating sums of
Hochschild dimensions of composed bimodules, so they need only the
Grothendieck class of the composite, paired with the copy weights of A^!
(the Euler pairing chi(A^!, -)); never homology, never the composite.
intersection_number reads that class through the Euler matrix of the middle
algebra (derived.compose_classes), composite_trace from the copies of its
left factor (tensor_class), so the two routes stay independent.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    Algebra,
    hom_algebra,
    join_pair_basis,
    join_pair_idempotent,
    split_pair_idempotent,
)
from .complexes import PerfectComplex, as_complex
from .derived import compose_classes, diagonal_resolution, euler_pairing, k0_class
from .homalg import dual_perfect, hom_complex
from .linalg import RowBasis
from .modules import Module


def inverse_dualizing(a: Algebra) -> PerfectComplex:
    """A^! = D_A(P) for the diagonal resolution P, memoized on P."""
    return dual_perfect(diagonal_resolution(a), a, a)


def _check_bimodule(a: Algebra, w):
    if w.algebra is not hom_algebra(a, a):
        raise ValueError("coefficients are not bimodules over tensor(op(A), A)")


def hochschild(a: Algebra, w, top: int) -> list:
    """Hochschild homology dimensions HH_0 .. HH_top of A with coefficients
    in a bimodule (or bounded complex of bimodules) over tensor(op(A), A).

    HH_n is the cohomology in degree -n of Hom_{A^e}(A^!, W).  A^! sits in
    degrees >= 0, so W must have none in a positive degree (ValueError
    otherwise): the Hom complex then sits in degrees <= 0, and no homology
    is dropped."""
    wc = as_complex(w)
    _check_bimodule(a, wc)
    if wc.hi > 0:
        raise ValueError("coefficients have a component in a positive degree")
    hom = hom_complex(inverse_dualizing(a), wc)
    return [hom.homology(-n) for n in range(top + 1)]


def hochschild_euler(a: Algebra, w) -> int:
    """Alternating sum of Hochschild dimensions: the Euler pairing
    chi(A^!, W) of the Hom complex, read from the class of W alone."""
    _check_bimodule(a, w)
    return euler_pairing(inverse_dualizing(a), w)


def _pair_with_diagonal(a: Algebra, coords) -> int:
    """chi(A^!, -) on a class over tensor(op(A), A): the copy weights of
    A^! dotted with its coordinates."""
    return sum(w * c for w, c in zip(inverse_dualizing(a).euler_copy_weights(), coords))


# -- bar complex oracle ---------------------------------------------------------


def bar_oracle(a: Algebra, w: Module, top: int) -> list:
    """Hochschild homology of A with coefficients in a single bimodule W via
    the normalized bar complex relative to E = (+) k e_i, the span of the
    vertex idempotents, in degrees n <= top:

        C_n = W (x)_{E^e} (A/E)^{(x)_E n}.

    E is a product of copies of the field, hence separable: every
    E-relative projective A-bimodule is projective, so the relative
    normalized bar resolution A (x)_E (A/E)^{(x)_E n} (x)_E A of the diagonal
    is a projective resolution, and tensoring it with W over A^e gives C_n.
    The basis of A/E is the non-idempotent basis monomials, which needs the
    Peirce-adapted basis of Algebra.peirce (e_l b e_r = b for each monomial
    b).  C_n has one block e_r W e_l per tuple (t_1..t_n) of such monomials
    with right(t_i) = left(t_{i+1}), l = left(t_1) and r = right(t_n), in
    the coordinates of the row space of the action of (e_r^op, e_l); C_0
    has the blocks e_i W e_i.  The differential is

        d(w, t_1..t_n) = (w t_1, t_2..t_n)
                         + sum_i (-1)^i (w, .., t_i t_{i+1}, ..)
                         + (-1)^n (t_n w, t_1..t_{n-1}),

    with the idempotent components of t_i t_{i+1} dropped (it is read in
    A/E).  For a path algebra this is Cibils' complex, and its tuples are
    the composable paths of positive length.

    dims[n] = dim C_n - rank d_n - rank d_{n+1}."""
    _check_bimodule(a, w)
    left, right = a.peirce()
    idem = a.idempotents
    monomials = [t for t in range(a.dim) if t not in idem]
    blocks: dict = {}
    faces: dict = {}

    def block(r, l) -> RowBasis:
        """e_r W e_l."""
        if (r, l) not in blocks:
            g = join_pair_basis(a, idem[r], idem[l])
            blocks[(r, l)] = RowBasis(w.dim).extend(w.act_matrix(((g, 1),)).data)
        return blocks[(r, l)]

    def face(r, l, g, r2, l2):
        """Block coordinates of the action of basis element g of A^e,
        e_r W e_l -> e_r2 W e_l2."""
        key = (r, l, g)
        if key not in faces:
            dst = block(r2, l2)
            faces[key] = [dst.coords(w.times(v, ((g, 1),))) for v in block(r, l).rows]
        return faces[key]

    # cells[n]: (tuple, r, l) for each block of C_n, and its first coordinate
    cells = [[((), i, i) for i in range(len(idem))]]
    for _ in range(top + 1):
        cells.append(
            [(ts + (t,), right[t], l) for ts, r, l in cells[-1] for t in monomials if left[t] == r]
        )
    offsets = []
    dims_c = []
    for cs in cells:
        offs = {}
        off = 0
        for cell in cs:
            offs[cell] = off
            off += block(cell[1], cell[2]).dim
        offsets.append(offs)
        dims_c.append(off)

    ranks = [0] * (top + 2)  # ranks[n] = rank of d_n : C_n -> C_{n-1}
    for n in range(1, top + 2):
        prev = offsets[n - 1]
        sign_n = -1 if n % 2 else 1
        image = RowBasis(dims_c[n - 1])
        for ts, r, l in cells[n]:
            t1, tn = ts[0], ts[-1]
            first = face(r, l, join_pair_basis(a, idem[r], t1), r, right[t1])
            last = face(r, l, join_pair_basis(a, tn, idem[l]), left[tn], l)
            first_off = prev[(ts[1:], r, right[t1])]
            last_off = prev[(ts[:-1], left[tn], l)]
            inner = []
            for i in range(n - 1):
                sign = -1 if i % 2 == 0 else 1
                for m, c in a.mul[ts[i]][ts[i + 1]]:
                    if m not in idem:
                        inner.append((prev[(ts[:i] + (m,) + ts[i + 2 :], r, l)], sign * c))
            for k in range(block(r, l).dim):
                row = [0] * dims_c[n - 1]
                row[first_off : first_off + len(first[k])] = first[k]
                for off, c in inner:
                    row[off + k] += c
                for k2, c in enumerate(last[k]):
                    row[last_off + k2] += sign_n * c
                image.add(row)
        ranks[n] = image.dim
    return [dims_c[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]


# -- intersection numbers and traces of composites ------------------------------


def intersection_number(x, y) -> int | Fraction:
    """Intersection pairing of correspondences x: (A,e) -> (B,e') and
    y: (B,e') -> (A,e): the bilinear combination over term pairs of the
    alternating Hochschild dimension sums of X_i (x)_B Y_j, each read from
    the classes of X_i and Y_j (derived.compose_classes)."""
    if x.source.algebra is not y.target.algebra or x.target.algebra is not y.source.algebra:
        raise ValueError("correspondence endpoints do not chain")
    a = x.source.algebra
    b = x.target.algebra
    total = 0
    for cx, xt in x.terms:
        for cy, yt in y.terms:
            cls = compose_classes(k0_class(xt), k0_class(yt), b)
            total += cx * cy * _pair_with_diagonal(a, cls)
    return total


def tensor_class(x: PerfectComplex, y, left: Algebra, middle: Algebra, right: Algebra) -> list:
    """Class of x (x)_middle y over tensor(op(left), right), from the copies
    of x and the class of y, with no Euler matrix: copy (l, m) of x meets
    Y^q in L e_l (x) e_m Y^q, so entry (i, j) is the sum over copies of
    weight(x)_(l, m) * dim(e_i L e_l) * k0(y)_(m, j)."""
    ky = k0_class(y)
    if not isinstance(x, PerfectComplex) or x.algebra is not hom_algebra(left, middle):
        raise ValueError("x is not perfect over tensor(op(left), middle)")
    if y.algebra is not hom_algebra(middle, right):
        raise ValueError("y does not live over tensor(op(middle), right)")
    n_r = len(right.idempotents)
    out = [0] * (len(left.idempotents) * n_r)
    for idem, w in enumerate(x.euler_copy_weights()):
        if w:
            l_i, m_i = split_pair_idempotent(middle, idem)
            yrow = [ky[join_pair_idempotent(right, m_i, j)] for j in range(n_r)]
            for i, row in enumerate(left.peirce_dims()):
                for j, c in enumerate(yrow):
                    out[join_pair_idempotent(right, i, j)] += w * row[l_i] * c
    return out


def composite_trace(x, y) -> int | Fraction:
    """trace(y o x) for x: (B,e') -> (A,e) with perfect terms and
    y: (A,e) -> (B,e'), the composite unbuilt: the class of each term pair's
    X (x)_A Y (tensor_class) paired with the copy weights of B^!."""
    if x.target != y.source or y.target != x.source:
        raise ValueError("correspondence endpoints do not chain")
    a, b = x.target.algebra, x.source.algebra
    return sum(
        cx * cy * _pair_with_diagonal(b, tensor_class(xt, yt, b, a, b))
        for cx, xt in x.terms
        for cy, yt in y.terms
    )
