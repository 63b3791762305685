"""Hom complexes, balanced tensor products and duals of perfect complexes.

Everything here leans on one structural fact about the supported algebras:
a perfect complex has components (+) e A for distinguished idempotents e, so

    e(L^op (x) M)  restricted to M is projective, hence
    ((l^op, m)-summand) (x)_M Y  =  L e_l (x) (e_m Y)

which turns derived tensor into finite block bookkeeping instead of large
commutant solves.  Derived Hom is the same bookkeeping: Hom_A(e A, A) = A e
and A e (x)_A N = N e, so Hom_A(M, N) = M^v (x)_A N for the summandwise dual
M^v = Hom_A(M, A).  Conventions:

* Hom complex: hom_complex is dual_perfect followed by tensor_over, so
  Hom^k = (+)_p Hom(M^p, N^{p+k}) (M^v sits in degree -p) and its signs are
  those of the tensor totalization below, with d_{M^v} precomposition by
  d_M.  They differ from (df) = d_N f - (-1)^k f d_M only by signs on
  components, so the cohomology is the same: degree k computes morphisms
  M -> shift(N, -k) (N moved k degrees down) in the derived category;
  alternating sums of these dimensions form the Euler pairing.
* Tensor totalization: d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy.
  tensor_over assembles the total complex: its block layout and
  differentials at once, each component action matrix on first read (a
  class reads only the idempotent ones).  What it reads of the right
  factor y alone (the actions of middle and right basis elements on each
  Y^q, the blocks e_m Y^q and the right action in block coordinates) does
  not depend on x, so y keeps it in its cache, keyed by (middle, right),
  whether it is perfect or not: the n left factors D(x_i) that meet one
  simple resolution y in the trace formula build it once.  tensor_class gives
  only the Grothendieck class, from the copies of x and the class of y
  (derived.k0_class), and never assembles.
* dual_perfect applies Hom(-, ring) summandwise, negating degrees,
  transporting each left-multiplication block z to its image under the
  canonical anti-isomorphism tensor(op(A), B) -> tensor(op(B), A); it is a
  strict involution on perfect complexes.  The dual is kept on the complex
  (and the complex on its dual), so hom_complex, serre and dualize share
  one dual per complex and pair of algebras.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    join_pair_basis,
    join_pair_idempotent,
    opposite,
    scalar_algebra,
    split_pair_basis,
    split_pair_idempotent,
    swap_permutation,
    tensor,
)
from .complexes import Complex, PerfectComplex, as_complex, assemble_block_matrix
from .linalg import Matrix, RowBasis, matrix_sum, row_times
from .modules import LazyActions, Module


# -- Hom complexes ---------------------------------------------------------------


def hom_complex(m: PerfectComplex, n) -> Complex:
    """Total Hom complex of a perfect complex into a complex over the same
    algebra, as a complex of plain vector spaces: Hom_A(M, N) = M^v (x)_A N,
    with M^v = Hom_A(M, A) the summandwise dual."""
    n = as_complex(n)
    a = m.algebra
    if n.algebra is not a:
        raise ValueError("hom_complex arguments live over different algebras")
    q = scalar_algebra()
    return tensor_over(dual_perfect(m, q, a), n, q, opposite(a), q)


# -- balanced tensor product -----------------------------------------------------


def tensor_over(
    x: PerfectComplex,
    y,
    left: Algebra,
    middle: Algebra,
    right: Algebra,
    check: bool = True,
) -> Complex:
    """Total complex of x (x)_middle y.

    x must be a perfect complex over tensor(opposite(left), middle) -- its
    components are then projective as right middle-modules, so the result
    computes the derived tensor product.  y is any bounded complex of
    modules over tensor(opposite(middle), right).  The output is a complex
    of modules over tensor(opposite(left), right) whose degree-k component
    is the direct sum over p+q = k and copies (l, m) of

        (L e_l) (x) (e_m . Y^q).

    The layout and the differentials are built here; each component's
    action matrix of a basis element of tensor(opposite(left), right) is
    built on first read and kept (modules.LazyActions), so a reader of the
    Grothendieck class builds only the idempotent actions.  The data read
    from y alone is memoized per (middle, right) in y's cache and shared by
    every left factor it meets (a module y is wrapped afresh on each call).
    """
    y = as_complex(y)
    # yleft, yright, yblock, yrows below depend on y, middle and right only
    yleft_cache, yright_cache, yblock_cache, yrows_cache = y._cache.setdefault(
        ("tensor_over", middle, right), ({}, {}, {}, {})
    )
    e_x = tensor(opposite(left), middle)
    e_y = tensor(opposite(middle), right)
    e_t = tensor(opposite(left), right)
    if not isinstance(x, PerfectComplex):
        raise ValueError(
            "the left tensor factor must be a perfect complex "
            "(resolve it over the middle algebra first)"
        )
    if x.algebra is not e_x:
        raise ValueError("x is not perfect over tensor(op(left), middle)")
    if y.algebra is not e_y:
        raise ValueError("y does not live over tensor(op(middle), right)")
    if x.is_zero() or y.is_zero():
        return Complex(e_t, {}, {}, check=False)

    mid_idem_idx = middle.idempotent_basis_indices()

    # left-action matrices of middle basis elements on the components of y
    def yleft(q, g_m):
        key = (q, g_m)
        if key not in yleft_cache:
            yq = y.component(q)
            yleft_cache[key] = matrix_sum(
                (
                    (yq.action[join_pair_basis(opposite(middle), right, g_m, j)], u)
                    for j, u in enumerate(right.unit)
                ),
                yq.dim,
                yq.dim,
            )
        return yleft_cache[key]

    def yright(q, r):
        key = (q, r)
        if key not in yright_cache:
            yq = y.component(q)
            yright_cache[key] = matrix_sum(
                (
                    (yq.action[join_pair_basis(opposite(middle), right, i, r)], u)
                    for i, u in enumerate(middle.unit)
                ),
                yq.dim,
                yq.dim,
            )
        return yright_cache[key]

    def yblock(q, m_idem) -> RowBasis:
        key = (q, m_idem)
        if key not in yblock_cache:
            rb = RowBasis(y.component_dim(q))
            for r in yleft(q, mid_idem_idx[m_idem]).data:
                rb.add(r)
            yblock_cache[key] = rb
        return yblock_cache[key]

    # block layout per total degree: (p, copy, l, m, lblock, yb, offset)
    layout: dict[int, list] = {}
    dims: dict[int, int] = {}
    for k in range(x.lo + y.lo, x.hi + y.hi + 1):
        entries = []
        off = 0
        for p in x.degrees():
            q = k - p
            if not (y.lo <= q <= y.hi):
                continue
            for c, idem in enumerate(x.copies_at(p)):
                l_i, m_i = split_pair_idempotent(opposite(left), middle, idem)
                lblock = left.coprojective_basis(l_i)
                yb = yblock(q, m_i)
                if lblock and yb.dim:
                    entries.append((p, c, l_i, m_i, lblock, yb, off))
                    off += len(lblock) * yb.dim
        if entries:
            layout[k] = entries
            dims[k] = off
    if not layout:
        return Complex(e_t, {}, {}, check=False)

    index = {
        k: {(e[0], e[1]): e for e in entries} for k, entries in layout.items()
    }

    # block coordinates of the right action of r on the e_m Y^q block
    def yrows(q, m_i, r):
        key = (q, m_i, r)
        if key not in yrows_cache:
            yb = yblock(q, m_i)
            ymat = yright(q, r)
            rows = []
            for v in yb.rows:
                cs = yb.coords(row_times(v, ymat))
                if cs is None:
                    raise AssertionError("right action escaped the block")
                rows.append(cs)
            yrows_cache[key] = rows
        return yrows_cache[key]

    def component_action(k):
        """Builder of the action matrix of basis element t of e_t on the
        degree-k component."""
        entries, total = layout[k], dims[k]

        def build(t):
            a_i, r_i = split_pair_basis(opposite(left), right, t)
            big = [[0] * total for _ in range(total)]
            for (p, c, l_i, m_i, lblock, yb, off) in entries:
                # left multiplication of basis a_i on L e_l, in block coords
                lrows = left.mul[a_i]
                lpos = {u: s for s, u in enumerate(lblock)}
                ydim = yb.dim
                yr_block = yrows(k - p, m_i, r_i)
                for s, u in enumerate(lblock):
                    for u2, cl in lrows[u]:
                        if u2 not in lpos:
                            continue
                        s2 = lpos[u2]
                        for vi in range(ydim):
                            src = off + s * ydim + vi
                            yr = yr_block[vi]
                            dst_base = off + s2 * ydim
                            row = big[src]
                            for vj, cy in enumerate(yr):
                                if cy:
                                    row[dst_base + vj] += cl * cy
            return Matrix(total, total, big)

        return build

    # components with their module structure over e_t; each action matrix
    # is built on first read
    components = {
        k: Module(e_t, dims[k], LazyActions(e_t.dim, dims[k], component_action(k)))
        for k in layout
    }

    # differentials
    diffs: dict[int, Matrix] = {}
    for k, entries in layout.items():
        if k + 1 not in layout:
            continue
        tgt = index[k + 1]
        rows_out = [[0] * dims[k + 1] for _ in range(dims[k])]
        for (p, c, l_i, m_i, lblock, yb, off) in entries:
            q = k - p
            ydim = yb.dim
            # (a) identity (x) d_Y with sign (-1)^p
            d_y = y.differentials.get(q)
            if d_y is not None and (p, c) in tgt:
                (_, _, _, _, lblock2, yb2, off2) = tgt[(p, c)]
                sgn = -1 if p % 2 else 1
                for vi, v in enumerate(yb.rows):
                    cs = yb2.coords(row_times(v, d_y))
                    if cs is None:
                        raise AssertionError("d_Y escaped the block")
                    for s in range(len(lblock)):
                        row = rows_out[off + s * ydim + vi]
                        dst_base = off2 + s * yb2.dim
                        for vj, cy in enumerate(cs):
                            if cy:
                                row[dst_base + vj] += sgn * cy
            # (b) d_X (x) identity
            blocks = x.block_elements(p)
            for (cc, c2), z in blocks.items():
                if cc != c or (p + 1, c2) not in tgt:
                    continue
                (_, _, l2, m2, lblock2, yb2, off2) = tgt[(p + 1, c2)]
                lpos2 = {u: s for s, u in enumerate(lblock2)}
                for g, coeff in enumerate(z):
                    if not coeff:
                        continue
                    g_l, g_m = split_pair_basis(opposite(left), middle, g)
                    ymove = yleft(q, g_m)
                    ycoords = []
                    for v in yb.rows:
                        cs = yb2.coords(row_times(v, ymove))
                        if cs is None:
                            raise AssertionError("d_X transport escaped the block")
                        ycoords.append(cs)
                    for s, u in enumerate(lblock):
                        for u2, cl in left.mul[u][g_l]:
                            if u2 not in lpos2:
                                continue
                            s2 = lpos2[u2]
                            dst_base = off2 + s2 * yb2.dim
                            cc2 = coeff * cl
                            for vi in range(ydim):
                                row = rows_out[off + s * ydim + vi]
                                for vj, cy in enumerate(ycoords[vi]):
                                    if cy:
                                        row[dst_base + vj] += cc2 * cy
        diffs[k] = Matrix(dims[k], dims[k + 1], rows_out)

    return Complex(e_t, components, diffs, check=check)


def tensor_class(x: PerfectComplex, y, left, middle, right) -> list:
    """Class of x (x)_middle y in the simple basis of
    tensor(opposite(left), right), computed from the classes of the factors
    without assembling the tensor complex.

    A copy (l, m) of x against Y^q is the block (L e_l) (x) (e_m Y^q), whose
    (i, j) idempotent image has dimension dim(e_i L e_l) * dim(e_m Y^q e_j);
    with signs, entry (i, j) is the sum over (l, m) of
    weights(x)_(l, m) * dim(e_i L e_l) * k0(y)_(m, j)."""
    from .derived import k0_class  # derived imports this module

    if x.algebra is not tensor(opposite(left), middle):
        raise ValueError("x is not perfect over tensor(op(left), middle)")
    ky = k0_class(y)
    if ky.algebra is not tensor(opposite(middle), right):
        raise ValueError("y does not live over tensor(op(middle), right)")
    op_l, op_m = opposite(left), opposite(middle)
    n_l = len(left.idempotents)
    n_r = len(right.idempotents)
    ldims = left.peirce_dims()
    out = [0] * (n_l * n_r)
    for idem, w in enumerate(x.euler_copy_weights()):
        if not w:
            continue
        l_i, m_i = split_pair_idempotent(op_l, middle, idem)
        for i in range(n_l):
            d = w * ldims[i][l_i]
            if not d:
                continue
            for j in range(n_r):
                out[join_pair_idempotent(op_l, right, i, j)] += d * ky.coords[
                    join_pair_idempotent(op_m, right, m_i, j)
                ]
    return out


# -- duals ------------------------------------------------------------------------


def dual_perfect(x: PerfectComplex, left: Algebra, right: Algebra) -> PerfectComplex:
    """Summandwise dual Hom(-, ring) of a perfect complex over
    tensor(op(left), right), as a perfect complex over tensor(op(right), left).

    Degrees are negated; each left-multiplication block is transported along
    the canonical anti-isomorphism of the two tensor algebras.  Applying the
    construction twice returns the original complex on the nose.  The dual
    is kept in x's cache under ("dual", left, right), and x in the dual's
    under ("dual", right, left), so D(D(x)) is x."""
    e_ab = tensor(opposite(left), right)
    if x.algebra is not e_ab:
        raise ValueError("x is not perfect over tensor(op(left), right)")
    d = x._cache.get(("dual", left, right))
    if d is None:
        d = x._cache[("dual", left, right)] = _dual(x, left, right)
        d._cache[("dual", right, left)] = x
    return d


def _dual(x: PerfectComplex, left: Algebra, right: Algebra) -> PerfectComplex:
    e_ba = tensor(opposite(right), left)
    if x.is_zero():
        return PerfectComplex(e_ba, {}, {}, check=False)
    perm = swap_permutation(left, right)

    def sigma_idem(r):
        i, j = split_pair_idempotent(opposite(left), right, r)
        return join_pair_idempotent(opposite(right), left, j, i)

    copies = {
        -n: tuple(sigma_idem(i) for i in cs) for n, cs in x.copies.items()
    }
    diffs: dict[int, Matrix] = {}
    for n in x.copies:
        blocks = x.block_elements(n)
        if not blocks:
            continue
        dual_blocks = {}
        for (c, c2), z in blocks.items():
            sz = [0] * e_ba.dim
            for g, coeff in enumerate(z):
                if coeff:
                    sz[perm[g]] = coeff
            dual_blocks[(c2, c)] = sz
        diffs[-n - 1] = assemble_block_matrix(
            e_ba, copies[-n - 1], copies[-n], dual_blocks
        )
    return PerfectComplex(e_ba, copies, diffs)
