"""The balanced tensor product x (x)_middle y of a perfect complex and a
bounded complex, kept as a test-side reference.

The package computes Hom_A(M, N) from the copies of M and the right action
of N (homalg.hom_complex) and never builds a tensor complex.  tensor_over
is the general three-algebra product it once computed that Hom complex
through, as M^v (x)_A N for the summandwise dual M^v = Hom_A(M, A)
(homalg.dual_perfect) over left = right = Q: the oracle of hom_complex, of
the composites of correspondence_reference.compose, of the Serre transform
(M (x)_A D(A)) and of the tensor route to Hochschild homology
(hochschild_reference).

Tensor totalization: d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy.  The
maps of y -- the actions of middle and right basis elements and d_Y, in the
block coordinates of the e_m Y^q -- and the dimensions of the blocks do not
depend on x, so they are memos on y (_ymove, the block bases _yblock it
builds, and _ydim), keyed by (middle, right, ...).
"""

from bisect import bisect_right
from functools import partial

from ncmotives.algebra import (
    Algebra,
    cached,
    hom_algebra,
    join_pair_basis,
    join_pair_idempotent,
    split_pair_idempotent,
)
from ncmotives.complexes import Complex, PerfectComplex, as_complex
from ncmotives.linalg import Matrix, RowBasis, nonzero_pairs, row_times
from ncmotives.modules import Module


def split_pair_basis(right: Algebra, t: int):
    """Decompose a basis index of tensor(left, right) into factor indices;
    the pair indexing depends on the right factor alone."""
    return divmod(t, right.dim)



def tensor_over(x: PerfectComplex, y, left: Algebra, middle: Algebra, right: Algebra) -> Complex:
    """Total complex of x (x)_middle y.

    x must be a perfect complex over tensor(opposite(left), middle) -- its
    components are then projective as right middle-modules, so the result
    computes the derived tensor product.  y is any bounded complex of
    modules over tensor(opposite(middle), right).  The output is a complex
    of modules over tensor(opposite(left), right) whose degree-k component
    is the direct sum over p+q = k and copies (l, m) of

        (L e_l) (x) (e_m . Y^q).

    Every map here -- the action of a basis element of
    tensor(opposite(left), right), 1 (x) d_Y and d_X (x) 1 -- is a sum of
    (multiplication on L e_l) (x) (map of y in block coordinates): the
    differentials are added by one writer, kron, and checked for d^2 = 0,
    and the action of a component is read a row at a time (Module.row).
    The maps of y (_ymove: a side action or d_Y) are memos on y keyed by
    (middle, right, ...), so every left factor y meets shares them (a
    module y is wrapped afresh on each call).  They are read through
    Module.row of y's components, in sparse rows, so no dense action
    matrix of y is built; dim e_m Y^q is read from the dimension vector
    of Y^q (_ydim).
    """
    y = as_complex(y)
    e_x = hom_algebra(left, middle)
    e_y = hom_algebra(middle, right)
    e_t = hom_algebra(left, right)
    if not isinstance(x, PerfectComplex):
        raise ValueError(
            "the left tensor factor must be a perfect complex "
            "(any bounded complex may be the right factor)"
        )
    if x.algebra is not e_x:
        raise ValueError("x is not perfect over tensor(op(left), middle)")
    if y.algebra is not e_y:
        raise ValueError("y does not live over tensor(op(middle), right)")
    if x.is_zero() or y.is_zero():
        return Complex(e_t, {}, {}, check=False)

    ymove = partial(_ymove, y, middle, right)

    # block layout per total degree: (p, copy, m, lblock, ydim, offset)
    layout: dict[int, list] = {}
    dims: dict[int, int] = {}
    for k in sorted({p + q for p in x.components for q in y.components}):
        entries = []
        off = 0
        for p in sorted(x.components):
            q = k - p
            if q not in y.components:
                continue
            for c, idem in enumerate(x.copies_at(p)):
                l_i, m_i = split_pair_idempotent(middle, idem)
                lblock = left.coprojective_basis(l_i)
                ydim = _ydim(y, right, q, m_i)
                if lblock and ydim:
                    entries.append((p, c, m_i, lblock, ydim, off))
                    off += len(lblock) * ydim
        if entries:
            layout[k] = entries
            dims[k] = off
    if not layout:
        return Complex(e_t, {}, {}, check=False)

    def kron(out, src, dst, lpairs, ymat):
        """Add L (x) ymat to out, from the layout entry src to dst: L sends
        position s of src's L e_l block to c * u2 over (s, u2, c) in lpairs
        (u2 outside dst's block contributes nothing); ymat is a ymove."""
        (_, _, _, _, ydim, off), (_, _, _, lblock2, ydim2, off2) = src, dst
        pos = {u: s2 for s2, u in enumerate(lblock2)}
        for s, u2, c in lpairs:
            if u2 not in pos:
                continue
            dst_base = off2 + pos[u2] * ydim2
            for vi, yr in enumerate(ymat):
                row = out[off + s * ydim + vi]
                for vj, cy in yr:
                    row[dst_base + vj] += c * cy

    def row(k, s, t):
        """Row s of the action of basis element t of e_t on the degree-k
        component: left multiplication by its left part on the L e_l
        position of s, (x) the row of the action of its right part on y."""
        i = bisect_right([e[5] for e in layout[k]], s) - 1
        p, _, m, lblock, ydim, off = layout[k][i]
        a_i, r_i = split_pair_basis(right, t)
        x, vi = divmod(s - off, ydim)
        pos = {u: s2 for s2, u in enumerate(lblock)}
        yrow = ymove(k - p, m, k - p, m, (None, r_i))[vi]
        return tuple(
            (off + pos[u2] * ydim + vj, cl * cy)
            for u2, cl in left.mul[a_i][lblock[x]]
            if u2 in pos
            for vj, cy in yrow
        )

    def differential(k):
        """The matrix of d^k, from degree k to k + 1."""
        tgt = {(e[0], e[1]): e for e in layout[k + 1]}
        out = [[0] * dims[k + 1] for _ in range(dims[k])]
        for e in layout[k]:
            p, c, m, lblock, _, _ = e
            q = k - p
            # 1 (x) d_Y with sign (-1)^p
            if q in y.differentials and (p, c) in tgt:
                lid = ((s, u, -1 if p % 2 else 1) for s, u in enumerate(lblock))
                kron(out, e, tgt[(p, c)], lid, ymove(q, m, q + 1, m, None))
            # d_X (x) 1: each basis element g of a block of d_X multiplies
            # L e_l by its left part and moves y by its middle part
            for (cc, c2), z in x.block_elements(p).items():
                if cc != c or (p + 1, c2) not in tgt:
                    continue
                e2 = tgt[(p + 1, c2)]
                for g, coeff in z:
                    g_l, g_m = split_pair_basis(middle, g)
                    lmul = (
                        (s, u2, coeff * cl)
                        for s, u in enumerate(lblock)
                        for u2, cl in left.mul[u][g_l]
                    )
                    kron(out, e, e2, lmul, ymove(q, m, q, e2[2], (g_m, None)))
        return Matrix(dims[k], dims[k + 1], out)

    components = {k: Module(e_t, dims[k], partial(row, k)) for k in layout}
    return Complex(e_t, components, {k: differential(k) for k in layout if k + 1 in layout})


# -- the maps of y that tensor_over reads, memos on y --------------------------------


def _yelement(middle: Algebra, right: Algebra, g_m, r):
    """The element g_m (x) r of tensor(opposite(middle), right) as (basis
    index, coefficient) pairs; None stands for the unit."""
    gs = middle.unit if g_m is None else [(g_m, 1)]
    rs = right.unit if r is None else [(r, 1)]
    return [(join_pair_basis(right, i, j), u * v) for i, u in gs for j, v in rs]


@cached
def _yblock(y: Complex, middle: Algebra, right: Algebra, q, m) -> RowBasis:
    """The block e_m Y^q: the span of the rows of g_m (x) 1 on Y^q."""
    yq = y.components[q]
    pairs = _yelement(middle, right, middle.idempotents[m], None)
    rb = RowBasis(yq.dim)
    for s in range(yq.dim):
        unit = [0] * yq.dim
        unit[s] = 1
        rb.add(yq.times(unit, pairs))
    return rb


@cached
def _ymove(y: Complex, middle: Algebra, right: Algebra, q, m, q2, m2, act):
    """Sparse rows, as (position, coefficient) pairs, of a map of y in
    block coordinates, e_m Y^q -> e_m2 Y^q2: the action of
    _yelement(middle, right, *act) (q2 = q), or d_Y^q (q2 = q + 1) if act
    is None."""
    dst = _yblock(y, middle, right, q2, m2)
    src = _yblock(y, middle, right, q, m).rows
    if act is None:
        images = (row_times(v, y.differentials[q]) for v in src)
    else:
        pairs = _yelement(middle, right, *act)
        images = (y.components[q].times(v, pairs) for v in src)
    rows = [dst.coords(w) for w in images]
    if None in rows:
        raise AssertionError("a map of y escaped its block")
    return [nonzero_pairs(r) for r in rows]


@cached
def _ydim(y: Complex, right: Algebra, q, m):
    """dim e_m Y^q: the sum of the dimensions of Y^q at the idempotent
    pairs (m, h) of tensor(op(middle), right), read from Module.dims."""
    d = y.components[q].dims()
    return sum(d[join_pair_idempotent(right, m, h)] for h in range(len(right.idempotents)))

