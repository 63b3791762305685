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
  tensor_over lays out the blocks of the total complex at once, and builds
  each differential and each component action matrix on first read.  A
  class reads neither: the trace of an action is read from the layout, a
  product of a trace on L e_l and a trace on e_m Y^q per block.  Each map
  it builds is a sum of
  (multiplication on L e_l) (x) (a map of y between blocks e_m Y^q), written
  by one kernel.  The maps of y -- the actions of middle and right basis
  elements and d_Y, in the block coordinates of the e_m Y^q -- do not
  depend on x, so they are memos on y (_yblock, _ymove, _ytrace), keyed
  by (middle, right, ...), whether y is perfect or not: the n left factors
  D(x_i) that meet one simple resolution y in the trace formula compute
  them once.  They are read sparse: the blocks and actions of y through
  the sparse right action of its components (modules.Module.row), which a
  sum of projectives answers from the structure constants, and the traces
  through Module.trace; no dense action matrix of y is built.  The class of
  x (x)_middle y alone needs no layout: derived.compose_classes reads it
  from the classes of x and y through the Euler matrix of middle.
* dual_perfect applies Hom(-, ring) summandwise, negating degrees,
  transporting each left-multiplication block z to its image under the
  canonical anti-isomorphism tensor(op(A), B) -> tensor(op(B), A); it is a
  strict involution on perfect complexes.  The dual is a memo on the
  complex, so hom_complex, serre and dualize share one dual per complex
  and pair of algebras; the dual points back at the complex only weakly
  (PerfectComplex.dual_of), so the pair is no reference cycle and is freed
  by reference counting alone.
"""

from __future__ import annotations

import weakref
from functools import partial

from .algebra import (
    Algebra,
    cached,
    hom_algebra,
    join_pair_basis,
    join_pair_idempotent,
    opposite,
    scalar_algebra,
    split_pair_basis,
    split_pair_idempotent,
    swap_permutation,
)
from .complexes import (
    Complex,
    LazyDifferentials,
    PerfectComplex,
    as_complex,
)
from .linalg import Matrix, RowBasis, norm_scalar, row_times
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

    Every map written here -- the action of a basis element of
    tensor(opposite(left), right), 1 (x) d_Y and d_X (x) 1 -- is a sum of
    (multiplication on L e_l) (x) (map of y in block coordinates), added by
    one writer, kron.  The maps of y (_ymove: a side action or d_Y) are
    memos on y keyed by (middle, right, ...), so every left factor y meets
    shares them (a module y is wrapped afresh on each call).  They are read
    through Module.row of y's components, in sparse rows, so no dense
    action matrix of y is built.  Only the layout is built here.  Each
    differential is built on first read and kept
    (complexes.LazyDifferentials), or at once when check is true, for the
    d^2 check.  Each component's action matrix is built on first read
    and kept (modules.LazyActions); its trace is read from the layout
    without building it: on the block (L e_l) (x) (e_m Y^q), the basis
    element (a^op, r) has trace tr(a on L e_l) * tr(r on e_m Y^q); the
    first factor is left.coprojective_traces(l)[a], the second is
    Module.trace of g_m (x) r on Y^q (_ytrace).  So a reader of the
    Grothendieck class builds no matrix of the output, and no matrix of y.
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

    # block layout per total degree: (p, copy, m, ltraces, lblock, yb, offset),
    # with ltraces the traces of left multiplication on L e_l
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
                yb = _yblock(y, middle, right, q, m_i)
                if lblock and yb.dim:
                    entries.append((p, c, m_i, left.coprojective_traces(l_i), lblock, yb, off))
                    off += len(lblock) * yb.dim
        if entries:
            layout[k] = entries
            dims[k] = off
    if not layout:
        return Complex(e_t, {}, {}, check=False)

    def kron(out, src, dst, lpairs, ymat):
        """Add L (x) ymat to out, from the layout entry src to dst: L sends
        position s of src's L e_l block to c * u2 over (s, u2, c) in lpairs
        (u2 outside dst's block contributes nothing); ymat is a ymove."""
        (_, _, _, _, _, yb, off), (_, _, _, _, lblock2, yb2, off2) = src, dst
        pos = {u: s2 for s2, u in enumerate(lblock2)}
        for s, u2, c in lpairs:
            if u2 not in pos:
                continue
            dst_base = off2 + pos[u2] * yb2.dim
            for vi, yr in enumerate(ymat):
                row = out[off + s * yb.dim + vi]
                for vj, cy in yr:
                    row[dst_base + vj] += c * cy

    def action(k, t):
        """Action matrix of basis element t of e_t on the degree-k component:
        left multiplication by its left part (x) the action of its right."""
        a_i, r_i = split_pair_basis(right, t)
        big = [[0] * dims[k] for _ in range(dims[k])]
        for e in layout[k]:
            p, _, m, _, lblock, _, _ = e
            lmul = ((s, u2, cl) for s, u in enumerate(lblock) for u2, cl in left.mul[a_i][u])
            kron(big, e, e, lmul, ymove(k - p, m, k - p, m, (None, r_i)))
        return Matrix(dims[k], dims[k], big)

    def action_trace(k, t):
        """Trace of action(k, t) read from the layout: on each block, the
        trace of left multiplication by t's left part on L e_l times the
        trace of the action of its right part on e_m Y^q."""
        a_i, r_i = split_pair_basis(right, t)
        total = 0
        for p, _, m, ltraces, _, _, _ in layout[k]:
            tl = ltraces[a_i]
            if tl:
                total += tl * _ytrace(y, middle, right, k - p, m, r_i)
        return norm_scalar(total)

    def differential(k):
        """The matrix of d^k, from degree k to k + 1."""
        tgt = {(e[0], e[1]): e for e in layout[k + 1]}
        out = [[0] * dims[k + 1] for _ in range(dims[k])]
        for e in layout[k]:
            p, c, m, _, lblock, _, _ = e
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

    components = {}
    for k in layout:
        acts = LazyActions(e_t.dim, dims[k], partial(action, k), partial(action_trace, k))
        components[k] = Module(e_t, dims[k], acts)
    diffs = LazyDifferentials([k for k in layout if k + 1 in layout], differential)
    return Complex(e_t, components, diffs, check=check)


# -- the maps of y that tensor_over reads, memos on y --------------------------------


def _yelement(middle: Algebra, right: Algebra, g_m, r):
    """The element g_m (x) r of tensor(opposite(middle), right) as (basis
    index, coefficient) pairs; None stands for the unit."""
    gs = enumerate(middle.unit) if g_m is None else [(g_m, 1)]
    rs = list(enumerate(right.unit)) if r is None else [(r, 1)]
    return [(join_pair_basis(right, i, j), u * v) for i, u in gs for j, v in rs if u * v]


@cached
def _yblock(y: Complex, middle: Algebra, right: Algebra, q, m) -> RowBasis:
    """The block e_m Y^q: the span of the rows of g_m (x) 1 on Y^q."""
    yq = y.component(q)
    pairs = _yelement(middle, right, middle.idempotent_basis_indices()[m], None)
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
        images = (y.component(q).times(v, pairs) for v in src)
    rows = [dst.coords(w) for w in images]
    if None in rows:
        raise AssertionError("a map of y escaped its block")
    return [[(j, c) for j, c in enumerate(r) if c] for r in rows]


@cached
def _ytrace(y: Complex, middle: Algebra, right: Algebra, q, m, r):
    """Trace of basis element r of right on e_m Y^q: the trace of
    g_m (x) r on Y^q, since g_m (x) 1 is an idempotent commuting with
    1 (x) r whose image is the block."""
    g = join_pair_basis(right, middle.idempotent_basis_indices()[m], r)
    return y.component(q).trace(g)


# -- duals ------------------------------------------------------------------------


def dual_perfect(x: PerfectComplex, left: Algebra, right: Algebra) -> PerfectComplex:
    """Summandwise dual Hom(-, ring) of a perfect complex over
    tensor(op(left), right), as a perfect complex over tensor(op(right), left).

    Degrees are negated; each left-multiplication block is transported along
    the canonical anti-isomorphism of the two tensor algebras.  Applying the
    construction twice returns the original complex on the nose.  The dual
    is a memo on x, and it keeps a weak reference to x in dual_of, so
    D(D(x)) is x while x lives, and dropping x frees both without the cycle
    collector."""
    if x.algebra is not hom_algebra(left, right):
        raise ValueError("x is not perfect over tensor(op(left), right)")
    if x.dual_of is not None and x.dual_of[:2] == (left, right):
        origin = x.dual_of[2]()
        if origin is not None:
            return origin
    return _dual(x, left, right)


@cached
def _dual(x: PerfectComplex, left: Algebra, right: Algebra) -> PerfectComplex:
    e_ba = hom_algebra(right, left)
    perm = swap_permutation(left, right)

    def sigma_idem(r):
        i, j = split_pair_idempotent(right, r)
        return join_pair_idempotent(left, j, i)

    copies = {
        -n: tuple(sigma_idem(i) for i in cs) for n, cs in x.copies.items()
    }
    blocks = {}
    for n in x.copies:
        blocks[-n - 1] = {
            (c2, c): [(perm[g], coeff) for g, coeff in z]
            for (c, c2), z in x.block_elements(n).items()
        }
    d = PerfectComplex(e_ba, copies, blocks)
    d.dual_of = (right, left, weakref.ref(x))
    return d
