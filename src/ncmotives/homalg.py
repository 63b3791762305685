"""Hom complexes and duals of perfect complexes.

Everything here leans on one structural fact about the supported algebras:
a perfect complex has components (+) e A for distinguished idempotents e,
and Hom_A(e_i A, N) = N e_i, so derived Hom is finite block bookkeeping on
the copies of its first argument instead of large commutant solves.
Conventions:

* Hom complex: Hom^k = (+)_p Hom(M^p, N^{p+k}), one block N^{p+k} e_i per
  copy e_i A of M^p.  Its differential is (-1)^p d_N on each block plus
  precomposition with d_M: a block of d_M from copy c' of M^{p-1} to copy
  c of M^p is left multiplication by some z in e_i A e_i', and it sends
  f in N^q e_i on copy c to f z in N^q e_i' on copy c'.  This differs from
  (df) = d_N f - (-1)^k f d_M only by signs on components, so the
  cohomology is the same: degree k computes morphisms M -> shift(N, -k)
  (N moved k degrees down) in the derived category; alternating sums of
  these dimensions form the Euler pairing.  N is read through the sparse
  right action (modules.Module.row) and the dimension vectors (Module.dims)
  of its components; no dense action matrix of N is built.
* dual_perfect applies Hom(-, ring) summandwise, negating degrees,
  transporting each left-multiplication block z to its image under the
  canonical anti-isomorphism tensor(op(A), B) -> tensor(op(B), A); applied
  twice it gives back the copies and blocks it started from.  The dual is
  a memo on the complex, so serre, dualize and the A^! of hochschild share
  one dual per complex and pair of algebras.  It holds nothing of the
  complex, so the two are no reference cycle and are freed by reference
  counting alone.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    cached,
    hom_algebra,
    join_pair_idempotent,
    scalar_algebra,
    split_pair_idempotent,
    swap_permutation,
)
from .complexes import Complex, PerfectComplex, as_complex
from .linalg import Matrix, RowBasis, row_times
from .modules import Module


def hom_complex(m: PerfectComplex, n) -> Complex:
    """Total Hom complex of a perfect complex into a complex over the same
    algebra, as a complex of plain vector spaces.

    Degree k is the direct sum, over p in decreasing order and then the
    copies e_i A of M^p, of the blocks N^{p+k} e_i, each in the coordinates
    of the echelon basis of its span in N^{p+k}; the differential is the
    one of the module docstring.  The block bases are memos of this call."""
    if not isinstance(m, PerfectComplex):
        raise ValueError("the first argument of hom_complex must be a perfect complex")
    n = as_complex(n)
    a = m.algebra
    if n.algebra is not a:
        raise ValueError("hom_complex arguments live over different algebras")
    bases: dict = {}

    def block(q, i) -> RowBasis:
        """The block N^q e_i: the span of the unit vectors of N^q times e_i."""
        if (q, i) not in bases:
            nq = n.components[q]
            e = ((a.idempotents[i], 1),)
            unit = [0] * nq.dim
            rb = bases[(q, i)] = RowBasis(nq.dim)
            for s in range(nq.dim):
                unit[s] = 1
                rb.add(nq.times(unit, e))
                unit[s] = 0
        return bases[(q, i)]

    def move(q, i, q2, i2, z):
        """Rows, in the coordinates of the block N^q2 e_i2, of the images of
        the basis of N^q e_i: under d_N^q if z is None, else times z."""
        src = block(q, i).rows
        if z is None:
            images = (row_times(v, n.differentials[q]) for v in src)
        else:
            images = (n.components[q].times(v, z) for v in src)
        rows = [block(q2, i2).coords(w) for w in images]
        if None in rows:
            raise AssertionError("a map of N escaped its block")
        return rows

    # per degree k: (p, copy, idempotent, block dim, offset)
    layout: dict[int, list] = {}
    dims: dict[int, int] = {}
    n_dims = {q: nq.dims() for q, nq in n.components.items()}
    for p in sorted(m.copies, reverse=True):
        for c, i in enumerate(m.copies[p]):
            for q, dq in n_dims.items():
                dim = dq[i]
                if dim:
                    k = q - p
                    layout.setdefault(k, []).append((p, c, i, dim, dims.get(k, 0)))
                    dims[k] = dims.get(k, 0) + dim

    def differential(k):
        """The matrix of d^k, from degree k to k + 1."""
        out = [[0] * dims[k + 1] for _ in range(dims[k])]
        tgt = {(p, c): (i, off) for p, c, i, _, off in layout[k + 1]}

        def add(off, off2, rows, sign):
            for r, cs in enumerate(rows):
                row = out[off + r]
                for j, x in enumerate(cs):
                    if x:
                        row[off2 + j] += sign * x

        for p, c, i, _, off in layout[k]:
            q = p + k
            if q in n.differentials and (p, c) in tgt:
                add(off, tgt[(p, c)][1], move(q, i, q + 1, i, None), -1 if p % 2 else 1)
            for (c2, c3), z in m.block_elements(p - 1).items():
                if c3 == c and (p - 1, c2) in tgt:
                    i2, off2 = tgt[(p - 1, c2)]
                    add(off, off2, move(q, i, q, i2, z), 1)
        return Matrix(dims[k], dims[k + 1], out)

    q_alg = scalar_algebra()
    components = {k: Module(q_alg, dim, lambda s, j: ((s, 1),)) for k, dim in dims.items()}
    return Complex(q_alg, components, {k: differential(k) for k in layout if k + 1 in layout})


@cached
def dual_perfect(x: PerfectComplex, left: Algebra, right: Algebra) -> PerfectComplex:
    """Summandwise dual Hom(-, ring) of a perfect complex over
    tensor(op(left), right), as a perfect complex over tensor(op(right), left).

    Degrees are negated; each left-multiplication block is transported along
    the canonical anti-isomorphism of the two tensor algebras, so applying
    the construction twice gives back the copies and blocks of x.  The dual
    is a memo on x and refers to nothing of x."""
    if x.algebra is not hom_algebra(left, right):
        raise ValueError("x is not perfect over tensor(op(left), right)")
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
    return PerfectComplex(hom_algebra(right, left), copies, blocks)
