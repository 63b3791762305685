"""Right modules over the algebras of this package.

A module is its dimension and its sparse right action, Module.row(s, j):
basis vector s times basis element j, as its nonzero (k, c) pairs.
Elements are row vectors and act on the right, so row s of the action
matrix of b_j is row(s, j), and act(x * y) = act(x) * act(y) as matrix
products.  Bimodules are right modules over tensor(opposite(A), B): the
pair (a^op, b) acts as "a on the left, b on the right", and only so: HH is
Hom from A^!, the dual of the diagonal resolution (hochschild.hochschild).

Each kind of module reads its rows its own way: a projective e_i A and the
diagonal bimodule from the structure constants, an injective D(A e_i) and
the dual bimodule by transposing them, a direct sum from its summands, and
a quotient or a module spec from a table of rows (table_module).
Everything that multiplies vectors (Module.times, act_matrix, quotients,
radicals, covers, and the second argument of homalg.hom_complex) reads
through row; a class reads Module.dims, which a projective, an injective
and a sum answer from the Peirce table.  A dense action matrix is
built only by Module.act_matrix: for Module.check, the module-map check of
a complex spec, the bar-complex oracle and the tests.  Module.times and
act_matrix take the algebra element as its nonzero (basis index,
coefficient) pairs, the form of a structure-constant product, of the
algebra's unit and of a block of a perfect complex; an idempotent g acts
as ((g, 1),).

A submodule is a RowBasis in the coordinates of the module it sits in, not
a Module of its own: module_radical and cover_data take one and multiply
its rows through Module.times, so the syzygies of a resolution stay
subspaces of their projectives.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial

from .algebra import (
    Algebra,
    cached,
    hom_algebra,
    join_pair_basis,
    product,
    swap_permutation,
)
from .linalg import Matrix, RowBasis, nonzero_pairs, norm_scalar


class Module:
    """A right module: its dimension and its sparse right action.

    row(s, j) is basis vector s times basis element j, as its nonzero (k, c)
    pairs, and dims() its dimension vector, the tuple of dim(M e_g) over
    algebra.idempotents g, by default read from the idempotents' rows.
    Both are the callables given here, kept as attributes."""

    __slots__ = ("algebra", "dim", "row", "dims")

    def __init__(self, algebra: Algebra, dim: int, row, dims=None):
        self.algebra = algebra
        self.dim = dim
        self.row = row
        self.dims = dims or partial(_row_dims, algebra, row, dim)

    def __repr__(self):
        return f"<Module dim={self.dim} over {self.algebra!r}>"

    def times(self, v, pairs):
        """The row vector v times the element sum c * b_k over the (k, c) in
        pairs, read through row."""
        out = [0] * self.dim
        for s, x in enumerate(v):
            if x:
                for k, c in pairs:
                    for t, y in self.row(s, k):
                        out[t] += x * c * y
        return out

    def act_matrix(self, pairs) -> Matrix:
        """Action matrix of the element sum c * b_k over (k, c) in pairs: the
        one place a dense action matrix is built."""
        n = self.dim
        return Matrix(n, n, [self.times(_unit(n, s), pairs) for s in range(n)])

    def check(self):
        """Full module axioms: unit acts as identity, action respects the
        structure constants on all basis pairs."""
        a = self.algebra
        if self.act_matrix(a.unit) != Matrix.identity(self.dim):
            raise ValueError("unit does not act as the identity")
        acts = [self.act_matrix(((j, 1),)) for j in range(a.dim)]
        for i in range(a.dim):
            for j in range(a.dim):
                if acts[i] * acts[j] != self.act_matrix(a.mul[i][j]):
                    raise ValueError(
                        f"action incompatible with product of basis {i},{j}"
                    )
        return True


def _row_dims(a: Algebra, row, dim):
    """dim(M e_g) for each idempotent g: the trace of its action, summed from
    the diagonal entries of its rows; ValueError if one is not an integer."""
    diag = (sum(c for s in range(dim) for k, c in row(s, g) if k == s) for g in a.idempotents)
    dims = tuple(map(norm_scalar, diag))
    if not all(isinstance(t, int) for t in dims):
        raise ValueError("idempotent action has non-integral trace")
    return dims


def _unit(n, s):
    v = [0] * n
    v[s] = 1
    return v


def table_module(a: Algebra, dim: int, table) -> Module:
    """The module whose row(s, j) is table[j][s]."""
    return Module(a, dim, lambda s, j: table[j][s])


@cached
def projective_module(a: Algebra, i: int) -> Module:
    """The module e_i A.  Its basis is a.projective_basis(i), the basis
    monomials with left idempotent i, and the action is the restriction of
    right multiplication: its rows are read from the structure constants,
    its dimension vector from row i of the Peirce table."""
    basis = a.projective_basis(i)
    pos = {t: r for r, t in enumerate(basis)}

    def row(s, j):
        return tuple((pos[k], c) for k, c in a.mul[basis[s]][j])

    return Module(a, len(basis), row, lambda: tuple(a.peirce_dims()[i]))


@cached
def injective_module(a: Algebra, i: int) -> Module:
    """D(A e_i), the linear dual of A e_i, in the basis dual to
    a.coprojective_basis(i): (phi b_j)(x) = phi(b_j x), so row u of b_j
    holds, at each position r of that basis, the coefficient of its u-th
    element in b_j times its r-th.  D(A e_i) e_g is D(e_g A e_i), so the
    dimension vector is a.coprojective_dims(i)."""
    basis = a.coprojective_basis(i)

    def row(s, j):
        u = basis[s]
        return tuple((r, c) for r, t in enumerate(basis) for k, c in a.mul[j][t] if k == u)

    return Module(a, len(basis), row, lambda: a.coprojective_dims(i))


def direct_sum_modules(a: Algebra, mods) -> Module:
    """The direct sum of mods, each summand after the ones before it; no
    summands give the zero module.  Row s of the sum is the summand's row,
    moved to the summand's offset, and the dimension vector is the sum of
    the summands'."""
    offsets = []
    total = 0
    for m in mods:
        offsets.append(total)
        total += m.dim

    def dims():
        return tuple(map(sum, zip((0,) * len(a.idempotents), *(m.dims() for m in mods))))

    def row(s, j):
        i = bisect_right(offsets, s) - 1
        o = offsets[i]
        return tuple((k + o, c) for k, c in mods[i].row(s - o, j))

    return Module(a, total, row, dims)


def quotient_module(m: Module, sub: RowBasis) -> Module:
    """The quotient of m by an action-closed subspace.  Its coordinates are
    the non-pivot positions of the subspace's echelon form: a vector of m
    projects to the entries of sub.reduce(v) at those positions."""
    free = [c for c in range(m.dim) if c not in set(sub.pivots)]
    table = []
    for j in range(m.algebra.dim):
        rows = []
        for c in free:
            red = sub.reduce(m.times(_unit(m.dim, c), ((j, 1),)))
            rows.append(nonzero_pairs(red[x] for x in free))
        table.append(rows)
    return table_module(m.algebra, len(free), table)


def module_radical(m: Module, sub: RowBasis) -> RowBasis:
    """The subspace N * rad(A) of the submodule N of m spanned by sub, in m's
    coordinates: the span of the products of sub's rows with the radical
    generators, each checked to lie in N (ValueError otherwise).

    Over a tensor algebra L (x) R, rad = rad L (x) R + L (x) rad R (in
    characteristic zero the tensor product of the tops is semisimple), and
    rad L (x) 1 commutes with 1 (x) R, so N * rad is the span of
    N * (g (x) 1) and N * (1 (x) h) for the rows g of rad L and h of rad R:
    the Kuenneth pattern of derived.simple_resolutions, with g (x) 1 the
    pairs of g against those of R's unit.  The trace form of the product
    itself is never computed."""
    a = m.algebra
    factors = a.meta.get("factors")
    if factors is None:
        gens = [nonzero_pairs(g) for g in a.radical().rows]
    else:
        left, right = factors
        gens = [
            [(join_pair_basis(right, i, j), x) for i, x in enumerate(g) if x for j, _ in right.unit]
            for g in left.radical().rows
        ]
        gens += [
            [(join_pair_basis(right, i, j), y) for i, _ in left.unit for j, y in enumerate(h) if y]
            for h in right.radical().rows
        ]
    rb = RowBasis(m.dim)
    for pairs in gens:
        for r in sub.rows:
            rb.add(_product_in_span(m, sub, r, pairs))
    return rb


def _product_in_span(m: Module, sub: RowBasis, r, pairs):
    """The row r of sub times the element sum c * b_k over pairs, which must
    lie in the span of sub."""
    v = m.times(r, pairs)
    if not sub.contains(v):
        raise ValueError("span is not action-closed")
    return v


@cached
def simple_modules(a: Algebra):
    """One simple right module per idempotent: S_i = top of e_i A."""
    ms = []
    for i in range(len(a.idempotents)):
        p = projective_module(a, i)
        ms.append(quotient_module(p, module_radical(p, RowBasis.full(p.dim))))
    return ms


def cover_data(m: Module, sub: RowBasis):
    """Projective cover of the submodule N of m spanned by sub; a whole
    module is the span of its unit vectors, RowBasis.full(m.dim).

    Returns (copies, gens, cover), all in m's coordinates: copies is the
    list of idempotent indices of the cover's indecomposable summands, gens
    the corresponding generator images in N (each lying in N e_i), and cover
    the matrix of the surjection onto N, one block of rows per summand
    indexed by the monomial basis of e_i A.  Generators are found
    deterministically: the products r * e_i of the rows r of sub are scanned
    in order and kept when they are new modulo the radical and the lifts
    already chosen.

    The idempotents and the radical generate A (every algebra of the
    package is basic, with primitive idempotents), so the products with
    them, which the cover computes anyway, check that N is a submodule:
    ValueError("span is not action-closed") if one leaves N."""
    a = m.algebra
    w = module_radical(m, sub)
    copies = []
    gens = []
    for i, g in enumerate(a.idempotents):
        for r in sub.rows:
            v = _product_in_span(m, sub, r, ((g, 1),))
            if w.add(v):
                copies.append(i)
                gens.append(v)
    rows = [m.times(v, ((t, 1),)) for i, v in zip(copies, gens) for t in a.projective_basis(i)]
    cover = Matrix(len(rows), m.dim, rows)
    if cover.rank() != sub.dim:
        raise ValueError("projective cover is not surjective")
    return copies, gens, cover


# -- bimodules ----------------------------------------------------------------


@cached
def diagonal_bimodule(a: Algebra) -> Module:
    """A as an A-A-bimodule, i.e. a right module over tensor(op(A), A):
    the pair (x^op, y) sends m to x m y.

    Row s of the pair (b_i^op, b_j) is b_i b_s b_j, read from the structure
    constants."""

    def row(s, t):
        i, j = divmod(t, a.dim)
        return product(a.mul, a.mul[i][s], ((j, 1),))

    return Module(hom_algebra(a, a), a.dim, row)


@cached
def dual_bimodule(a: Algebra) -> Module:
    """The linear dual D(A) as an A-A-bimodule: (x phi y)(c) = phi(y c x).

    In dual-basis coordinates the pair (b_i^op, b_j) acts by the transpose
    of L_j R_i, the diagonal bimodule's action at the swapped pair
    (b_j^op, b_i): row u holds the coefficient of b_u in row s of that
    action, at each s, and the dimension vector is the diagonal bimodule's
    at the swapped idempotent pairs.  At runtime only
    `hochschild` with dual coefficients calls it; derived.serre builds S(M)
    from the copies of M instead, and the tests use M (x)_A D(A) as its
    oracle."""
    diag = diagonal_bimodule(a)
    perm = swap_permutation(a, a)
    n = len(a.idempotents)

    def row(u, t):
        return tuple((s, c) for s in range(a.dim) for k, c in diag.row(s, perm[t]) if k == u)

    def dims():
        d = diag.dims()
        return sum((d[i::n] for i in range(n)), ())

    return Module(diag.algebra, a.dim, row, dims)
