"""Right modules over the algebras of this package.

A module of dimension d has one d x d action matrix per algebra basis
element, in a sequence indexed by basis element: a list, or LazyActions,
which builds each matrix on first read.  Elements are row vectors and act on
the right:

    row(m * b_j) = row(m) * action[j]

so action(x * y) = action(x) * action(y) as matrix products.  Bimodules are
right modules over tensor(opposite(A), B): the pair (a^op, b) acts as
"a on the left, b on the right".

Beside the dense builder, every module has one sparse right action on a
basis vector, Module.row(s, j): row s of action[j] as its nonzero (k, c)
pairs.  A projective e_i A reads it from the structure constants, a direct
sum from its summands, and any other module from a row of its matrix.
Everything that multiplies vectors (Module.times, act_matrix, quotients,
radicals, covers, and the y side of homalg.tensor_over) reads through it,
so a sum of projectives never builds an action matrix; the dense matrices
stay for Module.check, iteration and the tests.  Module.times takes the
algebra element as its nonzero (basis index, coefficient) pairs, the form
of a structure-constant product and of a block of a perfect complex.

A submodule is a RowBasis in the coordinates of the module it sits in, not
a Module of its own: module_radical and cover_data take one and multiply
its rows through Module.times, so the syzygies of a resolution stay
subspaces of their projectives.
"""

from __future__ import annotations

from bisect import bisect_right

from .algebra import Algebra, cached, hom_algebra, opposite, swap_permutation
from .linalg import Matrix, RowBasis, norm_scalar


class LazyActions:
    """Action matrices built on first read by build(j) and kept, for modules
    whose readers need only a few of them (a class reads the idempotent
    actions alone).  trace(j), if given, gives the trace of action j without
    building it, and row(s, j) its row s (see Module.row).  Iteration and
    comparison build every matrix."""

    __slots__ = ("dim", "_build", "_trace", "_row", "_mats")

    def __init__(self, count: int, dim: int, build, trace=None, row=None):
        self.dim = dim
        self._build = build
        self._trace = trace
        self._row = row
        self._mats = [None] * count

    def __len__(self):
        return len(self._mats)

    def __getitem__(self, j) -> Matrix:
        j = range(len(self._mats))[j]
        m = self._mats[j]
        if m is None:
            m = self._build(j)
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix has wrong shape")
            self._mats[j] = m
        return m

    def trace(self, j):
        """Trace of action j: from the trace function while the matrix is
        unbuilt, else from the matrix."""
        if self._mats[j] is None and self._trace is not None:
            return self._trace(j)
        return self[j].trace()

    def __iter__(self):
        return (self[j] for j in range(len(self._mats)))

    def __eq__(self, other):
        return list(self) == list(other)


class Module:
    """A right module: action[j] is the matrix of basis element j.  action
    is a sequence indexed by basis element; a LazyActions fills it on
    demand, and the shape check here leaves it unbuilt."""

    __slots__ = ("algebra", "dim", "action")

    def __init__(self, algebra: Algebra, dim: int, action):
        self.algebra = algebra
        self.dim = dim
        if isinstance(action, LazyActions):
            if action.dim != dim:
                raise ValueError("action matrix has wrong shape")
        else:
            action = list(action)
            for m in action:
                if m.rows != dim or m.cols != dim:
                    raise ValueError("action matrix has wrong shape")
        self.action = action
        if len(action) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")

    def __repr__(self):
        return f"<Module dim={self.dim} over {self.algebra!r}>"

    def trace(self, j):
        """Trace of the action of basis element j, built only where a lazy
        action has no trace function."""
        acts = self.action
        return acts.trace(j) if isinstance(acts, LazyActions) else acts[j].trace()

    def row(self, s, j):
        """The sparse right action: basis vector s times basis element j, as
        the nonzero (k, c) pairs of row s of action[j], from a lazy action's
        row function if it has one, else from the matrix."""
        acts = self.action
        if isinstance(acts, LazyActions) and acts._row is not None:
            return acts._row(s, j)
        return tuple((k, c) for k, c in enumerate(acts[j].data[s]) if c)

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

    def act_matrix(self, coeffs) -> Matrix:
        """Action matrix of the algebra element with the given coordinates."""
        return self._act_pairs([(k, c) for k, c in enumerate(coeffs) if c])

    def _act_pairs(self, pairs) -> Matrix:
        """Action matrix of the element sum c * b_k over (k, c) in pairs."""
        n = self.dim
        return Matrix(n, n, [self.times(_unit(n, s), pairs) for s in range(n)])

    def check(self):
        """Full module axioms: unit acts as identity, action respects the
        structure constants on all basis pairs."""
        a = self.algebra
        if self.act_matrix(a.unit) != Matrix.identity(self.dim):
            raise ValueError("unit does not act as the identity")
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = self.action[i] * self.action[j]
                rhs = self._act_pairs(a.mul[i][j])
                if lhs != rhs:
                    raise ValueError(
                        f"action incompatible with product of basis {i},{j}"
                    )
        return True


def _unit(n, s):
    v = [0] * n
    v[s] = 1
    return v


def zero_module(a: Algebra) -> Module:
    return Module(a, 0, [Matrix.zeros(0, 0)] * a.dim)


@cached
def projective_module(a: Algebra, i: int):
    """(Module for e_i A, monomial basis indices into A).

    The basis of e_i A is the set of basis monomials with left idempotent i,
    and the action is the restriction of right multiplication: its rows and
    traces are read from the structure constants, and each matrix is built
    on first read."""
    basis = a.projective_basis(i)
    pos = {t: r for r, t in enumerate(basis)}
    d = len(basis)

    def build(j):
        rows = []
        for t in basis:
            row = [0] * d
            for k, c in a.mul[t][j]:
                row[pos[k]] = c
            rows.append(row)
        return Matrix(d, d, rows)

    def trace(j):
        return norm_scalar(sum(c for t in basis for k, c in a.mul[t][j] if k == t))

    def row(s, j):
        return tuple((pos[k], c) for k, c in a.mul[basis[s]][j])

    return Module(a, d, LazyActions(a.dim, d, build, trace, row)), basis


def direct_sum_modules(a: Algebra, mods):
    """(Module, offsets).  The zero-summand case gives the zero module.
    Each block-diagonal action matrix is built on first read; its trace is
    the sum of the summands' traces, and its row s is the summand's row,
    moved to the summand's offset."""
    dims = [m.dim for m in mods]
    total = sum(dims)
    offsets = []
    off = 0
    for d in dims:
        offsets.append(off)
        off += d

    def build(j):
        big = [[0] * total for _ in range(total)]
        for m, o in zip(mods, offsets):
            data = m.action[j].data
            for r in range(m.dim):
                row = big[o + r]
                src = data[r]
                for c in range(m.dim):
                    if src[c]:
                        row[o + c] = src[c]
        return Matrix(total, total, big)

    def trace(j):
        return norm_scalar(sum(m.trace(j) for m in mods))

    def row(s, j):
        i = bisect_right(offsets, s) - 1
        o = offsets[i]
        return tuple((k + o, c) for k, c in mods[i].row(s - o, j))

    return Module(a, total, LazyActions(a.dim, total, build, trace, row)), offsets


def quotient_module(m: Module, sub: RowBasis):
    """Quotient of m by an action-closed subspace.

    Returns (Module, projection matrix m -> quotient).  Quotient coordinates
    are the non-pivot positions of the subspace's echelon form."""
    free = [c for c in range(m.dim) if c not in set(sub.pivots)]
    qdim = len(free)
    proj_rows = []
    for t in range(m.dim):
        v = [0] * m.dim
        v[t] = 1
        red = sub.reduce(v)
        proj_rows.append([red[c] for c in free])
    proj = Matrix(m.dim, qdim, proj_rows)
    action = []
    for j in range(m.algebra.dim):
        rows = []
        for c in free:
            red = sub.reduce(m.times(_unit(m.dim, c), ((j, 1),)))
            rows.append([red[x] for x in free])
        action.append(Matrix(qdim, qdim, rows))
    return Module(m.algebra, qdim, action), proj


def module_radical(m: Module, sub: RowBasis) -> RowBasis:
    """The subspace N * rad(A) of the submodule N of m spanned by sub, in m's
    coordinates: the span of the products of sub's rows with the radical
    generators, each checked to lie in N (ValueError otherwise).

    Over a tensor algebra L (x) R, rad = rad L (x) R + L (x) rad R (in
    characteristic zero the tensor product of the tops is semisimple), and
    rad L (x) 1 commutes with 1 (x) R, so N * rad is the span of
    N * (g (x) 1) and N * (1 (x) h) for the rows g of rad L and h of rad R:
    the Kuenneth pattern of derived.simple_resolutions.  The trace form of
    the product itself is never computed."""
    a = m.algebra
    factors = a.meta.get("factors")
    if factors is None:
        gens = a.radical().rows
    else:
        left, right = factors
        gens = [[x * y for x in g for y in right.unit] for g in left.radical().rows]
        gens += [[x * y for x in left.unit for y in h] for h in right.radical().rows]
    rb = RowBasis(m.dim)
    for g in gens:
        pairs = [(k, c) for k, c in enumerate(g) if c]
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
        p, _ = projective_module(a, i)
        s, _ = quotient_module(p, module_radical(p, RowBasis.full(p.dim)))
        ms.append(s)
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
    for i, e in enumerate(a.idempotents):
        pairs = [(k, c) for k, c in enumerate(e) if c]
        for r in sub.rows:
            v = _product_in_span(m, sub, r, pairs)
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

    The pair (b_i^op, b_j) acts by L_i R_j, whose row s holds the
    coordinates of b_i b_s b_j; it is filled from the structure constants."""
    env = hom_algebra(a, a)
    mul = a.mul
    action = []
    for t in range(env.dim):
        i, j = divmod(t, a.dim)
        right = [row[j] for row in mul]
        data = [[0] * a.dim for _ in range(a.dim)]
        for s, left in enumerate(mul[i]):
            for k, c in left:
                for k2, c2 in right[k]:
                    data[s][k2] += c * c2
        action.append(Matrix(a.dim, a.dim, data))
    return Module(env, a.dim, action)


@cached
def dual_bimodule(a: Algebra) -> Module:
    """The linear dual D(A) as an A-A-bimodule: (x phi y)(c) = phi(y c x).

    In dual-basis coordinates the pair (b_i^op, b_j) acts by the transpose
    of L_j R_i, the diagonal bimodule's action at the swapped pair
    (b_j^op, b_i).  It needs the enveloping algebra of A.  At runtime only
    `hochschild` with dual coefficients calls it; derived.serre builds S(M)
    from the copies of M instead, and the tests use M (x)_A D(A) as its
    oracle."""
    diag = diagonal_bimodule(a)
    action = [diag.action[p].transpose() for p in swap_permutation(a, a)]
    return Module(diag.algebra, a.dim, action)


def left_structure_module(m: Module, a: Algebra) -> Module:
    """The left-module structure of an A-A-bimodule, as a right module over
    the opposite enveloping algebra.

    For a right module over E = tensor(op(A), A) the basis pair (x^op, y)
    acts as x m y; the left E-structure needed for balanced tensor products
    against right E-modules sends (x^op, y) to y m x, which is the right
    action of the swapped pair.  Index-permuting the action list therefore
    yields a right module over opposite(E)."""
    env = hom_algebra(a, a)
    if m.algebra is not env:
        raise ValueError("module is not a bimodule over tensor(op(A), A)")
    perm = swap_permutation(a, a)
    action = [m.action[perm[g]] for g in range(env.dim)]
    return Module(opposite(env), m.dim, action)
