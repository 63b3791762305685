"""Perfect replacement of bounded complexes, kept as a test-side reference.

The package composes, pairs and traces only perfect left factors, so it
never replaces a complex by a perfect one; the tests use this module to
build such replacements and check that unresolved complexes (a composite,
a Serre transform, a cone) give the same homology, classes, pairings and
traces as their replacements.  It also holds the chain maps and mapping
cones the tests build acyclic and split complexes from, and the recovery of
a perfect complex from differential matrices (perfect_from_matrices), which
the package, building every perfect complex from its blocks, does not need.

resolve_complex walks a bounded complex from its top degree downwards.  At
degree n it forms the module of relative cycles

    Z = {(p, v) in P^{n+1} (+) C^n : p d_P = 0,  p phi + v d_C = 0},

quotients out the boundaries (0, d_C C^{n-1}), and takes a projective cover
of the result; generator lifts define the next differential (P-part, with a
sign) and the next comparison component phi (C-part), extended right-linearly
from the generators so both are module maps.  This keeps the mapping cone of
phi exact at every stage, i.e. phi is a quasi-isomorphism.  For an algebra of
finite global dimension the recursion terminates; MAX_RESOLUTION_LENGTH turns
a runaway recursion into ResolutionCapExceeded rather than a silent
truncation.
"""

from dense_reference import solve, submodule_from_rowbasis
from ncmotives.algebra import Algebra
from ncmotives.complexes import (
    Complex,
    PerfectComplex,
    as_complex,
    assemble_block_matrix,
)
from ncmotives.linalg import Matrix, RowBasis, row_times
from ncmotives.modules import (
    Module,
    cover_data,
    direct_sum_modules,
    projective_module,
    quotient_module,
)
from ncmotives.motives import Correspondence
from ncmotives.resolutions import (
    MAX_RESOLUTION_LENGTH,
    ResolutionCapExceeded,
    projective_resolution,
)


def component(c: Complex, n) -> Module:
    """The degree-n component of c, a zero module where c has none."""
    m = c.components.get(n)
    return m if m is not None else Module(c.algebra, 0, None)


def differential(c: Complex, n) -> Matrix:
    """d^n of c as a matrix, a zero one where c stores none."""
    d = c.differentials.get(n)
    if d is None:
        return Matrix.zeros(c.component_dim(n), c.component_dim(n + 1))
    return d


def homology_dims_equal(c1, c2) -> bool:
    c1 = as_complex(c1)
    c2 = as_complex(c2)
    degs = set(c1.components) | set(c2.components)
    return all(c1.homology(n) == c2.homology(n) for n in degs)


class ChainMap:
    """Degreewise map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source, target, maps: dict, check=True):
        self.source = source
        self.target = target
        self.maps = {}
        for n, f in maps.items():
            if f.rows != source.component_dim(n) or f.cols != target.component_dim(n):
                raise ValueError(f"chain map component at degree {n} has wrong shape")
            if f.rows and f.cols and not f.is_zero():
                self.maps[n] = f
        if check:
            self.check()

    def map_at(self, n) -> Matrix:
        f = self.maps.get(n)
        if f is None:
            return Matrix.zeros(self.source.component_dim(n), self.target.component_dim(n))
        return f

    def check(self):
        degs = set(self.source.components) | set(self.target.components)
        for n in degs:
            lhs = differential(self.source, n) * self.map_at(n + 1)
            rhs = self.map_at(n) * differential(self.target, n)
            if lhs != rhs:
                raise ValueError(f"not a chain map at degree {n}")
        return True


def cone(f: ChainMap) -> Complex:
    """Mapping cone: cone(f)^n = X^{n+1} (+) Y^n with d(x, y) =
    (-d x, f x + d y)."""
    x, y = f.source, f.target
    a = x.algebra
    degs = {n - 1 for n in x.components} | set(y.components)
    comps = {}
    for n in degs:
        total = direct_sum_modules(a, [component(x, n + 1), component(y, n)])
        if total.dim:
            comps[n] = total
    diffs = {}
    for n in comps:
        sx = x.component_dim(n + 1)
        sy = y.component_dim(n)
        tx = x.component_dim(n + 2)
        ty = y.component_dim(n + 1)
        if tx + ty == 0:
            continue
        dx = differential(x, n + 1)
        fx = f.map_at(n + 1)
        dy = differential(y, n)
        rows = []
        for r in range(sx):
            rows.append([-v for v in dx.data[r]] + fx.data[r][:])
        for r in range(sy):
            rows.append([0] * tx + dy.data[r][:])
        diffs[n] = Matrix(sx + sy, tx + ty, rows)
    return Complex(a, comps, diffs)


def resolve_complex(c) -> PerfectComplex:
    """Perfect complex quasi-isomorphic to a bounded complex.

    Already-perfect inputs are returned unchanged; plain modules are
    resolved in degree 0.  Equality of homology dimensions in every degree
    is checked before returning."""
    if isinstance(c, PerfectComplex):
        return c
    if isinstance(c, Module):
        return projective_resolution(c)
    if c.is_zero():
        return PerfectComplex(c.algebra, {})
    pc = _resolve_complex_inner(c)
    if not homology_dims_equal(pc, c):
        raise AssertionError("perfect replacement changed homology")
    return pc


def _resolve_complex_inner(c: Complex) -> PerfectComplex:
    a = c.algebra
    copies: dict[int, tuple] = {}
    diffs: dict[int, Matrix] = {}
    phi: dict[int, Matrix] = {}

    n = c.hi
    floor = c.lo - MAX_RESOLUTION_LENGTH
    while True:
        dim_p_next = _copies_dim(a, copies.get(n + 1, ()))
        dim_c_here = c.component_dim(n)
        if dim_p_next == 0 and dim_c_here == 0:
            if n <= c.lo:
                break
            n -= 1
            continue
        if n < floor:
            raise ResolutionCapExceeded(
                f"perfect replacement over {a!r} is longer than {MAX_RESOLUTION_LENGTH}"
            )

        p_next = direct_sum_modules(
            a, [projective_module(a, i) for i in copies.get(n + 1, ())]
        )
        amb = direct_sum_modules(a, [p_next, component(c, n)])
        dim_p_next2 = _copies_dim(a, copies.get(n + 2, ()))
        dim_c_next = c.component_dim(n + 1)

        # constraint matrix for (p, v) |-> (p d_P, p phi + v d_C)
        big_rows = dim_p_next + dim_c_here
        big_cols = dim_p_next2 + dim_c_next
        big = [[0] * big_cols for _ in range(big_rows)]
        d_p = diffs.get(n + 1)
        if d_p is not None:
            for r in range(dim_p_next):
                big[r][:dim_p_next2] = d_p.data[r]
        phi_next = phi.get(n + 1)
        if phi_next is not None and dim_c_next:
            for r in range(dim_p_next):
                row = big[r]
                src = phi_next.data[r]
                for j in range(dim_c_next):
                    row[dim_p_next2 + j] += src[j]
        d_c = c.differentials.get(n)
        if d_c is not None:
            for r in range(dim_c_here):
                row = big[dim_p_next + r]
                src = d_c.data[r]
                for j in range(dim_c_next):
                    row[dim_p_next2 + j] += src[j]

        zbasis = RowBasis(big_rows)
        for v in Matrix(big_rows, big_cols, big).left_kernel_basis():
            zbasis.add(v)
        zmod, zrb, zincl = submodule_from_rowbasis(amb, zbasis)

        # boundaries of C^{n-1} sit inside Z as (0, v d_C)
        sub = RowBasis(zmod.dim)
        d_prev = c.differentials.get(n - 1)
        if d_prev is not None:
            for r in d_prev.data:
                vec = [0] * dim_p_next + list(r)
                cs = zrb.coords(vec)
                if cs is None:
                    raise AssertionError("boundary escaped the cycle module")
                sub.add(cs)
        vmod = quotient_module(zmod, sub)
        if vmod.dim == 0:
            if n <= c.lo:
                break
            n -= 1
            continue

        cs, gens, _ = cover_data(vmod, RowBasis.full(vmod.dim))
        copies[n] = tuple(cs)
        # lift each generator to the ambient sum and extend right-linearly
        proj_t = quotient_projection(zmod.dim, sub).transpose()
        d_out_rows = []
        phi_out_rows = []
        for i, g in zip(cs, gens):
            zcoords = solve(proj_t, g)
            if zcoords is None:
                raise AssertionError("generator failed to lift through the quotient")
            lift = row_times(zcoords, zincl) if zmod.dim else [0] * amb.dim
            lift = amb.times(lift, ((a.idempotents[i], 1),))
            for t in a.projective_basis(i):
                w = amb.times(lift, ((t, 1),))
                d_out_rows.append([-x for x in w[:dim_p_next]])
                phi_out_rows.append(w[dim_p_next:])
        rows_n = len(d_out_rows)
        if dim_p_next:
            diffs[n] = Matrix(rows_n, dim_p_next, d_out_rows)
        if dim_c_here:
            phi[n] = Matrix(rows_n, dim_c_here, phi_out_rows)
        n -= 1

    return perfect_from_matrices(a, copies, diffs)


def quotient_projection(dim: int, sub: RowBasis) -> Matrix:
    """The matrix of the projection of Q^dim onto its quotient by sub, in
    the coordinates of modules.quotient_module: the entries of each reduced
    unit vector at the non-pivot positions of sub."""
    free = [c for c in range(dim) if c not in set(sub.pivots)]
    reduced = [sub.reduce(row) for row in Matrix.identity(dim).data]
    return Matrix(dim, len(free), [[v[c] for c in free] for v in reduced])


def _copies_dim(a: Algebra, copies) -> int:
    return sum(len(a.projective_basis(i)) for i in copies)


def perfect_from_matrices(a: Algebra, copies: dict, diffs: dict) -> PerfectComplex:
    """The perfect complex with the given copies whose d^n is the matrix
    diffs[n].  The block from copy c to copy c2 is read off the row of the
    idempotent generator of copy c, restricted to copy c2; raises ValueError
    unless the blocks reassemble to diffs[n], i.e. unless d^n is a module
    map."""
    gens = a.idempotents
    blocks = {}
    for n, d in diffs.items():
        src, tgt = copies.get(n, ()), copies.get(n + 1, ())
        if (d.rows, d.cols) != (_copies_dim(a, src), _copies_dim(a, tgt)):
            raise ValueError(f"differential at degree {n} has wrong shape")
        bl = blocks[n] = {}
        off = 0
        for c, i in enumerate(src):
            basis = a.projective_basis(i)
            coords = iter(d.data[off + basis.index(gens[i])])
            off += len(basis)
            for c2, i2 in enumerate(tgt):
                bl[(c, c2)] = list(zip(a.projective_basis(i2), coords))
        if assemble_block_matrix(a, src, tgt, bl) != d:
            raise ValueError(f"differential at degree {n} is not a module map")
    return PerfectComplex(a, copies, blocks)


def resolve_terms(z):
    """The correspondence z with every term replaced by its perfect
    replacement, so that it can be the left factor of motives.compose."""
    return Correspondence(z.source, z.target, [(c, resolve_complex(t)) for c, t in z.terms])
