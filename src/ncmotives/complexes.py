"""Bounded cochain complexes of modules and perfect complexes.

Grading is cohomological: d^n maps degree n to degree n+1 and d^n d^{n+1} = 0
as matrices in the row convention.  The shift of a perfect complex (the
`shift` of a correspondence term) is defined by

    shift(C, k)^n = C^{n-k},   d_{shift} = (-1)^k d,

so shifting by 1 moves content one degree up; with the Hom-complex convention
of homalg.py this makes H^i Hom(M, N) compute morphisms M -> N shifted down
by i, matching the indexing used throughout the derived-invariants layer.

Differentials are a dict, or a LazyDifferentials that builds each one on
first read (perfect complexes and the tensor products of homalg make theirs
so, since a class reads none of them).

A PerfectComplex is a Complex whose components are read off its copies:
the degree-n component is the direct sum of the indecomposable projectives
e_i A over the tuple of idempotent indices copies[n].  Its one constructor
takes the copies and the blocks of the differentials: each block from a
copy with idempotent e to a copy with idempotent f is left multiplication
by an element of f A e, which is exactly right-linearity of the
differential.  A block is that element as its nonzero (basis index,
coefficient) pairs in index order, the form of Algebra.mul and of
Module.times.  The constructor makes each block so, and checks it against
its corner and d^2 = 0 on the blocks; a dense differential is assembled
from its blocks only when it is read.  Everything else a complex does
(homology, shapes) is inherited.
"""

from __future__ import annotations

from collections.abc import Mapping

from .algebra import Algebra
from .linalg import Matrix, RowBasis
from .modules import Module, direct_sum_modules, projective_module, zero_module


class LazyDifferentials(Mapping):
    """Differentials built on first read by build(n) and kept, for complexes
    whose readers may need none of them (a class reads only the component
    actions).  The keys are the degrees whose differential may be nonzero
    (a perfect complex's: those with a nonzero block); a built differential
    may still be zero.  Comparison builds them all."""

    __slots__ = ("_build", "_mats")

    def __init__(self, degrees, build):
        self._build = build
        self._mats = dict.fromkeys(degrees)

    def __getitem__(self, n) -> Matrix:
        m = self._mats[n]
        if m is None:
            m = self._mats[n] = self._build(n)
        return m

    def __contains__(self, n):
        return n in self._mats

    def __iter__(self):
        return iter(self._mats)

    def __len__(self):
        return len(self._mats)


class Complex:
    __slots__ = ("algebra", "components", "differentials", "lo", "hi", "_cache", "__weakref__")

    def __init__(self, algebra: Algebra, components: dict, differentials, check=True):
        self.algebra = algebra
        self._cache = {}
        self.components = {n: m for n, m in components.items() if m.dim > 0}
        degs = sorted(self.components)
        self.lo = degs[0] if degs else 0
        self.hi = degs[-1] if degs else -1
        if isinstance(differentials, LazyDifferentials):
            self.differentials = differentials
            if check:
                self._check_d_squared()
            return
        self.differentials = {}
        for n, d in differentials.items():
            src = self.component_dim(n)
            tgt = self.component_dim(n + 1)
            if d.rows != src or d.cols != tgt:
                raise ValueError(f"differential at degree {n} has wrong shape")
            if src and tgt and not d.is_zero():
                self.differentials[n] = d
        if check:
            self._check_d_squared()

    def _check_d_squared(self):
        for n, d in self.differentials.items():
            nxt = self.differentials.get(n + 1)
            if nxt is not None and not (d * nxt).is_zero():
                raise ValueError(f"d^2 != 0 at degree {n}")

    def is_zero(self) -> bool:
        return not self.components

    def component(self, n) -> Module:
        m = self.components.get(n)
        return m if m is not None else zero_module(self.algebra)

    def component_dim(self, n) -> int:
        m = self.components.get(n)
        return m.dim if m is not None else 0

    def differential(self, n) -> Matrix:
        d = self.differentials.get(n)
        if d is None:
            return Matrix.zeros(self.component_dim(n), self.component_dim(n + 1))
        return d

    def homology(self, n):
        """(dimension, representative rows) of H^n = ker d^n / im d^{n-1}."""
        dim_n = self.component_dim(n)
        if dim_n == 0:
            return 0, []
        cycles = self.differential(n).left_kernel_basis()
        boundaries = RowBasis(dim_n)
        prev = self.differentials.get(n - 1)
        if prev is not None:
            for r in prev.data:
                boundaries.add(r)
        reps = []
        w = boundaries.copy()
        for v in cycles:
            if w.add(v):
                reps.append(v)
        return len(reps), reps

    def homology_dims(self) -> dict:
        return {n: self.homology(n)[0] for n in sorted(self.components)}

    def __repr__(self):
        dims = {n: m.dim for n, m in sorted(self.components.items())}
        return f"<Complex {dims} over {self.algebra!r}>"


# -- perfect complexes ---------------------------------------------------------


class PerfectComplex(Complex):
    """Bounded complex of finite direct sums of the projectives e_i A.

    copies[n] is the tuple of idempotent indices of the degree-n summands;
    underlying coordinates concatenate the monomial bases of the summands in
    order.  blocks[n] maps (from_copy, to_copy) to the (basis index,
    coefficient) pairs of the algebra element z whose left multiplication is
    that block of d^n.  The constructor keeps each block as the tuple of its
    nonzero pairs in index order, and drops zero blocks.  Raises ValueError
    unless every block lies in its Peirce corner e_to A e_from (which makes
    d^n a module map) and d^2 = 0 on the blocks.  Each differential is
    assembled on first read.

    dual_of is None, or (left, right, weak reference to x) when this complex
    is the dual of x built by homalg.dual_perfect: its dual over (left,
    right) is x while x lives."""

    __slots__ = ("copies", "_blocks", "dual_of")

    def __init__(self, algebra: Algebra, copies: dict, blocks=None):
        self.dual_of = None
        self.copies = {n: tuple(c) for n, c in copies.items() if c}
        left, right = algebra.peirce()
        self._blocks = {}
        for n, bl in (blocks or {}).items():
            src, tgt = self.copies_at(n), self.copies_at(n + 1)
            kept = {}
            for (c, c2), z in sorted(bl.items()):
                z = tuple(sorted((g, x) for g, x in z if x))
                if any((left[g], right[g]) != (tgt[c2], src[c]) for g, _ in z):
                    raise ValueError(f"block {(c, c2)} of d^{n} is outside its Peirce corner")
                if z:
                    kept[(c, c2)] = z
            if kept:
                self._blocks[n] = kept
        comps = {
            n: direct_sum_modules(algebra, [projective_module(algebra, i)[0] for i in cs])[0]
            for n, cs in self.copies.items()
        }
        # the build reads these two dicts, so the complex holds no cycle
        own, cs = self._blocks, self.copies
        diffs = LazyDifferentials(
            own, lambda n: assemble_block_matrix(algebra, cs[n], cs[n + 1], own[n])
        )
        # the d^2 check of Complex is _check_d_squared below, on the blocks
        super().__init__(algebra, comps, diffs)

    def _check_d_squared(self):
        """d^2 = 0 on the blocks: the block z from copy c to c2 followed by
        w from c2 to c3 is left multiplication by w z, so for each (c, c3)
        the sum over c2 of w z must vanish."""
        mul = self.algebra.mul
        for n, bl in self._blocks.items():
            nxt = self._blocks.get(n + 1)
            if nxt is None:
                continue
            out_of = {}
            for (c2, c3), w in nxt.items():
                out_of.setdefault(c2, []).append((c3, w))
            sums = {}
            for (c, c2), z in bl.items():
                for c3, w in out_of.get(c2, ()):
                    acc = sums.setdefault((c, c3), {})
                    for g, x in w:
                        for h, y in z:
                            for k, s in mul[g][h]:
                                acc[k] = acc.get(k, 0) + x * y * s
            if any(v for acc in sums.values() for v in acc.values()):
                raise ValueError(f"d^2 != 0 at degree {n}")

    def copies_at(self, n):
        return self.copies.get(n, ())

    def block_elements(self, n):
        """dict (from_copy, to_copy) -> the nonzero (basis index,
        coefficient) pairs, in index order, of z in e_{to} A e_{from}; the
        block of d^n from copy c to copy c' is left multiplication by z.
        Only nonzero blocks are present."""
        return self._blocks.get(n, {})

    def shift(self, k: int) -> "PerfectComplex":
        negate = k % 2
        return PerfectComplex(
            self.algebra,
            {n + k: c for n, c in self.copies.items()},
            {
                n + k: {key: [(g, -x) for g, x in z] for key, z in bl.items()} if negate else bl
                for n, bl in self._blocks.items()
            },
        )

    def euler_copy_weights(self):
        """Alternating-sum multiplicity of each idempotent over all degrees."""
        w = [0] * len(self.algebra.idempotents)
        for n, cs in self.copies.items():
            s = -1 if n % 2 else 1
            for i in cs:
                w[i] += s
        return w

    def __repr__(self):
        shape = {n: self.copies[n] for n in sorted(self.copies)}
        return f"<PerfectComplex {shape} over {self.algebra!r}>"


def assemble_block_matrix(a: Algebra, from_copies, to_copies, blocks) -> Matrix:
    """Matrix of a copy-indexed family of left multiplications.

    blocks maps (from_copy, to_copy) to the nonzero (basis index,
    coefficient) pairs of z in e_to A e_from; the block sends a monomial h
    of e_from A to z * h expanded in the monomial basis of e_to A."""
    offs_s = []
    off = 0
    for i in from_copies:
        offs_s.append(off)
        off += len(a.projective_basis(i))
    rows_total = off
    offs_t = []
    off = 0
    for i in to_copies:
        offs_t.append(off)
        off += len(a.projective_basis(i))
    cols_total = off
    data = [[0] * cols_total for _ in range(rows_total)]
    for (c, c2), z in blocks.items():
        basis_s = a.projective_basis(from_copies[c])
        basis_t = a.projective_basis(to_copies[c2])
        pos_t = {t: r for r, t in enumerate(basis_t)}
        for r, h in enumerate(basis_s):
            out = data[offs_s[c] + r]
            for g, coeff in z:
                for k, s in a.mul[g][h]:
                    out[offs_t[c2] + pos_t[k]] += coeff * s
    return Matrix(rows_total, cols_total, data)


def as_complex(x) -> Complex:
    if isinstance(x, Complex):
        return x
    if isinstance(x, Module):
        return Complex(x.algebra, {0: x}, {}, check=False)
    raise TypeError(f"cannot view {x!r} as a complex")
