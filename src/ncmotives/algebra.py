"""Finite-dimensional associative algebras with a distinguished idempotent set.

The constructors here build path algebras of finite acyclic quivers, their
opposites, and tensor products of such; the command line also loads
algebras from explicit structure constants (a `table` spec), which
check_table tests for associativity and primitive idempotents.  Every
algebra the package resolves over has a monomial basis in which every
basis element b satisfies e b f = b for a unique pair (e, f) of the
distinguished idempotents; the Peirce bookkeeping below depends on that.

Path composition convention: paths are read left to right, so for an arrow
a: i -> j the products satisfy e_i * a = a = a * e_j, and p * q is "p then q"
(nonzero only when p ends where q starts).
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps

from .linalg import Matrix, RowBasis, norm_scalar, vec_is_zero


class CyclicQuiverError(ValueError):
    """Raised for quivers whose path algebra would be infinite-dimensional."""


class AlgebraStructureError(ValueError):
    """Raised when an algebra lacks the monomial structure an operation needs."""


Arrow = namedtuple("Arrow", "source target label")


def cached(fn):
    """Memoize fn(obj, *args) in obj._cache under (fn.__qualname__, *args).

    Every memo of the package goes through here, so it lives on the object
    it derives from and is freed with it.  Keyword and default arguments
    are filled in by position: f(a), f(a, 16) and f(a, cap=16) share one
    entry.  A call that raises stores nothing."""
    name = fn.__qualname__
    params = fn.__code__.co_varnames[1 : fn.__code__.co_argcount]
    values = fn.__defaults__ or ()
    defaults = dict(zip(params[len(params) - len(values) :], values))
    arity = len(params)

    @wraps(fn)
    def memo(obj, *args, **kwargs):
        if kwargs or len(args) < arity:
            rest = params[len(args) :]
            if kwargs.keys() - set(rest) or set(rest) - kwargs.keys() - defaults.keys():
                return fn(obj, *args, **kwargs)  # a bad call: Python raises its TypeError
            args += tuple(kwargs[p] if p in kwargs else defaults[p] for p in rest)
        key = (name,) + args
        try:
            return obj._cache[key]
        except KeyError:
            pass
        value = obj._cache[key] = fn(obj, *args)
        return value

    return memo


class Quiver:
    """A finite quiver; acyclicity is checked at construction."""

    def __init__(self, vertex_count: int, arrows):
        self.vertex_count = vertex_count
        self.arrows = [
            a if isinstance(a, Arrow) else Arrow(*a) for a in arrows
        ]
        labels = set()
        for a in self.arrows:
            if not (0 <= a.source < vertex_count and 0 <= a.target < vertex_count):
                raise ValueError(f"arrow {a} out of range")
            if a.label in labels:
                raise ValueError(f"duplicate arrow label {a.label!r}")
            labels.add(a.label)
        if self._has_cycle():
            raise CyclicQuiverError("quiver has a directed cycle")

    def _has_cycle(self) -> bool:
        out = [[] for _ in range(self.vertex_count)]
        indeg = [0] * self.vertex_count
        for a in self.arrows:
            out[a.source].append(a.target)
            indeg[a.target] += 1
        stack = [v for v in range(self.vertex_count) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen != self.vertex_count

    def __repr__(self):
        return f"Quiver({self.vertex_count}, {self.arrows!r})"


class Algebra:
    """Associative unital algebra given by structure constants.

    mul[i][j] is the product basis_i * basis_j as a tuple of its nonzero
    (k, c) pairs, ordered by k, with () for a zero product; the algebras
    built here have about one nonzero per product, so every reader iterates
    over the nonzeros.  Dense coordinate vectors, as in the JSON `table`
    format, are converted once by sparse_table.  The unit and the complete
    orthogonal idempotent list are dense coordinate vectors.  Unit and
    idempotent axioms are checked at construction; the algebras built here
    are associative by construction, and a `table` spec is checked by
    check_table.
    """

    def __init__(self, dim, labels, mul, unit, idempotents, meta=None, check=True):
        self.dim = dim
        self.labels = list(labels)
        self.mul = mul
        self.unit = [norm_scalar(x) for x in unit]
        self.idempotents = [[norm_scalar(x) for x in e] for e in idempotents]
        self.meta = meta or {}
        self._cache: dict = {}
        if check:
            self._check_basic()

    # -- construction-time sanity ----------------------------------------

    def _check_basic(self):
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise ValueError("inconsistent dimensions")
        if len(self.mul) != self.dim or any(len(r) != self.dim for r in self.mul):
            raise ValueError("structure constants have wrong shape")
        for i in range(self.dim):
            b = [1 if k == i else 0 for k in range(self.dim)]
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                raise ValueError(f"unit axiom fails on basis element {i}")
        tot = [0] * self.dim
        for r, e in enumerate(self.idempotents):
            if self.multiply(e, e) != e:
                raise ValueError(f"idempotent {r} is not idempotent")
            for s, f in enumerate(self.idempotents):
                if s != r and not vec_is_zero(self.multiply(e, f)):
                    raise ValueError(f"idempotents {r},{s} are not orthogonal")
            tot = [a + b for a, b in zip(tot, e)]
        if tot != self.unit:
            raise ValueError("idempotents do not sum to the unit")

    def __repr__(self):
        name = self.meta.get("name", "Algebra")
        return f"<{name} dim={self.dim}>"

    # -- multiplication ----------------------------------------------------

    def multiply(self, x, y):
        out = [0] * self.dim
        y_nz = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if not a:
                continue
            row = self.mul[i]
            for j, b in y_nz:
                c = a * b
                for k, s in row[j]:
                    out[k] += c * s
        return out

    # -- Peirce structure ---------------------------------------------------

    @cached
    def idempotent_basis_indices(self):
        """Index of each distinguished idempotent inside the basis.

        The projective-module machinery requires each idempotent to be a
        basis monomial; path algebras and their opposites/tensors always
        satisfy this."""
        idx = []
        for r, e in enumerate(self.idempotents):
            nz = [k for k, x in enumerate(e) if x != 0]
            if len(nz) != 1 or e[nz[0]] != 1:
                raise AlgebraStructureError(f"idempotent {r} is not a basis monomial")
            idx.append(nz[0])
        return idx

    @cached
    def peirce(self):
        """(left, right) idempotent index per basis element: e_l b e_r = b.

        Each idempotent is a basis monomial g (idempotent_basis_indices), so
        g b_t = b_t exactly when mul[g][t] is the single pair (t, 1), and
        b_t g = b_t when mul[t][g] is."""
        pr = ([None] * self.dim, [None] * self.dim)
        for r, g in enumerate(self.idempotent_basis_indices()):
            for t in range(self.dim):
                for side, index, prod in (
                    ("left", pr[0], self.mul[g][t]),
                    ("right", pr[1], self.mul[t][g]),
                ):
                    if prod != ((t, 1),):
                        continue
                    if index[t] is not None:
                        raise AlgebraStructureError(
                            f"basis element {t} has two {side} idempotents"
                        )
                    index[t] = r
        if None in pr[0] or None in pr[1]:
            raise AlgebraStructureError("basis is not adapted to the idempotents")
        return pr

    @cached
    def projective_basis(self, i):
        """Monomial basis indices of e_i * A (paths starting at i)."""
        left, _ = self.peirce()
        return [t for t in range(self.dim) if left[t] == i]

    @cached
    def coprojective_basis(self, j):
        """Monomial basis indices of A * e_j (paths ending at j)."""
        _, right = self.peirce()
        return [t for t in range(self.dim) if right[t] == j]

    @cached
    def coprojective_traces(self, j):
        """The trace of left multiplication by each basis element on A * e_j,
        as a list indexed by basis element."""
        traces = [0] * self.dim
        for u in self.coprojective_basis(j):
            for a, row in enumerate(self.mul):
                traces[a] += sum(c for u2, c in row[u] if u2 == u)
        return traces

    @cached
    def peirce_block(self, i, j):
        """Monomial basis indices of e_i A e_j."""
        left, right = self.peirce()
        return [t for t in range(self.dim) if left[t] == i and right[t] == j]

    @cached
    def peirce_dims(self):
        """The integer table dim(e_i A e_j), built once per algebra."""
        n = len(self.idempotents)
        dims = [[0] * n for _ in range(n)]
        for i, j in zip(*self.peirce()):
            dims[i][j] += 1
        return dims

    def peirce_dim(self, i, j) -> int:
        """dim(e_i A e_j)."""
        return self.peirce_dims()[i][j]

    # -- radical -------------------------------------------------------------

    @cached
    def radical(self) -> RowBasis:
        """Jacobson radical via the regular trace form (characteristic zero:
        rad A is the kernel of (x, y) -> trace of left multiplication by xy).
        tr(L_k) is read from the sparse structure constants: the sum over s
        of the b_s coefficient of b_k b_s."""
        tl = [
            sum(c for s, prod in enumerate(row) for m, c in prod if m == s)
            for row in self.mul
        ]
        gram = [
            [norm_scalar(sum(c * tl[k] for k, c in self.mul[i][j])) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        rad = RowBasis(self.dim)
        for v in Matrix(self.dim, self.dim, gram).kernel_basis():
            rad.add(v)
        return rad


# -- constructors -------------------------------------------------------------


def sparse_table(mul):
    """Structure constants from dense coordinate vectors (the JSON `table`
    format) to the (k, c) pairs Algebra stores."""
    return [
        [tuple((k, norm_scalar(c)) for k, c in enumerate(vec) if c) for vec in row]
        for row in mul
    ]


def check_table(a: Algebra) -> None:
    """The axioms of a `table` spec beyond those Algebra checks.

    Associativity, (b_i b_j) b_k = b_i (b_j b_k), is read from the nonzero
    products: a triple can fail only if b_i b_j or b_j b_k is nonzero.  It
    raises ValueError.  Each idempotent e_i must be a basis element and
    primitive: e_i A e_i / e_i (rad A) e_i is one-dimensional.  In the
    Peirce-adapted basis e_i v e_i keeps the coordinates of v in the corner
    e_i A e_i, so the quotient's dimension is the corner's less the rank
    of the radical on it.  That raises AlgebraStructureError, since the
    package supports neither a non-monomial nor a non-primitive idempotent."""
    mul = a.mul
    for j in range(a.dim):
        rights = [k for k in range(a.dim) if mul[j][k]]
        for i in range(a.dim):
            for k in range(a.dim) if mul[i][j] else rights:
                lhs, rhs = {}, {}
                for m, c in mul[i][j]:
                    for t, s in mul[m][k]:
                        lhs[t] = lhs.get(t, 0) + c * s
                for m, c in mul[j][k]:
                    for t, s in mul[i][m]:
                        rhs[t] = rhs.get(t, 0) + c * s
                if {t: x for t, x in lhs.items() if x} != {t: x for t, x in rhs.items() if x}:
                    raise ValueError(f"product is not associative on basis elements {i}, {j}, {k}")
    rad = a.radical().rows
    for i in range(len(a.idempotents)):
        corner = a.peirce_block(i, i)
        rank = RowBasis(len(corner)).extend([v[t] for t in corner] for v in rad).dim
        if len(corner) - rank != 1:
            raise AlgebraStructureError(f"idempotent {i} is not primitive")


def _monomial_mul_table(table):
    """Structure constants for a basis where products are single monomials.

    table[i][j] is a basis index or None."""
    return [[() if k is None else ((k, 1),) for k in row] for row in table]


def path_algebra(q: Quiver) -> Algebra:
    """Path algebra of a finite acyclic quiver.

    Basis: all paths, the length-0 path at vertex v labelled "e{v}" first,
    then longer paths ordered by (length, label).  Product is concatenation,
    zero when the endpoints do not match.  meta["arrow_basis"] holds the
    basis index of each arrow, in the quiver's order."""
    paths = [((), v, v, f"e{v}") for v in range(q.vertex_count)]
    frontier = list(paths)
    while frontier:
        new = []
        for arrows, src, tgt, label in frontier:
            for k, a in enumerate(q.arrows):
                if a.source == tgt:
                    alabel = a.label if not arrows else label + "*" + a.label
                    new.append((arrows + (k,), src, a.target, alabel))
        new.sort(key=lambda p: p[3])
        paths.extend(new)
        frontier = new
    # keyed by arrow tuple for nontrivial paths, by vertex for trivial ones
    def key_of(p):
        return ("v", p[1]) if not p[0] else ("a",) + p[0]

    index = {key_of(p): i for i, p in enumerate(paths)}
    dim = len(paths)
    table = [[None] * dim for _ in range(dim)]
    for i, (ar1, s1, t1, _) in enumerate(paths):
        for j, (ar2, s2, t2, _) in enumerate(paths):
            if t1 != s2:
                continue
            joined = ar1 + ar2
            k = index[("v", s1)] if not joined else index[("a",) + joined]
            table[i][j] = k
    unit = [0] * dim
    idems = []
    for v in range(q.vertex_count):
        e = [0] * dim
        e[v] = 1
        idems.append(e)
        unit[v] = 1
    return Algebra(
        dim,
        [p[3] for p in paths],
        _monomial_mul_table(table),
        unit,
        idems,
        meta={
            "name": "path algebra",
            "quiver": q,
            "arrow_basis": [index[("a", k)] for k in range(len(q.arrows))],
        },
    )


@cached
def opposite(a: Algebra) -> Algebra:
    """Opposite algebra: same basis, reversed multiplication.  Memoized and
    involutive: op(a) keeps a as meta["of"], so opposite(opposite(a)) is a
    itself, and the scalar algebra is its own opposite."""
    if a is _SCALAR:
        return a
    if "of" in a.meta:
        return a.meta["of"]
    mul = [[a.mul[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return Algebra(
        a.dim,
        a.labels,
        mul,
        a.unit,
        a.idempotents,
        meta={"name": f"op({a.meta.get('name', '?')})", "of": a},
        check=False,
    )


_SCALAR = None


def scalar_algebra() -> Algebra:
    """The rationals as a one-dimensional algebra (shared singleton)."""
    global _SCALAR
    if _SCALAR is None:
        _SCALAR = Algebra(
            1,
            ["1"],
            [[((0, 1),)]],
            [1],
            [[1]],
            meta={"name": "Q"},
        )
    return _SCALAR


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra with basis pairs ordered a-major.

    Both factors sit in degree zero so no sign is involved.  Tensoring with
    the scalar singleton returns the other factor unchanged (the pair
    indexing then degenerates to the identity, so no relabelling is needed).
    Any other pair is built once, memoized on a."""
    if a is scalar_algebra():
        return b
    if b is scalar_algebra():
        return a
    return _tensor(a, b)


@cached
def _tensor(a: Algebra, b: Algebra) -> Algebra:
    dim = a.dim * b.dim
    labels = [f"{la}|{lb}" for la in a.labels for lb in b.labels]
    b_dim = b.dim
    # (b_i1 (x) c_j1)(b_i2 (x) c_j2) = b_i1 b_i2 (x) c_j1 c_j2: only pairs of
    # nonzero factor products give a nonzero product
    b_nz = [[(j2, cb) for j2, cb in enumerate(row) if cb] for row in b.mul]
    mul = []
    for arow in a.mul:
        a_nz = [(i2, ca) for i2, ca in enumerate(arow) if ca]
        for brow in b_nz:
            row = [()] * dim
            for i2, ca in a_nz:
                base = i2 * b_dim
                for j2, cb in brow:
                    row[base + j2] = tuple(
                        (ka * b_dim + kb, norm_scalar(csa * csb))
                        for ka, csa in ca
                        for kb, csb in cb
                    )
            mul.append(row)
    unit = [0] * dim
    for i, x in enumerate(a.unit):
        if x:
            for j, y in enumerate(b.unit):
                if y:
                    unit[i * b.dim + j] = norm_scalar(x * y)
    idems = []
    for e in a.idempotents:
        for f in b.idempotents:
            v = [0] * dim
            for i, x in enumerate(e):
                if x:
                    for j, y in enumerate(f):
                        if y:
                            v[i * b.dim + j] = norm_scalar(x * y)
            idems.append(v)
    return Algebra(
        dim,
        labels,
        mul,
        unit,
        idems,
        meta={
            "name": f"{a.meta.get('name', '?')} (x) {b.meta.get('name', '?')}",
            "factors": (a, b),
        },
        check=False,
    )


# -- pair-index helpers for tensor algebras -----------------------------------
#
# tensor(Q, a) and tensor(a, Q) are a itself; since the scalar algebra has one
# basis element and one idempotent, the pair formulas below already give the
# identity indexing there and need no special case.


def split_pair_basis(right: Algebra, t: int):
    """Decompose a basis index of tensor(left, right) into factor indices;
    the pair indexing depends on the right factor alone."""
    return divmod(t, right.dim)


def join_pair_basis(right: Algebra, i: int, j: int) -> int:
    return i * right.dim + j


def split_pair_idempotent(right: Algebra, r: int):
    return divmod(r, len(right.idempotents))


def join_pair_idempotent(right: Algebra, i: int, j: int) -> int:
    return i * len(right.idempotents) + j


def hom_algebra(a: Algebra, b: Algebra) -> Algebra:
    """tensor(opposite(a), b): a-b-bimodules, and so the correspondences
    a -> b, are right modules over it; hom_algebra(a, a) is the enveloping
    algebra of a."""
    return tensor(opposite(a), b)


def swap_permutation(a: Algebra, b: Algebra):
    """Basis permutation realizing the anti-isomorphism
    tensor(opposite(a), b) -> tensor(opposite(b), a), (x^op, y) -> (y^op, x),
    as a tuple.  Memoized on the source tensor algebra: a memo keyed by an
    algebra on the scalar singleton (a or b may be it) would never be freed."""
    return _swap_permutation(hom_algebra(a, b), a, b)


@cached
def _swap_permutation(e_ab: Algebra, a: Algebra, b: Algebra):
    return tuple(join_pair_basis(a, j, i) for i in range(a.dim) for j in range(b.dim))
