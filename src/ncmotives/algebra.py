"""Finite-dimensional associative algebras with a distinguished idempotent set.

The constructors here build path algebras of finite acyclic quivers, their
opposites, and tensor products of such; the command line also loads
algebras from explicit structure constants (a `table` spec), which
table_algebra converts from dense vectors and checks for associativity,
primitive idempotents and basicness.  Every algebra of the package is basic
and has a monomial basis in which each distinguished idempotent is a basis
element, named by its index, and every basis element b satisfies e b f = b
for a unique pair (e, f) of them; the Peirce bookkeeping below depends on
that.  Elements, products and the unit are tuples of nonzero (basis index,
coefficient) pairs.

Path composition convention: paths are read left to right, so for an arrow
a: i -> j the products satisfy e_i * a = a = a * e_j, and p * q is "p then q"
(nonzero only when p ends where q starts).
"""

from __future__ import annotations

from functools import wraps

from .linalg import RowBasis, gram, norm_scalar


class CyclicQuiverError(ValueError):
    """Raised for quivers whose path algebra would be infinite-dimensional."""


class QuiverTooLargeError(ValueError):
    """Raised for quivers whose path algebra would have more than MAX_PATHS
    basis elements."""


MAX_PATHS = 2000
"""The most paths, trivial ones included, that a quiver may have: the
dimension of its path algebra.  The line quiver A62 (1953 paths) builds its
path algebra in under a second; the corpus and ladder quivers have at most
36 paths."""


class TensorTooLargeError(RuntimeError):
    """Raised for a tensor product algebra of more than MAX_TENSOR_DIM basis
    elements.  Not a ValueError, so that no handler of malformed input
    takes it for one."""


MAX_TENSOR_DIM = 4096
"""The largest dimension of a tensor product algebra, checked before its
table is built.  A table has dim^2 entries; the Hom algebra of the
Beilinson algebra of P^3 to itself (dimension 3136, the largest the
ladder builds) costs about 157 MB with its opposite, and one of
dimension 4096 about 270 MB.  The Hom algebra of A11 to itself (4356) and
the enveloping algebra of A40 (672400) are refused."""


class AlgebraStructureError(ValueError):
    """Raised when an algebra lacks the monomial structure an operation needs."""


def cached(fn):
    """Memoize fn(obj, *args) in obj._cache under (fn.__qualname__, *args).

    Every memo of the package goes through here, so it lives on the object
    it derives from and is freed with it.  Arguments are keyed as they are
    passed, so fn may take no default or keyword-only argument (TypeError
    at decoration): f(a) and f(a, 16) would be two entries.  A call that
    raises stores nothing."""
    if fn.__defaults__ or fn.__code__.co_kwonlyargcount:
        raise TypeError(f"cached {fn.__qualname__} takes a default or keyword-only argument")
    name = fn.__qualname__

    @wraps(fn)
    def memo(obj, *args):
        key = (name,) + args
        try:
            return obj._cache[key]
        except KeyError:
            pass
        value = obj._cache[key] = fn(obj, *args)
        return value

    return memo


class Algebra:
    """Associative unital algebra given by structure constants.

    mul[i][j] is the product basis_i * basis_j as a tuple of its nonzero
    (k, c) pairs, ordered by k, with () for a zero product; the algebras
    built here have about one nonzero per product, so every reader iterates
    over the nonzeros.  An algebra element is written the same way, as its
    nonzero pairs.  The distinguished idempotents form a complete
    orthogonal set of basis elements, listed by basis index, and the unit
    is their sum, kept as its (g, 1) pairs.  With check, the unit and
    idempotent axioms are verified at construction; the algebras built
    here are associative by construction, and table_algebra checks a
    `table` spec, whose dense vectors it converts once.
    """

    def __init__(self, dim, labels, mul, idempotents, meta=None, check=True):
        self.dim = dim
        self.labels = list(labels)
        self.mul = mul
        self.idempotents = list(idempotents)
        self.unit = tuple((g, 1) for g in sorted(self.idempotents))
        self.meta = meta or {}
        self._cache: dict = {}
        if len(self.labels) != dim:
            raise ValueError("inconsistent dimensions")
        if len(mul) != dim or any(len(r) != dim for r in mul):
            raise ValueError("structure constants have wrong shape")
        if any(g not in range(dim) for g in self.idempotents):
            raise ValueError("idempotent index out of range")
        if check:
            check_unit_and_idempotents(mul, self.unit, [((g, 1),) for g in self.idempotents])

    def __repr__(self):
        name = self.meta.get("name", "Algebra")
        return f"<{name} dim={self.dim}>"

    # -- Peirce structure ---------------------------------------------------

    @cached
    def peirce(self):
        """(left, right) idempotent index per basis element: e_l b e_r = b.

        Each idempotent is a basis element g, so g b_t = b_t exactly when
        mul[g][t] is the single pair (t, 1), and b_t g = b_t when mul[t][g]
        is."""
        pr = ([None] * self.dim, [None] * self.dim)
        for r, g in enumerate(self.idempotents):
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
    def coprojective_dims(self, j):
        """The dimension vector of D(A e_j): dim(e_g A e_j) over the
        idempotents g, column j of peirce_dims.  On tensor(L, R), A e_(i,k)
        is L e_i (x) R e_k, so it is the product of the factors' vectors
        (Kuenneth), and the product's own Peirce table is not read."""
        factors = self.meta.get("factors")
        if factors is None:
            return tuple(row[j] for row in self.peirce_dims())
        left, right = factors
        i, k = split_pair_idempotent(right, j)
        dims = right.coprojective_dims(k)
        return tuple(x * y for x in left.coprojective_dims(i) for y in dims)

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
        form = gram(
            lambda i, j: norm_scalar(sum(c * tl[k] for k, c in self.mul[i][j])),
            range(self.dim),
            range(self.dim),
        )
        return RowBasis(self.dim).extend(form.kernel_basis())


# -- constructors -------------------------------------------------------------


def product(mul, x, y):
    """The product x y of two elements given as (basis index, coefficient)
    pairs, as its nonzero pairs in index order."""
    out = {}
    for i, a in x:
        row = mul[i]
        for j, b in y:
            for k, c in row[j]:
                out[k] = out.get(k, 0) + a * b * c
    return tuple((k, c) for k, c in sorted(out.items()) if c)


def check_unit_and_idempotents(mul, unit, idempotents) -> None:
    """The unit and idempotent axioms on elements given as pairs: unit b =
    b = b unit for every basis element b, each idempotent is idempotent,
    distinct ones are orthogonal, and together they sum to the unit.
    ValueError on the first that fails."""
    for i in range(len(mul)):
        b = ((i, 1),)
        if product(mul, unit, b) != b or product(mul, b, unit) != b:
            raise ValueError(f"unit axiom fails on basis element {i}")
    total = {}
    for r, e in enumerate(idempotents):
        if product(mul, e, e) != e:
            raise ValueError(f"idempotent {r} is not idempotent")
        for s, f in enumerate(idempotents):
            if s != r and product(mul, e, f):
                raise ValueError(f"idempotents {r},{s} are not orthogonal")
        for k, c in e:
            total[k] = total.get(k, 0) + c
    if tuple((k, c) for k, c in sorted(total.items()) if c) != unit:
        raise ValueError("idempotents do not sum to the unit")


def table_algebra(dim, labels, mul, unit, idempotents) -> Algebra:
    """The algebra of a `table` spec, from its dense coordinate vectors:
    products mul[i][j], the unit and the idempotents, each of length dim.
    They become (index, coefficient) pairs here and nowhere else.

    The checks run in this order:
      1. the unit and idempotent axioms (check_unit_and_idempotents);
      2. associativity, (b_i b_j) b_k = b_i (b_j b_k), read from the nonzero
         products: a triple can fail only if b_i b_j or b_j b_k is nonzero;
      3. each idempotent is a basis element;
      4. the basis is adapted to the idempotents (Algebra.peirce);
      5. each idempotent e_i is primitive: e_i A e_i / e_i (rad A) e_i is
         one-dimensional.  In the Peirce-adapted basis e_i v e_i keeps the
         coordinates of v in the corner e_i A e_i, so the quotient's
         dimension is the corner's less the rank of the radical on it;
      6. the algebra is basic: by 5, A/rad A is a product of matrix
         algebras M_n(Q) whose sizes n add up to the number of idempotents,
         so every n is 1 exactly when that number is dim A - dim rad A.
    The first two raise ValueError; the last four AlgebraStructureError,
    since the package supports neither a non-monomial nor a non-primitive
    idempotent, nor a non-basic algebra."""
    if any(len(v) != dim for v in (labels, mul, unit, *idempotents, *mul)) or any(
        len(v) != dim for row in mul for v in row
    ):
        raise ValueError("inconsistent dimensions")

    def pairs(vec):
        return tuple((k, norm_scalar(c)) for k, c in enumerate(vec) if c)

    mul = [[pairs(vec) for vec in row] for row in mul]
    idems = [pairs(e) for e in idempotents]
    check_unit_and_idempotents(mul, pairs(unit), idems)
    for j in range(dim):
        rights = [k for k in range(dim) if mul[j][k]]
        for i in range(dim):
            for k in range(dim) if mul[i][j] else rights:
                if product(mul, mul[i][j], ((k, 1),)) != product(mul, ((i, 1),), mul[j][k]):
                    raise ValueError(f"product is not associative on basis elements {i}, {j}, {k}")
    for r, e in enumerate(idems):
        if len(e) != 1 or e[0][1] != 1:
            raise AlgebraStructureError(f"idempotent {r} is not a basis monomial")
    a = Algebra(dim, labels, mul, [e[0][0] for e in idems], meta={"name": "table"}, check=False)
    a.peirce()
    rad = a.radical().rows
    for i in range(len(idems)):
        corner = a.peirce_block(i, i)
        rank = RowBasis(len(corner)).extend([v[t] for t in corner] for v in rad).dim
        if len(corner) - rank != 1:
            raise AlgebraStructureError(f"idempotent {i} is not primitive")
    if dim - len(rad) != len(idems):
        raise AlgebraStructureError(
            f"the algebra is not basic: its semisimple quotient has dimension "
            f"{dim - len(rad)}, not one per idempotent ({len(idems)})"
        )
    return a


def path_algebra(vertex_count: int, arrows) -> Algebra:
    """Path algebra of a finite acyclic quiver, given by its vertex count and
    its arrows as (source, target, label) triples.

    The quiver is checked first: the vertex count against MAX_PATHS before
    anything is allocated per vertex, then each arrow's endpoints and the
    distinct labels (ValueError), acyclicity (CyclicQuiverError), and the
    path count against MAX_PATHS before any path is listed
    (QuiverTooLargeError).

    Basis: all paths, the length-0 path at vertex v labelled "e{v}" first,
    then longer paths ordered by (length, label).  Product is concatenation,
    zero when the endpoints do not match.  meta["quiver"] holds the
    (source, target, basis index) of each arrow, in the given order."""
    if vertex_count > MAX_PATHS:
        raise QuiverTooLargeError(
            f"the quiver has at least {vertex_count} paths (one per vertex), "
            f"more than {MAX_PATHS}"
        )
    arrows = list(arrows)
    # the arrows out of each vertex, as (arrow index, target, label)
    out = [[] for _ in range(vertex_count)]
    indeg = [0] * vertex_count
    labels = set()
    for k, (s, t, label) in enumerate(arrows):
        if not (0 <= s < vertex_count and 0 <= t < vertex_count):
            raise ValueError(f"arrow {(s, t, label)!r} out of range")
        if label in labels:
            raise ValueError(f"duplicate arrow label {label!r}")
        labels.add(label)
        out[s].append((k, t, label))
        indeg[t] += 1
    order = [v for v in range(vertex_count) if indeg[v] == 0]
    for v in order:
        for _, w, _ in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != vertex_count:
        raise CyclicQuiverError("quiver has a directed cycle")
    # paths from v: the trivial one, then those through each arrow out of v
    counts = [1] * vertex_count
    for v in reversed(order):
        counts[v] += sum(counts[w] for _, w, _ in out[v])
    if sum(counts) > MAX_PATHS:
        raise QuiverTooLargeError(
            f"the quiver has {sum(counts)} paths, more than {MAX_PATHS}"
        )
    # a path is (arrow indices, source, target, label)
    paths = [((), v, v, f"e{v}") for v in range(vertex_count)]
    frontier = list(paths)
    while frontier:
        new = [
            (ks + (k,), src, t, alabel if not ks else label + "*" + alabel)
            for ks, src, tgt, label in frontier
            for k, t, alabel in out[tgt]
        ]
        new.sort(key=lambda p: p[3])
        paths.extend(new)
        frontier = new
    # a path is determined by its arrows and its source
    index = {(ks, src): i for i, (ks, src, _, _) in enumerate(paths)}
    mul = [
        [((index[(ks1 + ks2, s1)], 1),) if t1 == s2 else () for ks2, s2, _, _ in paths]
        for ks1, s1, t1, _ in paths
    ]
    return Algebra(
        len(paths),
        [p[3] for p in paths],
        mul,
        range(vertex_count),
        meta={
            "name": "path algebra",
            "quiver": tuple((s, t, index[((k,), s)]) for k, (s, t, _) in enumerate(arrows)),
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
            [0],
            meta={"name": "Q"},
        )
    return _SCALAR


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra with basis pairs ordered a-major.

    Both factors sit in degree zero so no sign is involved.  Tensoring with
    the scalar singleton returns the other factor unchanged (the pair
    indexing then degenerates to the identity, so no relabelling is needed).
    Any other pair is built once, memoized on a, if its dimension is at
    most MAX_TENSOR_DIM; past that TensorTooLargeError is raised."""
    if a is scalar_algebra():
        return b
    if b is scalar_algebra():
        return a
    if a.dim * b.dim > MAX_TENSOR_DIM:
        raise TensorTooLargeError(
            f"the tensor product of algebras of dimensions {a.dim} and {b.dim} "
            f"has dimension {a.dim * b.dim}, more than {MAX_TENSOR_DIM}"
        )
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
    return Algebra(
        dim,
        labels,
        mul,
        [g * b_dim + h for g in a.idempotents for h in b.idempotents],
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


def join_pair_basis(right: Algebra, i: int, j: int) -> int:
    """The basis index of the pair (i, j) in tensor(left, right); the pair
    indexing depends on the right factor alone."""
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
