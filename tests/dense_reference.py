"""Dense helpers and small constructions, kept as test-side references.

The package reads module actions sparsely; it never solves a system, sums
matrices, builds a regular module, turns a submodule into a Module of its
own or shifts a complex that is not perfect.  The tests check the package
against the dense forms here (solve, matrix_sum, right_matrix,
submodule_from_rowbasis) and build their cases from the rest.  The package
writes an algebra element as its nonzero (index, coefficient) pairs;
basis_vector and act_vector are the dense coordinate forms the tests use.
"""

from ncmotives.complexes import Complex
from ncmotives.linalg import Matrix, RowBasis, norm_scalar
from ncmotives.modules import Module


def from_rows(rows, cols: int | None = None) -> Matrix:
    """The matrix with the given rows; cols is needed only when there are none."""
    rows = [list(r) for r in rows]
    if cols is None:
        if not rows:
            raise ValueError("cannot infer width of an empty matrix")
        cols = len(rows[0])
    return Matrix(len(rows), cols, rows)


def solve(m: Matrix, b):
    """Any exact solution x of M x = b (b of length m.rows), or None; the
    entries of x are normalized scalars."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    rb = RowBasis(m.cols + 1).extend(row + [c] for row, c in zip(m.data, b))
    if m.cols in rb.pivots:
        return None
    x = [0] * m.cols
    for row, p in zip(rb.rows, rb.pivots):
        x[p] = norm_scalar(row[m.cols])
    return x


def matrix_sum(terms, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix sum of c * m over (m, c) terms, accumulated in
    one pass over the entries; a lone term with c == 1 is returned as is."""
    terms = [(m, c) for m, c in terms if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    out = [[0] * cols for _ in range(rows)]
    for m, c in terms:
        for acc, row in zip(out, m.data):
            for j, x in enumerate(row):
                if x:
                    acc[j] += c * x
    return Matrix(rows, cols, out)


def basis_vector(a, i):
    """The coordinate vector of basis element i of the algebra a."""
    v = [0] * a.dim
    v[i] = 1
    return v


def act_vector(m: Module, v, coeffs):
    """The row vector v times the algebra element with coordinates coeffs,
    through Module.times."""
    return m.times(v, [(k, c) for k, c in enumerate(coeffs) if c])


def right_matrix(a, j) -> Matrix:
    """R_j with row convention: row(x * b_j) = row(x) * R_j, densified from
    the sparse structure constants."""
    rows = []
    for products in a.mul:
        row = [0] * a.dim
        for k, c in products[j]:
            row[k] = c
        rows.append(row)
    return Matrix(a.dim, a.dim, rows)


def regular_module(a) -> Module:
    """A as a right module over itself."""
    return Module(a, a.dim, [right_matrix(a, j) for j in range(a.dim)])


def submodule_from_rowbasis(m: Module, rb: RowBasis):
    """The action-closed span rb of m as a module of its own, with one dense
    action matrix per algebra basis element.

    Returns (Module, RowBasis, inclusion matrix sub -> m)."""
    d = rb.dim
    action = []
    for j in range(m.algebra.dim):
        rows = []
        for r in rb.rows:
            cs = rb.coords(m.times(r, ((j, 1),)))
            if cs is None:
                raise ValueError("span is not action-closed")
            rows.append(cs)
        action.append(Matrix(d, d, rows))
    incl = Matrix(d, m.dim, [r[:] for r in rb.rows])
    return Module(m.algebra, d, action), rb, incl


def span_submodule(m: Module, generators):
    """Smallest submodule containing the generators.

    Returns (Module, RowBasis, inclusion matrix sub -> m)."""
    rb = RowBasis(m.dim)
    work = []
    for g in generators:
        if rb.add(g):
            work.append(list(g))
    while work:
        v = work.pop()
        for j in range(m.algebra.dim):
            w = m.times(v, ((j, 1),))
            if rb.add(w):
                work.append(w)
    return submodule_from_rowbasis(m, rb)


def single_module_complex(m: Module, degree: int = 0) -> Complex:
    return Complex(m.algebra, {degree: m}, {}, check=False)


def shift(c: Complex, k: int) -> Complex:
    """shift(C, k)^n = C^{n-k} with d negated for odd k (the convention of
    PerfectComplex.shift, for any complex)."""
    sign = -1 if k % 2 else 1
    diffs = {
        n + k: Matrix(d.rows, d.cols, [[sign * x for x in r] for r in d.data])
        for n, d in c.differentials.items()
    }
    return Complex(c.algebra, {n + k: m for n, m in c.components.items()}, diffs, check=False)


def degrees(c: Complex):
    return range(c.lo, c.hi + 1)


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of the component dimensions."""
    return sum((-1 if n % 2 else 1) * m.dim for n, m in c.components.items())


def hh_euler(profile) -> int:
    """Alternating sum of the dimensions of a Hochschild profile."""
    return sum((-1) ** n * d for n, d in enumerate(profile.dims))
