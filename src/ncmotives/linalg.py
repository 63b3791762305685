"""Exact dense linear algebra over the rationals.

Scalars are python ints or ``fractions.Fraction``; every operation is exact.
Vectors are plain lists of scalars (row vectors unless stated otherwise),
matrices are dense and immutable by convention.

RowBasis, the canonical reduced row echelon form of a span, is the one
elimination engine: Matrix.rref, rank, kernel_basis and det read it, and so
do the package's subspaces and bar-complex ranks.  The canonical form
does not depend on the order of the rows, so echelon forms, kernel bases
and coordinates are deterministic.  det reads its pivot values from
RowBasis.reduce, before RowBasis.add scales them to 1.

Scalars are not kept in a canonical type: sums and products are stored as
they come, so an integral ``Fraction`` such as ``Fraction(4, 2)`` may sit
where an int would.  Comparison and hashing treat the two alike.
``norm_scalar`` collapses integral Fractions to int only where division
happens (``RowBasis``, ``det``) and where a scalar leaves (``trace``,
``kernel_basis`` and the JSON writer).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

EXACT_TYPES = frozenset((int, Fraction))


def norm_scalar(x):
    """Collapse integral Fractions back to int (keeps arithmetic fast)."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact scalar: {x!r}")


@contextmanager
def unbounded_int_text():
    """Lift CPython's limit on the digits of an int written as text
    (sys.set_int_max_str_digits, 4300 by default) inside the block.  Input
    is read under the limit; exact results are written without it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def exact_text(x) -> str:
    """str(x) for an exact scalar, or a list of them, of any length."""
    with unbounded_int_text():
        return str(x)


def vec_is_zero(v) -> bool:
    return all(x == 0 for x in v)


class Matrix:
    """Dense rows x cols matrix of exact scalars.

    Entries must be ints or Fractions (anything else raises TypeError) and
    are kept as given, so an integral Fraction may appear; ``det`` and
    ``kernel_basis`` return normalized scalars.  Rows act on the left of
    column vectors in ``kernel_basis``; the rest of the package multiplies
    row vectors on the right (``row_times``), which composes maps left to
    right.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = [r if type(r) is list else list(r) for r in data]
        if len(data) != rows or not set(map(len, data)) <= {cols}:
            raise ValueError("matrix data has wrong shape")
        if not set(map(type, chain.from_iterable(data))) <= EXACT_TYPES:
            bad = next(x for x in chain.from_iterable(data) if type(x) not in EXACT_TYPES)
            raise TypeError(f"not an exact scalar: {bad!r}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(odata[k]):
                        if b:
                            acc[j] += a * b
        return Matrix(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (the nonzero rows, their pivot columns),
        as kept by a RowBasis of the rows."""
        rb = RowBasis(self.cols).extend(self.data)
        return rb.rows, rb.pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right null space {v : M v = 0}, as column vectors
        (returned as plain lists).  Empty iff the matrix is injective on
        columns.  Free coordinates are taken in ascending column order and
        each basis vector has a 1 in its free coordinate."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [0] * self.cols
            v[free] = 1
            for r, p in enumerate(pivots):
                v[p] = norm_scalar(-rows[r][free])
            basis.append(v)
        return basis

    def left_kernel_basis(self):
        """Basis of {v : v M = 0} (row vectors)."""
        return self.transpose().kernel_basis()

    def det(self):
        """Determinant, read from RowBasis: each row is reduced against the
        span of the rows above it.  With the columns taken in pivot order
        the residuals form a triangular matrix of the same determinant up
        to the sign of that reordering, so det is the signed product of
        their pivot values; it is 0 at the first row in the span of those
        above."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rb = RowBasis(self.cols)
        det = 1
        for row in self.data:
            v = rb.reduce(row)
            p = next((j for j, x in enumerate(v) if x), None)
            if p is None:
                return 0
            # each earlier pivot right of p is one inversion of the pivot order
            if sum(q > p for q in rb.pivots) % 2:
                det = -det
            det *= v[p]
            rb.add(v)
        return norm_scalar(det)


def nonzero_pairs(v):
    """The nonzero (index, entry) pairs of a dense vector, in index order:
    the form of a sparse row and of an algebra element."""
    return tuple((k, c) for k, c in enumerate(v) if c)


def row_times(v, m: Matrix):
    """Row vector times matrix: the action of a map on an element."""
    if len(v) != m.rows:
        raise ValueError("row vector has wrong length")
    out = [0] * m.cols
    for i, a in enumerate(v):
        if a:
            for j, b in enumerate(m.data[i]):
                if b:
                    out[j] += a * b
    return out


class RowBasis:
    """A subspace of Q^n kept in reduced row echelon form: the package's one
    elimination engine (see the module docstring).

    The stored rows are the canonical RREF basis of the span, so two
    RowBasis objects for the same subspace hold identical rows no matter
    the insertion order.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @classmethod
    def full(cls, n: int) -> "RowBasis":
        """All of Q^n, spanned by its unit vectors."""
        rb = cls(n)
        rb.rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rb.pivots = list(range(n))
        return rb

    def __len__(self):
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v):
        """Residual of v after reduction modulo the span."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [norm_scalar(x - c * y) if y else x for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return vec_is_zero(self.reduce(v))

    def coords(self, v):
        """Coefficients of v over the stored rows, or None if v is outside."""
        v = list(v)
        cs = [0] * len(self.rows)
        for i, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = v[p]
            if c:
                cs[i] = c
                v = [norm_scalar(x - c * y) if y else x for x, y in zip(v, row)]
        if not vec_is_zero(v):
            return None
        return cs

    def add(self, v) -> bool:
        """Insert v into the span.  Returns True if the dimension grew."""
        v = self.reduce(v)
        p = next((j for j, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        pv = v[p]
        if pv != 1:
            inv = Fraction(1) / pv
            v = [norm_scalar(x * inv) if x else 0 for x in v]
        # keep existing rows reduced against the new pivot
        for i, row in enumerate(self.rows):
            c = row[p]
            if c:
                self.rows[i] = [
                    norm_scalar(x - c * y) if y else x for x, y in zip(row, v)
                ]
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < p:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return True

    def extend(self, vectors):
        for v in vectors:
            self.add(v)
        return self


def span_equal(u: RowBasis, v: RowBasis) -> bool:
    """Mutual containment of two subspaces."""
    if u.ambient != v.ambient:
        return False
    return all(v.contains(r) for r in u.rows) and all(u.contains(r) for r in v.rows)
