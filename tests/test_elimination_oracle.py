"""Exact elimination against sympy on unnormalized input.

Matrix keeps its entries as given, so ints, proper Fractions and integral
Fractions such as Fraction(4, 2) meet in one matrix.  The reduced row
echelon form (RowBasis, whatever the order of its rows), rank, determinant,
kernel dimension and solvability must agree with sympy, and what
elimination returns must be normalized: no integral Fraction comes out of
kernel_basis, solve or det.  The determinant is also checked on the empty
matrix, on singular matrices and on matrices with permuted rows.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dense_reference import solve  # noqa: E402
from ncmotives.linalg import Matrix, RowBasis  # noqa: E402

SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-4, 4).map(lambda n: Fraction(2 * n, 2)),
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    data = draw(st.lists(st.lists(SCALARS, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(rows, cols, data)


def to_sympy(m: Matrix):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for r in m.data for x in r]
    )


def is_normalized(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@SETTINGS
@given(matrices())
def test_rank_and_kernel_agree_with_sympy(m):
    rank = to_sympy(m).rank()
    assert m.rank() == rank
    basis = m.kernel_basis()
    assert len(basis) == m.cols - rank
    for v in basis:
        assert all(is_normalized(x) for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.data)


@st.composite
def singular_matrices(draw):
    """A square matrix with one row a combination of the others."""
    m = draw(matrices(square=True))
    k = draw(st.integers(0, m.rows - 1))
    coeffs = draw(st.lists(SCALARS, min_size=m.rows, max_size=m.rows))
    others = [(c, r) for i, (c, r) in enumerate(zip(coeffs, m.data)) if i != k]
    data = list(m.data)
    data[k] = [sum(c * r[j] for c, r in others) for j in range(m.cols)]
    return Matrix(m.rows, m.cols, data)


@st.composite
def row_permuted(draw):
    """A square matrix with its rows in a drawn order, which moves the
    pivots of the elimination out of column order."""
    m = draw(matrices(square=True))
    return Matrix(m.rows, m.cols, draw(st.permutations(m.data)))


@SETTINGS
@given(st.one_of(matrices(square=True), singular_matrices(), row_permuted()))
@example(Matrix(0, 0, []))
@example(Matrix(2, 2, [[0, 1], [1, 0]]))
@example(Matrix(3, 3, [[0, 0, 2], [3, 0, 0], [0, Fraction(1, 2), 0]]))
def test_det_agrees_with_sympy(m):
    d = m.det()
    assert is_normalized(d)
    assert d == Fraction(str(to_sympy(m).det()))


@st.composite
def systems(draw):
    m = draw(matrices())
    return m, draw(st.lists(SCALARS, min_size=m.rows, max_size=m.rows))


@SETTINGS
@given(systems())
# a unit pivot leaves its row unscaled, so the right-hand side passes through
@example((Matrix(1, 1, [[1]]), [Fraction(4, 2)]))
def test_solve_agrees_with_sympy(system):
    m, b = system
    x = solve(m, b)
    sm = to_sympy(m)
    consistent = sm.rank() == sm.row_join(to_sympy(Matrix(m.rows, 1, [[c] for c in b]))).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert all(is_normalized(c) for c in x)
        assert [sum(a * c for a, c in zip(row, x)) for row in m.data] == b


def sympy_echelon_form(m: Matrix):
    """(nonzero rows as Fractions, pivot columns) of sympy's rref of m."""
    r, pivots = to_sympy(m).rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in r.row(i)] for i in range(len(pivots))]
    return rows, list(pivots)


@SETTINGS
@given(matrices())
def test_echelon_form_agrees_with_sympy(m):
    assert m.rref() == sympy_echelon_form(m)


@st.composite
def shuffled(draw):
    m = draw(matrices())
    return m, draw(st.permutations(m.data))


@SETTINGS
@given(shuffled())
def test_row_basis_in_any_order_is_the_echelon_form(case):
    m, rows = case
    rb = RowBasis(m.cols).extend(rows)
    assert (rb.rows, rb.pivots) == sympy_echelon_form(m)


@SETTINGS
@given(systems())
@example((Matrix(2, 1, [[1], [Fraction(4, 2)]]), [1, 3]))
@example((Matrix(1, 2, [[0, 0]]), [Fraction(1, 3)]))
def test_solve_is_none_exactly_on_inconsistent_systems(system):
    m, b = system
    rhs = sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in b])
    try:
        to_sympy(m).gauss_jordan_solve(rhs)
    except ValueError:
        consistent = False
    else:
        consistent = True
    assert (solve(m, b) is not None) == consistent
