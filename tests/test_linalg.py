import random
from fractions import Fraction

import pytest

from dense_reference import from_rows, matrix_sum, solve
from ncmotives.linalg import Matrix, RowBasis, row_times, span_equal


def test_rank_identity():
    assert Matrix.identity(2).rank() == 2


def test_rank_zero():
    assert Matrix.zeros(3, 4).rank() == 0


def test_rank_proportional_rows():
    assert from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(2).kernel_basis() == []


def test_kernel_zero_full():
    basis = Matrix.zeros(2, 2).kernel_basis()
    assert len(basis) == 2


def test_kernel_one_relation():
    (v,) = from_rows([[1, 1]]).kernel_basis()
    # proportional to (1, -1)
    assert v[0] * (-1) == v[1] and any(v)


def test_solve_identity():
    assert solve(Matrix.identity(2), [3, 5]) == [3, 5]


def test_solve_inconsistent():
    assert solve(from_rows([[1, 0], [0, 0]]), [0, 1]) is None


def test_solve_scalar():
    assert solve(from_rows([[2]]), [1]) == [Fraction(1, 2)]


def test_solve_dimension_mismatch():
    try:
        solve(from_rows([[1, 0]]), [1, 2])
    except ValueError:
        return
    raise AssertionError("expected a dimension error")


def test_rank_nullity_random(rng):
    for _ in range(30):
        r = rng.randint(0, 5)
        c = rng.randint(1, 5)
        m = Matrix(r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        kern = m.kernel_basis()
        assert m.rank() + len(kern) == c
        for v in kern:
            image = [sum(row[j] * v[j] for j in range(c)) for row in m.data]
            assert all(x == 0 for x in image)


def test_fraction_arithmetic_properties(rng):
    def rand_q():
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    for _ in range(50):
        a, b, c = rand_q(), rand_q(), rand_q()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_row_times_matches_transposed_solve():
    m = from_rows([[1, 2, 0], [0, 1, 1]])
    assert row_times([1, 1], m) == [1, 3, 1]


def test_rowbasis_canonical_under_insertion_order(rng):
    vecs = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]
    rb1 = RowBasis(5)
    for v in vecs:
        rb1.add(v)
    rb2 = RowBasis(5)
    for v in reversed(vecs):
        rb2.add(v)
    assert rb1.rows == rb2.rows and rb1.pivots == rb2.pivots


def test_rowbasis_coords_roundtrip(rng):
    rb = RowBasis(4)
    rb.add([1, 2, 0, 0])
    rb.add([0, 0, 1, 1])
    v = [2, 4, 3, 3]
    cs = rb.coords(v)
    rebuilt = [0, 0, 0, 0]
    for c, row in zip(cs, rb.rows):
        rebuilt = [x + c * y for x, y in zip(rebuilt, row)]
    assert rebuilt == v
    assert rb.coords([1, 0, 0, 0]) is None


def test_span_equal():
    u = RowBasis(3).extend([[1, 0, 0], [0, 1, 0]])
    v = RowBasis(3).extend([[1, 1, 0], [1, -1, 0]])
    w = RowBasis(3).extend([[1, 0, 0]])
    assert span_equal(u, v)
    assert not span_equal(u, w)


def test_det():
    assert from_rows([[1, -1], [0, 1]]).det() == 1
    assert from_rows([[0, 1], [1, 0]]).det() == -1
    assert from_rows([[2, 0], [0, 3]]).det() == 6
    assert from_rows([[1, 2], [2, 4]]).det() == 0


def test_matrix_rejects_inexact_entries():
    with pytest.raises(TypeError):
        Matrix(2, 2, [[1, 0], [0, 0.5]])
    with pytest.raises(TypeError):
        from_rows([[1.0]])


def test_matrix_keeps_integral_fractions_but_compares_exactly():
    m = Matrix(1, 2, [[Fraction(4, 2), Fraction(1, 2)]])
    assert m == Matrix(1, 2, [[2, Fraction(1, 2)]])
    assert hash(m) == hash(Matrix(1, 2, [[2, Fraction(1, 2)]]))


def _random_scalar(rng):
    return rng.choice(
        [0, 0, rng.randint(-3, 3), Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
    )


def test_matrix_sum_matches_chained_sum():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        terms = [
            (
                Matrix(rows, cols, [[_random_scalar(rng) for _ in range(cols)] for _ in range(rows)]),
                _random_scalar(rng),
            )
            for _ in range(rng.randint(0, 4))
        ]
        chained = [[0] * cols for _ in range(rows)]
        for m, c in terms:
            chained = [[x + c * y for x, y in zip(r, s)] for r, s in zip(chained, m.data)]
        assert matrix_sum(terms, rows, cols) == Matrix(rows, cols, chained)
