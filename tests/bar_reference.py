"""The absolute bar complex W (x) A^{(x) n}, kept as a test-side reference for
hochschild.bar_oracle (which works relative to the vertex idempotents).

It needs no Peirce structure, only the structure constants and the action
of W, so it checks the relative complex from outside; its terms grow like
dim(W) dim(A)^n, so it is meant for small algebras and low degrees.  Its
ranks come from sympy's sparse DomainMatrix over QQ, an elimination
independent of the package's RowBasis.
"""

from dense_reference import matrix_sum
from ncmotives.algebra import hom_algebra, join_pair_basis
from ncmotives.linalg import norm_scalar


def absolute_bar_dims(a, w, top):
    """Hochschild dimensions of A with coefficients in the bimodule w, in
    degrees n <= top: dims[n] = dim C_n - rank d_n - rank d_{n+1}."""
    env = hom_algebra(a, a)
    if w.algebra is not env:
        raise ValueError("coefficients are not bimodules over tensor(op(A), A)")
    right_rows = []
    left_rows = []
    for t in range(a.dim):
        rterms = [(w.act_matrix(((join_pair_basis(a, i, t), 1),)), u) for i, u in a.unit]
        lterms = [(w.act_matrix(((join_pair_basis(a, t, i), 1),)), u) for i, u in a.unit]
        right_rows.append([_sparse(r) for r in matrix_sum(rterms, w.dim, w.dim).data])
        left_rows.append([_sparse(r) for r in matrix_sum(lterms, w.dim, w.dim).data])
    ranks = [0] * (top + 2)  # ranks[n] = rank of d_n : C_n -> C_{n-1}
    for n in range(1, top + 2):
        rows = bar_differential_rows(a, w.dim, right_rows, left_rows, n)
        ranks[n] = _rank(rows, w.dim * a.dim ** (n - 1))
    return [w.dim * a.dim**n - ranks[n] - ranks[n + 1] for n in range(top + 1)]


def _rank(rows, cols):
    """Rank over QQ of the matrix with the given sparse row dicts."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    data = {
        i: {j: QQ(v.numerator, v.denominator) for j, v in row.items()}
        for i, row in enumerate(rows)
    }
    return DomainMatrix(data, (len(rows), cols), QQ).rank()


def _sparse(dense):
    return {j: v for j, v in enumerate(dense) if v}


def bar_differential_rows(a, dim_w, right_rows, left_rows, n):
    """Rows of d_n : W (x) A^{(x)n} -> W (x) A^{(x)n-1} as sparse dicts.

    d(w, t1..tn) = (w t1, t2..) + sum_i (-1)^i (w, .., t_i t_{i+1}, ..)
                   + (-1)^n (t_n w, t1..t_{n-1}).
    Basis index of (w, t1..tn) is w + dim_w * (t1 + dim_a * (t2 + ...))."""
    dim_a = a.dim
    mul = a.mul
    rows = []
    tuples = [()]
    for _ in range(n):
        tuples = [t + (x,) for t in tuples for x in range(dim_a)]

    def enc(widx, ts):
        idx = 0
        for t in reversed(ts):
            idx = idx * dim_a + t
        return widx + dim_w * idx

    sign_n = -1 if n % 2 else 1
    for ts in tuples:
        for widx in range(dim_w):
            row: dict = {}
            for w2, c in right_rows[ts[0]][widx].items():
                key = enc(w2, ts[1:])
                row[key] = row.get(key, 0) + c
            sign = 1
            for i in range(n - 1):
                sign = -sign
                for k, c in mul[ts[i]][ts[i + 1]]:
                    key = enc(widx, ts[:i] + (k,) + ts[i + 2 :])
                    row[key] = row.get(key, 0) + sign * c
            for w2, c in left_rows[ts[-1]][widx].items():
                key = enc(w2, ts[:-1])
                row[key] = row.get(key, 0) + sign_n * c
            row = {k: norm_scalar(v) for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows
