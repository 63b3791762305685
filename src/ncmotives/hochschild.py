"""Hochschild homology with bimodule coefficients and the intersection pairing.

The production computation tensors the (short) minimal resolution of the
diagonal bimodule against the coefficients over the enveloping algebra;
HH_n is the cohomology of that complex in degree -n.  The bar complex
W (x) A^{(x) n} with the standard face-map differential is retained as an
independent oracle up to a degree cap: its terms grow like dim(W) dim(A)^n,
so its ranks are taken by a private sparse elimination (the dense Matrix
type remains the public contract of the linear algebra layer).

Intersection numbers of correspondences are alternating sums of Hochschild
dimensions of composed bimodules.  The Euler characteristic of a bounded
complex equals the alternating sum of its component dimensions, so these
need only the Grothendieck class of the coefficients (derived.k0_class, or
homalg.tensor_class for a composite), paired with the copy weights of the
diagonal resolution; never homology.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import (
    Algebra,
    join_pair_basis,
    opposite,
    scalar_algebra,
    tensor,
)
from .complexes import Complex, as_complex
from .derived import diagonal_resolution, k0_class
from .homalg import tensor_class, tensor_over
from .linalg import as_fraction, matrix_sum, norm_scalar
from .modules import Module, left_structure_module
from .resolutions import DEFAULT_CAP


class HHProfile(
    namedtuple("HHProfile", "algebra dims coefficients", defaults=("",))
):
    __slots__ = ()

    def euler(self) -> int:
        return sum((-1) ** n * d for n, d in enumerate(self.dims))


def _left_structure_complex(w, a: Algebra) -> Complex:
    """Componentwise left-module structure of a complex of A-A-bimodules."""
    w = as_complex(w)
    comps = {n: left_structure_module(m, a) for n, m in w.components.items()}
    alg = opposite(tensor(opposite(a), a))
    return Complex(alg, comps, dict(w.differentials), check=False)


def hochschild(a: Algebra, w, top: int | None = None, cap: int = DEFAULT_CAP) -> HHProfile:
    """Hochschild homology dimensions of A with coefficients in a bimodule
    (or bounded complex of bimodules) over tensor(op(A), A).

    HH_n is the cohomology in degree -n of
    (diagonal resolution) (x)_{A^e} coefficients.  The coefficients must
    have no component in a positive degree (ValueError otherwise): the
    total complex then sits in degrees <= 0, so no homology is dropped."""
    diag = diagonal_resolution(a, cap)
    wc = as_complex(w)
    q = scalar_algebra()
    env = tensor(opposite(a), a)
    if wc.algebra is not env:
        raise ValueError("coefficients are not bimodules over tensor(op(A), A)")
    if wc.hi > 0:
        raise ValueError("coefficients have a component in a positive degree")
    t = tensor_over(diag, _left_structure_complex(wc, a), q, env, q, check=False)
    if top is None:
        top = max(0, -t.lo) if not t.is_zero() else 0
    dims = [t.homology(-n)[0] for n in range(top + 1)]
    return HHProfile(a, dims, coefficients="bimodule")


def hochschild_euler(a: Algebra, w, cap: int = DEFAULT_CAP) -> int:
    """Alternating sum of Hochschild dimensions: the Euler characteristic of
    (diagonal resolution) (x)_{A^e} W, read from the class of W alone."""
    k = k0_class(w)
    if k.algebra is not tensor(opposite(a), a):
        raise ValueError("coefficients are not bimodules over tensor(op(A), A)")
    return _pair_with_diagonal(a, k.coords, cap)


def _pair_with_diagonal(a: Algebra, coords, cap: int) -> int:
    """Pair the copy weights of the diagonal resolution with a class over
    tensor(op(A), A); the pair (u, v) meets (v, u), since the tensor product
    reads the coefficients through their left structure."""
    weights = diagonal_resolution(a, cap).euler_copy_weights()
    n_a = len(a.idempotents)
    total = 0
    for r, w in enumerate(weights):
        if w:
            u, v = divmod(r, n_a)
            total += w * coords[v * n_a + u]
    return total


# -- bar complex oracle ---------------------------------------------------------


def bar_oracle(a: Algebra, w: Module, top: int = 4) -> HHProfile:
    """Hochschild homology of A with coefficients in a single bimodule via
    the standard bar complex W (x) A^{(x) n}, n <= top.

    dims[n] = dim C_n - rank d_n - rank d_{n+1}."""
    env = tensor(opposite(a), a)
    if w.algebra is not env:
        raise ValueError("coefficients are not bimodules over tensor(op(A), A)")
    dim_w = w.dim
    dim_a = a.dim

    right_rows = []
    left_rows = []
    op_a = opposite(a)
    for t in range(dim_a):
        rterms = [(w.action[join_pair_basis(op_a, a, i, t)], u) for i, u in enumerate(a.unit)]
        lterms = [(w.action[join_pair_basis(op_a, a, t, i)], u) for i, u in enumerate(a.unit)]
        racc = matrix_sum(rterms, dim_w, dim_w)
        lacc = matrix_sum(lterms, dim_w, dim_w)
        right_rows.append([_sparse_row(r) for r in racc.data])
        left_rows.append([_sparse_row(r) for r in lacc.data])

    def comp_dim(n):
        return dim_w * dim_a**n

    ranks = [0] * (top + 2)  # ranks[n] = rank of d_n : C_n -> C_{n-1}
    for n in range(1, top + 2):
        rows = _bar_differential_rows(a, dim_w, right_rows, left_rows, n)
        ranks[n] = _sparse_rank(rows)
    dims = [comp_dim(n) - ranks[n] - ranks[n + 1] for n in range(top + 1)]
    return HHProfile(a, dims, coefficients="bar")


def _sparse_row(dense):
    return {j: v for j, v in enumerate(dense) if v}


def _bar_differential_rows(a: Algebra, dim_w, right_rows, left_rows, n):
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


def _sparse_rank(rows) -> int:
    """Exact rank of a sparse matrix given as row dicts.

    Greedy pivoting prefers short rows with a unit entry, which keeps the
    elimination integral for the incidence-like matrices the bar complex
    produces; other pivots fall back to exact fractions."""
    import heapq

    rows = [dict(r) for r in rows if r]
    col_to_rows: dict = {}
    for ri, r in enumerate(rows):
        for c in r:
            col_to_rows.setdefault(c, set()).add(ri)
    alive = set(range(len(rows)))
    heap = [(len(r), ri) for ri, r in enumerate(rows)]
    heapq.heapify(heap)
    rank = 0
    while heap:
        sz, ri = heapq.heappop(heap)
        if ri not in alive:
            continue
        row = rows[ri]
        if not row:
            alive.discard(ri)
            continue
        if len(row) != sz:
            heapq.heappush(heap, (len(row), ri))
            continue
        best = None
        for c, v in row.items():
            cand = (0 if v == 1 or v == -1 else 1, len(col_to_rows.get(c, ())), c)
            if best is None or cand < best[0]:
                best = (cand, c)
        piv_col = best[1]
        piv_val = row[piv_col]
        rank += 1
        alive.discard(ri)
        sharing = col_to_rows.pop(piv_col, set())
        for c in row:
            if c != piv_col and c in col_to_rows:
                col_to_rows[c].discard(ri)
        for rj in sharing:
            if rj not in alive:
                continue
            other = rows[rj]
            val = other.get(piv_col)
            if not val:
                continue
            if piv_val == 1:
                factor = val
            elif piv_val == -1:
                factor = -val
            else:
                factor = norm_scalar(as_fraction(val) / as_fraction(piv_val))
            for c, v in row.items():
                nv = norm_scalar(other.get(c, 0) - factor * v)
                if nv:
                    if c not in other:
                        col_to_rows.setdefault(c, set()).add(rj)
                    other[c] = nv
                else:
                    if c in other:
                        del other[c]
                        if c in col_to_rows:
                            col_to_rows[c].discard(rj)
            heapq.heappush(heap, (len(other), rj))
    return rank


# -- intersection numbers ---------------------------------------------------------


def intersection_number(x, y, cap: int = DEFAULT_CAP) -> int | Fraction:
    """Intersection pairing of correspondences x: (A,e) -> (B,e') and
    y: (B,e') -> (A,e): the bilinear combination over term pairs of the
    alternating Hochschild dimension sums of X_i (x)_B Y_j."""
    if x.source.algebra is not y.target.algebra or x.target.algebra is not y.source.algebra:
        raise ValueError("correspondence endpoints do not chain")
    a = x.source.algebra
    b = x.target.algebra
    total = 0
    for cx, xt in x.terms:
        for cy, yt in y.terms:
            total += cx * cy * _pair_with_diagonal(a, tensor_class(xt, yt, a, b, a), cap)
    return total
