"""The Beilinson algebras of projective spaces, written as `table` specs.

The Beilinson algebra B_n of P^n is the endomorphism algebra of the
exceptional collection O, O(1), ..., O(n).  It has one vertex per line
bundle, and on each pair of vertices i <= j its basis is the sorted
monomials of degree j - i in the n + 1 variables x0, ..., xn (the
morphisms O(i) -> O(j)); the product of a monomial on (i, j) and one on
(j, k) is their product on (i, k), and every other product is zero.  The
package has no notion of a projective space: these inputs reach it only as
structure constants, so every block of their perfect complexes comes from
a non-path algebra.
"""

from itertools import combinations_with_replacement
from math import comb


def beilinson_basis(n):
    """The basis of B_n as (i, j, monomial) triples: pairs i <= j in
    lexicographic order, each followed by its sorted monomials of degree
    j - i, a monomial being the sorted tuple of its variables."""
    return [
        (i, j, mono)
        for i in range(n + 1)
        for j in range(i, n + 1)
        for mono in combinations_with_replacement(range(n + 1), j - i)
    ]


def beilinson_spec(n):
    """B_n as a `table` algebra spec (docs/formats.md)."""
    basis = beilinson_basis(n)
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    mul = []
    for i, j, mono in basis:
        row = []
        for j2, k, mono2 in basis:
            vec = [0] * dim
            if j == j2:
                vec[index[(i, k, tuple(sorted(mono + mono2)))]] = 1
            row.append(vec)
        mul.append(row)
    idempotents = [[1 if b == (i, i, ()) else 0 for b in basis] for i in range(n + 1)]
    return {
        "format": 1,
        "kind": "table",
        "dim": dim,
        "labels": [
            f"e{i}" if i == j else f"{i}-{j}:" + "".join(f"x{v}" for v in mono)
            for i, j, mono in basis
        ],
        "mul": mul,
        "unit": [sum(col) for col in zip(*idempotents)],
        "idempotents": idempotents,
    }


def beilinson_cartan(n):
    """The Cartan matrix dim(e_i B_n e_j) = binom(n + j - i, n) for i <= j,
    and 0 below the diagonal."""
    return [[comb(n + j - i, n) if i <= j else 0 for j in range(n + 1)] for i in range(n + 1)]
