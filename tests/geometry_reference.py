"""Reference algebras written as specs: the Beilinson algebras of projective
spaces as `table` specs, and the quivers of the Hom-space ladder.

The Beilinson algebra B_n of P^n is the endomorphism algebra of the
exceptional collection O, O(1), ..., O(n).  It has one vertex per line
bundle, and on each pair of vertices i <= j its basis is the sorted
monomials of degree j - i in the n + 1 variables x0, ..., xn (the
morphisms O(i) -> O(j)); the product of a monomial on (i, j) and one on
(j, k) is their product on (i, k), and every other product is zero.  The
package has no notion of a projective space: these inputs reach it only as
structure constants, so every block of their perfect complexes comes from
a non-path algebra.

Ringel's canonical algebra C(2,2,2) is written the same way.  It is the
quiver with arrows a_i: 0 -> i and b_i: i -> 4 (i = 1, 2, 3) bound by
a_3 b_3 = a_1 b_1 - a_2 b_2: the one input here whose structure constants
have a product with two terms and a negative coefficient.

Beilinson's exterior algebra Lambda_n of P^n is the endomorphism algebra of
the other exceptional collection, Omega^n(n), ..., Omega^1(1), O: the same
quiver as B_n, with the exterior monomials of degree j - i on each pair
i <= j.  It is derived equivalent to B_n but shares none of its structure
constants: every product of two non-idempotent monomials is 0 or carries a
sign.

The path algebras of the Hom-space ladder are written as `quiver` specs:
the line quiver A_n and the Kronecker quiver K_k with k parallel arrows.
"""

from itertools import combinations, combinations_with_replacement
from math import comb


def line_spec(n):
    """A_n: the quiver 0 -> 1 -> ... -> n-1, with arrows a0, ..., a{n-2}."""
    arrows = [{"from": i, "to": i + 1, "label": f"a{i}"} for i in range(n - 1)]
    return {"format": 1, "kind": "quiver", "vertices": n, "arrows": arrows}


def kronecker_spec(k):
    """K_k: two vertices and k arrows 0 -> 1, labelled a, b, c, ..."""
    arrows = [{"from": 0, "to": 1, "label": chr(ord("a") + i)} for i in range(k)]
    return {"format": 1, "kind": "quiver", "vertices": 2, "arrows": arrows}


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


def exterior_spec(n):
    """Lambda_n as a `table` spec of dimension 4, 12, 32 for n = 1, 2, 3.
    Its basis is (i, j, S) for i <= j and S a subset of {0, ..., n} of size
    j - i; the product of (i, j, S) and (j, k, T) is 0 if S and T meet,
    and otherwise (i, k, S u T) times the sign of the permutation sorting
    S followed by T."""
    basis = [
        (i, j, subset)
        for i in range(n + 1)
        for j in range(i, n + 1)
        for subset in combinations(range(n + 1), j - i)
    ]
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    mul = []
    for i, j, subset in basis:
        row = []
        for j2, k, subset2 in basis:
            vec = [0] * dim
            if j == j2 and not set(subset) & set(subset2):
                inversions = sum(s > t for s in subset for t in subset2)
                vec[index[(i, k, tuple(sorted(subset + subset2)))]] = (-1) ** inversions
            row.append(vec)
        mul.append(row)
    idempotents = [[1 if b == (i, i, ()) else 0 for b in basis] for i in range(n + 1)]
    return {
        "format": 1,
        "kind": "table",
        "dim": dim,
        "labels": [
            f"e{i}" if i == j else f"{i}-{j}:" + "^".join(f"y{v}" for v in subset)
            for i, j, subset in basis
        ],
        "mul": mul,
        "unit": [sum(col) for col in zip(*idempotents)],
        "idempotents": idempotents,
    }


def canonical_spec():
    """Ringel's canonical algebra C(2,2,2) as a `table` spec of dimension
    13: the idempotents e0..e4, the arrows a1..a3 and b1..b3, and the paths
    c1 = a1 b1 and c2 = a2 b2 from 0 to 4; a3 b3 = c1 - c2.  Paths compose
    left to right, as in the Beilinson algebras above."""
    labels = [f"e{i}" for i in range(5)] + ["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2"]
    index = {name: k for k, name in enumerate(labels)}
    ends = {f"e{i}": (i, i) for i in range(5)}
    ends.update({f"a{i}": (0, i) for i in (1, 2, 3)})
    ends.update({f"b{i}": (i, 4) for i in (1, 2, 3)})
    ends.update({"c1": (0, 4), "c2": (0, 4)})
    products = {("a1", "b1"): {"c1": 1}, ("a2", "b2"): {"c2": 1}, ("a3", "b3"): {"c1": 1, "c2": -1}}
    dim = len(labels)
    mul = []
    for p in labels:
        row = []
        for q in labels:
            vec = [0] * dim
            if p.startswith("e") and ends[p][1] == ends[q][0]:
                vec[index[q]] = 1
            elif q.startswith("e") and ends[p][1] == ends[q][0]:
                vec[index[p]] = 1
            for name, c in products.get((p, q), {}).items():
                vec[index[name]] = c
            row.append(vec)
        mul.append(row)
    idempotents = [[int(k == i) for k in range(dim)] for i in range(5)]
    return {
        "format": 1,
        "kind": "table",
        "dim": dim,
        "labels": labels,
        "mul": mul,
        "unit": [sum(col) for col in zip(*idempotents)],
        "idempotents": idempotents,
    }
