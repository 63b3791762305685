"""Built-in corpus of algebras and seeded random generators for sweeps.

The corpus is the family every verification sweep runs over: the scalars,
the semisimple two-point algebra, the A2 and A3 line quivers, the Kronecker
quiver, and tensor combinations of these.  Generators take an explicit
random.Random so identical seeds reproduce identical objects.
"""

from __future__ import annotations

import random

from .algebra import Algebra
from .complexes import PerfectComplex
from .linalg import Matrix
from .motives import NCMotive, complement_idempotent, vertex_cut_idempotent
from .specs import NAMED_SPECS, algebra_from_spec

CORPUS_NAMES = tuple(NAMED_SPECS)

_algebras: dict = {}


def quiver_euler_oracle(name: str):
    """Arrow-count Euler form of a corpus quiver: delta_ij - #arrows(i -> j),
    an independent oracle for euler_matrix on hereditary algebras."""
    spec = NAMED_SPECS[name]
    n = spec["vertices"]
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for arrow in spec["arrows"]:
        mat[arrow["from"]][arrow["to"]] -= 1
    return mat


def corpus_algebra(name: str) -> Algebra:
    """Shared instance of a corpus algebra (caches live on the instance): the
    algebra of its spec, kept here for the whole run, since the spec reader
    holds the algebras it interns only while they are in use."""
    if name not in _algebras:
        _algebras[name] = algebra_from_spec(NAMED_SPECS[name])
    return _algebras[name]


# -- random generators -----------------------------------------------------------


def random_perfect_complex(
    e: Algebra,
    rng: random.Random,
    max_width: int = 2,
    max_mult: int = 1,
    max_shift: int = 1,
) -> PerfectComplex:
    """Random perfect complex with genuinely nonzero differentials where the
    block structure allows: copies are sampled per degree, then each
    differential is a random combination of the block monomials compatible
    with d^2 = 0 against the differential already chosen above it."""
    n_idem = len(e.idempotents)
    for _attempt in range(8):
        hi = rng.randint(-max_shift, max_shift)
        width = rng.randint(0, max_width)
        copies = {}
        for d in range(hi - width, hi + 1):
            cs = []
            for i in range(n_idem):
                for _ in range(rng.randint(0, max_mult)):
                    cs.append(i)
            if cs:
                copies[d] = tuple(sorted(cs))
        if not copies:
            continue
        blocks = {}
        for d in sorted(copies, reverse=True):
            src = copies.get(d)
            tgt = copies.get(d + 1)
            if not src or not tgt:
                continue
            cands = [
                (ci, cj, g)
                for ci, i in enumerate(src)
                for cj, j in enumerate(tgt)
                for g in e.peirce_block(j, i)
            ]
            if not cands:
                continue
            nxt = blocks.get(d + 1)
            if nxt is None:
                weights = [rng.randint(-2, 2) for _ in cands]
            else:
                # d^2 = 0 block by block: the block g from copy ci to cj
                # followed by the block w from cj to ck is left
                # multiplication by w * g from ci to ck
                rows = []
                for (ci, cj, g) in cands:
                    row = {}
                    for (c, ck), w in nxt.items():
                        if c != cj:
                            continue
                        for u, x in w:
                            for k, s in e.mul[u][g]:
                                row[(ci, ck, k)] = row.get((ci, ck, k), 0) + x * s
                    rows.append(row)
                cols = sorted(set().union(*rows))
                kern = Matrix(
                    len(cands), len(cols), [[r.get(k, 0) for k in cols] for r in rows]
                ).left_kernel_basis()
                if not kern:
                    continue
                weights = [0] * len(cands)
                for v in kern:
                    c = rng.randint(-2, 2)
                    if c:
                        weights = [w + c * x for w, x in zip(weights, v)]
            d_blocks: dict = {}
            for (ci, cj, g), w in zip(cands, weights):
                if w:
                    d_blocks.setdefault((ci, cj), []).append((g, w))
            if d_blocks:
                blocks[d] = d_blocks
        return PerfectComplex(e, copies, blocks)
    # all attempts produced nothing: fall back to one projective in degree 0
    return PerfectComplex(e, {0: (0,)})


# -- motive scenarios -------------------------------------------------------------


def corpus_motive_scenarios():
    """Named Hom-space scenarios: (name, source motive, target motive).

    Mixes identity motives with vertex-cut idempotents and complements on
    small algebra pairs; the larger A3 pairs are cut down by idempotents so
    model dimensions stay at desk scale."""
    q = corpus_algebra("Q")
    qq = corpus_algebra("QxQ")
    a2 = corpus_algebra("A2")
    a3 = corpus_algebra("A3")
    kr = corpus_algebra("Kronecker")

    def ident(a):
        return NCMotive(a)

    def cut(a, verts):
        return NCMotive(a, vertex_cut_idempotent(a, verts))

    def cocut(a, verts):
        return NCMotive(a, complement_idempotent(vertex_cut_idempotent(a, verts)))

    scenarios = [
        ("Q-id", ident(q), ident(q)),
        ("QxQ-id", ident(qq), ident(qq)),
        ("A2-id", ident(a2), ident(a2)),
        ("Kronecker-id", ident(kr), ident(kr)),
        ("A2-to-Kronecker", ident(a2), ident(kr)),
        ("QxQ-to-A2", ident(qq), ident(a2)),
        ("A2-cut0-endo", cut(a2, [0]), cut(a2, [0])),
        ("A2-cut0-to-id", cut(a2, [0]), ident(a2)),
        ("A2-cocut1-endo", cocut(a2, [1]), cocut(a2, [1])),
        ("Kronecker-cut1-to-A2", cut(kr, [1]), ident(a2)),
        ("A3-cut1-endo", cut(a3, [1]), cut(a3, [1])),
        ("A3-cut0-to-A2-cut1", cut(a3, [0]), cut(a2, [1])),
        ("A3-cocut2-to-Q", cocut(a3, [2]), ident(q)),
        ("Q-to-A3-cut2", ident(q), cut(a3, [2])),
        ("A3-cut0-to-Kronecker-cut1", cut(a3, [0]), cut(kr, [1])),
    ]
    return scenarios
