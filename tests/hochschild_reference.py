"""Hochschild homology as the tensor product P (x)_{A^e} W^left, kept as a
test-side reference for hochschild.hochschild (which reads it as the Hom
complex Hom_{A^e}(A^!, W)).

P is a resolution of the diagonal bimodule over A^e = tensor(op(A), A).
The balanced tensor product meets W through its left A^e-structure,
(x^op, y) acting as "y on the left, x on the right", which is the right
action of the swapped pair over opposite(A^e).  This route swaps the
copies of W where the package's route swaps those of P (homalg.dual_perfect),
so the two meet only in their results.
"""

from ncmotives.algebra import (
    hom_algebra,
    join_pair_idempotent,
    opposite,
    scalar_algebra,
    swap_permutation,
)
from ncmotives.complexes import Complex, as_complex
from ncmotives.modules import Module
from tensor_reference import tensor_over


def left_structure_module(m: Module, a) -> Module:
    """The left-module structure of an A-A-bimodule, as a right module over
    the opposite enveloping algebra: permuting the basis indices of the rows
    by the swap (x^op, y) -> (y^op, x), and the dimension vector by the
    swap of the idempotent pairs."""
    env = hom_algebra(a, a)
    if m.algebra is not env:
        raise ValueError("module is not a bimodule over tensor(op(A), A)")
    perm = swap_permutation(a, a)
    n = len(a.idempotents)

    def dims():
        d = m.dims()
        return tuple(d[join_pair_idempotent(a, j, i)] for i in range(n) for j in range(n))

    return Module(opposite(env), m.dim, lambda s, g: m.row(s, perm[g]), dims)


def left_structure_complex(w, a) -> Complex:
    """Componentwise left-module structure of a complex of A-A-bimodules."""
    w = as_complex(w)
    comps = {n: left_structure_module(m, a) for n, m in w.components.items()}
    return Complex(opposite(hom_algebra(a, a)), comps, dict(w.differentials), check=False)


def tensor_route_complex(p, w, a) -> Complex:
    """P (x)_{A^e} W^left for a perfect complex p over the enveloping algebra
    of a, as a complex of vector spaces: HH_n is its homology in degree -n."""
    q = scalar_algebra()
    return tensor_over(p, left_structure_complex(w, a), q, hom_algebra(a, a), q)
