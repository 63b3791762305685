"""The class of x (x)_middle y from the copies of x and the class of y,
kept as a test-side reference for derived.compose_classes (which reads it
through the Euler matrix of the middle algebra).

It counts the blocks (L e_l) (x) (e_m Y^q) of tensor_over's layout and
their idempotent images, so it checks the Euler-matrix formula from outside:
it never reads an Euler matrix or a Cartan inverse.
"""

from ncmotives.algebra import hom_algebra, join_pair_idempotent, split_pair_idempotent
from ncmotives.complexes import PerfectComplex
from ncmotives.derived import k0_class


def tensor_class(x: PerfectComplex, y, left, middle, right) -> list:
    """Class of x (x)_middle y in the simple basis of
    tensor(opposite(left), right), computed from the classes of the factors
    without assembling the tensor complex.

    A copy (l, m) of x against Y^q is the block (L e_l) (x) (e_m Y^q), whose
    (i, j) idempotent image has dimension dim(e_i L e_l) * dim(e_m Y^q e_j);
    with signs, entry (i, j) is the sum over (l, m) of
    weights(x)_(l, m) * dim(e_i L e_l) * k0(y)_(m, j)."""
    if x.algebra is not hom_algebra(left, middle):
        raise ValueError("x is not perfect over tensor(op(left), middle)")
    ky = k0_class(y)
    if ky.algebra is not hom_algebra(middle, right):
        raise ValueError("y does not live over tensor(op(middle), right)")
    n_l = len(left.idempotents)
    n_r = len(right.idempotents)
    ldims = left.peirce_dims()
    out = [0] * (n_l * n_r)
    for idem, w in enumerate(x.euler_copy_weights()):
        if not w:
            continue
        l_i, m_i = split_pair_idempotent(middle, idem)
        for i in range(n_l):
            d = w * ldims[i][l_i]
            if not d:
                continue
            for j in range(n_r):
                out[join_pair_idempotent(right, i, j)] += d * ky.coords[
                    join_pair_idempotent(right, m_i, j)
                ]
    return out
