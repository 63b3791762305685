"""Minimal projective resolutions of modules.

projective_resolution builds a minimal resolution by iterated projective
covers (tops computed through the radical), producing a PerfectComplex in
degrees <= 0 quasi-isomorphic to the module placed in degree 0.  Each block
of a differential is read off a cover generator's image in the previous
cover, so no differential matrix is formed.  For an algebra of finite
global dimension the iteration terminates; the cap turns a runaway
resolution (an input outside the supported class) into an error rather
than a silent truncation.
"""

from __future__ import annotations

from .complexes import PerfectComplex
from .linalg import Matrix, RowBasis
from .modules import Module, cover_data, direct_sum_modules, projective_module

DEFAULT_CAP = 16


class ResolutionCapExceeded(RuntimeError):
    """The resolution did not terminate within the configured length cap."""


def projective_resolution(m: Module, cap: int = DEFAULT_CAP):
    """Minimal projective resolution of a module.

    Returns (PerfectComplex in degrees -length..0, augmentation matrix
    P^0 -> m).  The kernel of each cover is resolved in turn until it
    vanishes.  Each kernel stays a subspace of the cover's sum of
    projectives, so the next cover's generators come in that sum's
    coordinates, and the block of d from copy c of a cover to copy c2 of
    the previous one is the generator of c, restricted to copy c2."""
    a = m.algebra
    copies: dict[int, tuple] = {}
    blocks: dict[int, dict] = {}
    augmentation = Matrix.zeros(0, 0)
    current, sub = m, RowBasis.full(m.dim)
    step = 0
    while sub.dim > 0:
        if step > cap:
            raise ResolutionCapExceeded(
                f"resolution of a module over {a!r} exceeded cap {cap}"
            )
        cs, gens, cover = cover_data(current, sub)
        copies[-step] = tuple(cs)
        if step == 0:
            augmentation = cover
        else:
            bl = blocks[-step] = {}
            for c, g in enumerate(gens):
                coords = iter(g)
                for c2, i2 in enumerate(copies[1 - step]):
                    bl[(c, c2)] = list(zip(a.projective_basis(i2), coords))
        current, _ = direct_sum_modules(a, [projective_module(a, i)[0] for i in cs])
        sub = RowBasis(current.dim).extend(cover.left_kernel_basis())
        step += 1
    return PerfectComplex(a, copies, blocks), augmentation


def resolution_length(pc: PerfectComplex) -> int:
    return 0 if pc.is_zero() else pc.hi - pc.lo
