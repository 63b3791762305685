"""Minimal projective resolutions of modules.

projective_resolution builds a minimal resolution by iterated projective
covers (tops computed through the radical), producing a PerfectComplex in
degrees <= 0 quasi-isomorphic to the module placed in degree 0.  Each block
of a differential is read off a cover generator's image in the previous
cover, so no differential matrix is formed.  For an algebra of finite
global dimension the iteration terminates; MAX_RESOLUTION_LENGTH turns a
runaway resolution (an input outside the supported class) into an error
rather than a silent truncation.
"""

from __future__ import annotations

from .complexes import PerfectComplex
from .linalg import RowBasis
from .modules import Module, cover_data, direct_sum_modules, projective_module

MAX_RESOLUTION_LENGTH = 16
"""The longest resolution the package builds (projective, simple or
diagonal); a longer one raises ResolutionCapExceeded.  The corpus and the
Hom-space ladder need at most 6, for the simples of op(P^3) (x) P^3."""


class ResolutionCapExceeded(RuntimeError):
    """A resolution is longer than MAX_RESOLUTION_LENGTH."""


def projective_resolution(m: Module) -> PerfectComplex:
    """Minimal projective resolution of a module: a PerfectComplex in
    degrees -length..0.  Its augmentation P^0 -> m is the cover of step 0,
    cover_data(m, RowBasis.full(m.dim)).  The kernel of each cover is
    resolved in turn until it vanishes.  Each kernel stays a subspace of the
    cover's sum of projectives, so the next cover's generators come in that
    sum's coordinates, and the block of d from copy c of a cover to copy c2
    of the previous one is the generator of c, restricted to copy c2."""
    a = m.algebra
    copies: dict[int, tuple] = {}
    blocks: dict[int, dict] = {}
    current, sub = m, RowBasis.full(m.dim)
    step = 0
    while sub.dim > 0:
        if step > MAX_RESOLUTION_LENGTH:
            raise ResolutionCapExceeded(
                f"resolution of a module over {a!r} is longer than {MAX_RESOLUTION_LENGTH}"
            )
        cs, gens, cover = cover_data(current, sub)
        copies[-step] = tuple(cs)
        if step:
            bl = blocks[-step] = {}
            for c, g in enumerate(gens):
                coords = iter(g)
                for c2, i2 in enumerate(copies[1 - step]):
                    bl[(c, c2)] = list(zip(a.projective_basis(i2), coords))
        current = direct_sum_modules(a, [projective_module(a, i) for i in cs])
        sub = RowBasis(current.dim).extend(cover.left_kernel_basis())
        step += 1
    return PerfectComplex(a, copies, blocks)


def resolution_length(pc: PerfectComplex) -> int:
    return 0 if pc.is_zero() else pc.hi - pc.lo
