"""Minimal projective resolutions of modules.

projective_resolution builds a minimal resolution by iterated projective
covers (tops computed through the radical), producing a PerfectComplex in
degrees <= 0 quasi-isomorphic to the module placed in degree 0.  For an
algebra of finite global dimension the iteration terminates; the cap turns
a runaway resolution (an input outside the supported class) into an error
rather than a silent truncation.
"""

from __future__ import annotations

from .complexes import PerfectComplex, empty_perfect
from .linalg import Matrix
from .modules import (
    Module,
    cover_data,
    direct_sum_modules,
    kernel_submodule,
    projective_module,
)

DEFAULT_CAP = 16


class ResolutionCapExceeded(RuntimeError):
    """The resolution did not terminate within the configured length cap."""


def projective_resolution(m: Module, cap: int = DEFAULT_CAP):
    """Minimal projective resolution of a module.

    Returns (PerfectComplex in degrees -length..0, augmentation matrix
    P^0 -> m).  The kernel of each cover is resolved in turn until it
    vanishes."""
    a = m.algebra
    if m.dim == 0:
        return empty_perfect(a), Matrix.zeros(0, 0)
    copies: dict[int, tuple] = {}
    diffs: dict[int, Matrix] = {}
    augmentation = None
    include_prev = None  # inclusion of ker(previous cover) into previous P
    current = m
    step = 0
    while current.dim > 0:
        if step > cap:
            raise ResolutionCapExceeded(
                f"resolution of a module over {a!r} exceeded cap {cap}"
            )
        cs, _, cover = cover_data(current)
        copies[-step] = tuple(cs)
        if step == 0:
            augmentation = cover
        else:
            diffs[-step] = cover * include_prev
        p_mods = [projective_module(a, i)[0] for i in cs]
        p, _ = direct_sum_modules(a, p_mods)
        current, _, include_prev = kernel_submodule(p, cover)
        step += 1
    return PerfectComplex(a, copies, diffs), augmentation


def resolution_length(pc: PerfectComplex) -> int:
    return 0 if pc.is_zero() else pc.hi - pc.lo
