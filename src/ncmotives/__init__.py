"""Exact-arithmetic Euler forms, Serre transforms, Hochschild pairings and
the kernel-equality verdict over finite-dimensional quiver algebras."""

from .algebra import (
    Algebra,
    AlgebraStructureError,
    Arrow,
    CyclicQuiverError,
    Quiver,
    opposite,
    path_algebra,
    scalar_algebra,
    table_algebra,
    tensor,
)
from .complexes import Complex, PerfectComplex, as_complex
from .derived import (
    K0Class,
    check_smooth,
    euler_matrix,
    euler_pairing,
    k0_class,
    serre,
)
from .hochschild import bar_oracle, hochschild, intersection_number
from .homalg import hom_complex
from .linalg import Matrix, RowBasis
from .modules import (
    Module,
    diagonal_bimodule,
    dual_bimodule,
    projective_module,
    simple_modules,
)
from .motives import (
    Correspondence,
    HomSpaceModel,
    NCMotive,
    build_hom_model,
    chi_hom,
    dualize,
    identity_correspondence,
    numerical_kernel,
    trace,
    verify_equivalence,
    vertex_cut_idempotent,
)
from .resolutions import (
    MAX_RESOLUTION_LENGTH,
    ResolutionCapExceeded,
    projective_resolution,
)

__version__ = "0.1.0"
