"""Euler form, Grothendieck classes, Serre transform, kernels, smoothness.

The Grothendieck group of the derived category of a supported algebra is
free on the simple classes; a complex lands in it through its alternating
idempotent-weighted dimension vector.  k0_class is the one place that
computes it: a perfect complex's class is read from its copies (no modules
are built), any other complex's from the traces of its idempotent actions.
The Euler pairing of two perfect complexes is the Euler characteristic of
their Hom complex, an exact integer: the copy weights of the first paired
with the class of the second.

Which terms must be perfect: the first argument of euler_pairing (and of
homalg.hom_complex) is a PerfectComplex; the second may be any bounded
complex.  The Serre transform is the derived Nakayama construction
- (x)_A D(A), returned as the unresolved tensor complex: every consumer
reads S(M) only as that second argument, so no perfect replacement is
built.  resolve_complex makes one where a caller needs it.  The defining
duality of S is verified by the test suite rather than assumed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import Algebra, scalar_algebra
from .complexes import Complex, PerfectComplex, as_complex
from .homalg import tensor_over
from .linalg import Matrix
from .modules import diagonal_bimodule, dual_bimodule, simple_modules
from .resolutions import (
    DEFAULT_CAP,
    ResolutionCapExceeded,
    projective_resolution,
)

K0Class = namedtuple("K0Class", "algebra coords")


class PairingMatrix(namedtuple("PairingMatrix", "matrix basis")):
    __slots__ = ()

    @property
    def size(self):
        return self.matrix.rows


def k0_class(x) -> K0Class:
    """Class of a complex or module in the simple basis.

    A perfect complex's class is read from its copies: e_i A contributes
    dim(e_i A e_j) to coordinate j, with the sign of its degree.  Any other
    complex (or module) gives the alternating sum over its components of the
    traces of the idempotent actions, which are the dimensions M e_j."""
    if isinstance(x, PerfectComplex):
        a = x.algebra
        n = len(a.idempotents)
        weights = x.euler_copy_weights()
        coords = [
            sum(w * a.peirce_dim(i, j) for i, w in enumerate(weights) if w)
            for j in range(n)
        ]
        return K0Class(a, tuple(coords))
    c = as_complex(x)
    a = c.algebra
    idem_idx = a.idempotent_basis_indices()
    coords = [0] * len(idem_idx)
    for deg, comp in c.components.items():
        s = -1 if deg % 2 else 1
        for j, g in enumerate(idem_idx):
            t = comp.action[g].trace()
            if not isinstance(t, int):
                raise ValueError("idempotent action has non-integral trace")
            coords[j] += s * t
    return K0Class(a, tuple(coords))


def euler_pairing(m: PerfectComplex, n) -> int:
    """chi(M, N): Euler characteristic of the Hom complex.  Hom(e_i A, N) is
    N e_i, so chi is the copy weights of M paired with the class of N."""
    k = k0_class(n)
    if k.algebra is not m.algebra:
        raise ValueError("euler_pairing arguments live over different algebras")
    return sum(w * c for w, c in zip(m.euler_copy_weights(), k.coords))


def simple_resolutions(a: Algebra, cap: int = DEFAULT_CAP):
    """Cached minimal resolutions of the simple modules, in idempotent order."""
    key = ("simple_resolutions", cap)
    if key not in a._cache:
        a._cache[key] = [
            projective_resolution(s, cap)[0] for s in simple_modules(a)
        ]
    return a._cache[key]


def euler_matrix(a: Algebra, cap: int = DEFAULT_CAP) -> PairingMatrix:
    """Gram matrix of the Euler form on the simple basis; by bilinearity it
    determines the form on the whole rationalized Grothendieck group."""
    key = ("euler_matrix", cap)
    if key not in a._cache:
        res = simple_resolutions(a, cap)
        n = len(res)
        data = [[euler_pairing(res[i], res[j]) for j in range(n)] for i in range(n)]
        a._cache[key] = PairingMatrix(Matrix(n, n, data), basis="simple classes")
    return a._cache[key]


def euler_pairing_classes(a: Algebra, u, v):
    """chi extended bilinearly to rational coordinate vectors."""
    g = euler_matrix(a).matrix
    total = Fraction(0)
    for i, x in enumerate(u):
        if not x:
            continue
        row = g.data[i]
        for j, y in enumerate(v):
            if y:
                total += Fraction(x) * row[j] * Fraction(y)
    return total


def serre(m: PerfectComplex) -> Complex:
    """Serre transform: the tensor complex M (x)_A D(A).

    M must be perfect, which makes this tensor product the derived one.  The
    result is not resolved: use it as the second argument of euler_pairing
    or hom_complex, where any bounded complex is valid, or pass it to
    resolve_complex for a perfect replacement."""
    a = m.algebra
    q = scalar_algebra()
    return tensor_over(m, as_complex(dual_bimodule(a)), q, a, a, check=False)


def kernel_left(g: PairingMatrix):
    """Basis of {v : v^T G = 0}."""
    return g.matrix.left_kernel_basis()


def kernel_right(g: PairingMatrix):
    """Basis of {v : G v = 0}."""
    return g.matrix.kernel_basis()


def diagonal_resolution(a: Algebra, cap: int = DEFAULT_CAP) -> PerfectComplex:
    """Minimal resolution of the diagonal bimodule over tensor(op(A), A).
    Raises ResolutionCapExceeded when no resolution is found within the cap."""
    key = ("diagonal_resolution", cap)
    if key not in a._cache:
        a._cache[key] = projective_resolution(diagonal_bimodule(a), cap)[0]
    return a._cache[key]


def check_smooth(a: Algebra, cap: int = DEFAULT_CAP):
    """(True, diagonal resolution) when the diagonal bimodule has a finite
    projective resolution within the cap, else (False, None)."""
    try:
        return True, diagonal_resolution(a, cap)
    except ResolutionCapExceeded:
        return False, None


def injective_dimension_vector(a: Algebra, i: int):
    """Dimension vector of the injective dual of the left projective A e_i
    (independent check target for the Serre transform on projectives)."""
    return [a.peirce_dim(j, i) for j in range(len(a.idempotents))]
