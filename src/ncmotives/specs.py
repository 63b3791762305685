"""Input specs: the readers and builders of the JSON inputs.

Every command reads its inputs through this module: an algebra, module,
complex, coefficient, motive, idempotent or correspondence spec, in the
schemas of docs/formats.md.  A spec that is not well formed raises
InputError, naming the field.  The module needs no argument parser, so
tests and generators read specs as the command line does.
"""

from __future__ import annotations

import json
import re
import weakref
from fractions import Fraction

from .algebra import (
    Algebra,
    AlgebraStructureError,
    hom_algebra,
    opposite,
    path_algebra,
    scalar_algebra,
    table_algebra,
    tensor,
)
from .complexes import Complex, PerfectComplex
from .derived import diagonal_resolution, simple_resolutions
from .linalg import Matrix, nonzero_pairs, norm_scalar
from .modules import Module, diagonal_bimodule, dual_bimodule, table_module
from .motives import (
    Correspondence,
    NCMotive,
    complement_idempotent,
    identity_correspondence,
    vertex_cut_idempotent,
)


class InputError(ValueError):
    pass


# The one text form of a rational scalar: an integer or "p/q".
SCALAR_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


# -- spec fields -------------------------------------------------------------------
#
# Every field of an input spec (docs/formats.md) is read by one of these
# readers, which refuse a value of the wrong shape with an InputError naming
# the field.  So the builders only get well-shaped values, and the only
# ValueErrors read from them are their documented checks (module axioms,
# d^2 = 0, a vertex cut with a path, the table checks, a zero class).


def spec_object(value, what, keys=None) -> dict:
    """An object field.  With keys, a spec object, which may hold only
    those keys and `format`: a misspelled key is refused, not read as an
    absent one."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    if keys is not None:
        unknown = sorted(value.keys() - {"format", *keys})
        if unknown:
            raise InputError(f"{what} has unknown keys {unknown}")
    return value


def spec_int(value, what, lo=None) -> int:
    """An integer field, at least lo if lo is given; a boolean is no integer."""
    if type(value) is not int or lo is not None and value < lo:
        bound = "" if lo is None else f" >= {lo}"
        raise InputError(f"{what} must be an integer{bound}, not {value!r}")
    return value


def spec_index(value, bound: int, what: str) -> int:
    """An index field of a spec: an integer in [0, bound)."""
    if type(value) is not int or not 0 <= value < bound:
        raise InputError(f"{what} must be an integer in [0, {bound}), not {value!r}")
    return value


def spec_label(value, what) -> str:
    """A basis label: a string without '|', which joins tensor labels."""
    if not isinstance(value, str) or "|" in value:
        raise InputError(f"{what} must be a string without '|', not {value!r}")
    return value


def spec_list(value, what, length=None) -> list:
    """A list field, of the given length if one is given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "" if length is None else f" of length {length}"
        raise InputError(f"{what} must be a list{size}")
    return value


def spec_scalar(value, what):
    """A scalar field: an integer, or a string "p/q" in the grammar of
    SCALAR_TEXT, normalized; no other form Fraction reads, no zero
    denominator, and no more digits than CPython converts."""
    if type(value) is int:
        return value
    if isinstance(value, str) and SCALAR_TEXT.fullmatch(value):
        try:
            return norm_scalar(Fraction(value))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{what} must be an integer or a string 'p/q', not {value!r}")


def spec_vector(value, length, what) -> list:
    return [spec_scalar(x, what) for x in spec_list(value, what, length)]


def spec_matrix(value, rows, cols, what) -> Matrix:
    data = spec_list(value, what, rows)
    return Matrix(rows, cols, [spec_vector(r, cols, f"{what}[{i}]") for i, r in enumerate(data)])


def spec_kind(spec: dict, what: str, kinds: dict, default=None) -> str:
    """The `kind` of a spec object, a key of kinds; the object may hold only
    `kind`, `format` and the keys kinds[kind]."""
    kind = spec.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"unknown {what} kind {kind!r}")
    spec_object(spec, f"{kind} {what} spec", ("kind", *kinds[kind]))
    return kind


def spec_degree(key, what) -> int:
    """A degree, written as an object key: a scalar string of an integer."""
    return spec_int(spec_scalar(key, what), what)


# -- algebra specs -----------------------------------------------------------------


# Path and table algebras built from specs, keyed by what _build_algebra
# reads from them: (vertex count, arrow triples), which path_algebra builds
# from directly, or (dim, labels, unit, idempotents, mul), with scalars as
# spec_scalar normalizes them.
_interned_algebras = weakref.WeakValueDictionary()

# The keys of each kind of spec besides `kind`.
ALGEBRA_KEYS = {
    "scalar": (),
    "named": ("name",),
    "quiver": ("vertices", "arrows"),
    "opposite": ("of",),
    "tensor": ("factors",),
    "table": ("dim", "mul", "unit", "idempotents", "labels"),
}
IDEMPOTENT_KEYS = {"identity": (), "vertex-cut": ("vertices",), "complement": ("of",)}
BIMODULE_KEYS = {"simple": ("index",), "projective": ("pair",), "diagonal": ()}

# The corpus algebras, spelled out: a `named` spec is read as its entry here.
NAMED_SPECS = {
    "Q": {"kind": "scalar"},
    "QxQ": {"kind": "quiver", "vertices": 2, "arrows": []},
    "A2": {"kind": "quiver", "vertices": 2, "arrows": [{"from": 0, "to": 1, "label": "a"}]},
    "A3": {
        "kind": "quiver",
        "vertices": 3,
        "arrows": [{"from": 0, "to": 1, "label": "a"}, {"from": 1, "to": 2, "label": "b"}],
    },
    "Kronecker": {
        "kind": "quiver",
        "vertices": 2,
        "arrows": [{"from": 0, "to": 1, "label": "a"}, {"from": 0, "to": 1, "label": "b"}],
    },
}


def algebra_from_spec(spec) -> Algebra:
    """The algebra of a JSON spec.  Specs that are equal as read give one
    Algebra object (and so one set of caches) for as long as it is in use,
    whatever their scalar spellings, key order, `format` or defaults: `kind`
    defaults to quiver, a quiver's `arrows` to [] and a table's `labels` to
    b0 ... b{dim-1}.  An opposite or a tensor is memoized on its factors, and
    a named algebra is read as its entry of NAMED_SPECS.

    Kinds: scalar | named | quiver | opposite | tensor | table."""
    try:
        return _build_algebra(spec_object(spec, "algebra spec"))
    except RecursionError as exc:
        raise InputError("algebra spec is nested too deeply") from exc


def _build_algebra(spec: dict) -> Algebra:
    kind = spec_kind(spec, "algebra", ALGEBRA_KEYS, "quiver")
    if kind == "scalar":
        return scalar_algebra()
    if kind == "named":
        name = spec.get("name")
        if not isinstance(name, str) or name not in NAMED_SPECS:
            raise InputError(f"unknown named algebra {name!r}")
        return _build_algebra(NAMED_SPECS[name])
    if kind == "opposite":
        return opposite(algebra_from_spec(spec_object(spec.get("of"), "opposite of")))
    if kind == "tensor":
        left, right = spec_list(spec.get("factors"), "tensor factors", 2)
        return tensor(algebra_from_spec(left), algebra_from_spec(right))
    if kind == "quiver":
        n = spec_int(spec.get("vertices"), "quiver vertices", 1)
        arrows = []
        for k, arrow in enumerate(spec_list(spec.get("arrows", []), "arrows")):
            arrow = spec_object(arrow, f"arrows[{k}]", ("from", "to", "label"))
            arrows.append((
                spec_index(arrow.get("from"), n, f"arrows[{k}].from"),
                spec_index(arrow.get("to"), n, f"arrows[{k}].to"),
                spec_label(arrow.get("label"), f"arrows[{k}].label"),
            ))
        if len({label for _, _, label in arrows}) != len(arrows):
            raise InputError("arrow labels must be distinct")
        key = (n, tuple(arrows))
        a = _interned_algebras.get(key)
        if a is None:
            a = path_algebra(n, arrows)
            if len(set(a.labels)) != a.dim:
                dup = next(lab for k, lab in enumerate(a.labels) if lab in a.labels[:k])
                raise InputError(f"two basis elements of the quiver are labelled {dup!r}")
            _interned_algebras[key] = a
        return a
    # a table
    dim = spec_int(spec.get("dim"), "table dim", 1)
    # dim is bounded by the size of the file only once mul has dim rows
    mul = [
        [spec_vector(v, dim, f"mul[{i}][{j}]") for j, v in enumerate(spec_list(r, f"mul[{i}]", dim))]
        for i, r in enumerate(spec_list(spec.get("mul"), "mul", dim))
    ]
    unit = spec_vector(spec.get("unit"), dim, "unit")
    idems = [
        spec_vector(e, dim, f"idempotents[{r}]")
        for r, e in enumerate(spec_list(spec.get("idempotents"), "idempotents"))
    ]
    labels = spec_list(spec.get("labels", [f"b{i}" for i in range(dim)]), "labels", dim)
    if len({spec_label(lab, f"labels[{k}]") for k, lab in enumerate(labels)}) != dim:
        raise InputError("table labels must be distinct")
    key = (
        dim, tuple(labels), tuple(unit), tuple(map(tuple, idems)), tuple(tuple(map(tuple, r)) for r in mul)
    )
    a = _interned_algebras.get(key)
    if a is None:
        try:
            a = _interned_algebras[key] = table_algebra(dim, labels, mul, unit, idems)
        except AlgebraStructureError:
            raise
        except ValueError as exc:  # the unit and idempotent axioms, associativity
            raise InputError(f"bad table spec: {exc}") from exc
    return a


def module_from_spec(spec, algebra: Algebra) -> Module:
    """Module over `algebra` from {"dim": d, "action": {label: matrix}};
    each action matrix is read into its sparse rows on load."""
    spec = spec_object(spec, "module spec", ("dim", "action"))
    dim = spec_int(spec.get("dim"), "module dim", 0)
    action = spec_object(spec.get("action"), "module action")
    unknown = sorted(set(action) - set(algebra.labels))
    if unknown:
        raise InputError(f"module action names unknown basis labels {unknown}")
    missing = [lab for lab in algebra.labels if lab not in action]
    if missing:
        raise InputError(f"module action missing for basis elements {missing}")
    table = [
        [nonzero_pairs(r) for r in spec_matrix(action[lab], dim, dim, f"action[{lab!r}]").data]
        for lab in algebra.labels
    ]
    m = table_module(algebra, dim, table)
    try:
        m.check()
    except ValueError as exc:
        raise InputError(f"module axioms fail: {exc}") from exc
    return m


def complex_from_spec(spec, algebra: Algebra):
    """Bounded complex from degree-indexed module specs plus differentials:
    {"components": {"0": <module>, "-1": <module>}, "differentials":
    {"-1": [[...]]}} where the matrix at degree n maps degree n to n+1.
    Each differential must be a module map: it commutes with the action of
    every basis element."""
    spec = spec_object(spec, "complex spec", ("components", "differentials"))
    comps = {
        spec_degree(k, f"components key {k!r}"): module_from_spec(v, algebra)
        for k, v in spec_object(spec.get("components", {}), "components").items()
    }
    dims = {n: m.dim for n, m in comps.items()}
    diffs = {}
    for k, rows in spec_object(spec.get("differentials", {}), "differentials").items():
        n = spec_degree(k, f"differentials key {k!r}")
        diffs[n] = spec_matrix(rows, dims.get(n, 0), dims.get(n + 1, 0), f"differentials[{k!r}]")
    try:
        c = Complex(algebra, comps, diffs)
    except ValueError as exc:  # d^2 != 0
        raise InputError(f"bad complex spec: {exc}") from exc
    for n, d in c.differentials.items():
        src, tgt = c.components[n], c.components[n + 1]
        if any(
            src.act_matrix(((j, 1),)) * d != d * tgt.act_matrix(((j, 1),))
            for j in range(algebra.dim)
        ):
            raise InputError(f"differential at degree {n} is not a module map")
    return c


def coefficients_from_spec(spec, algebra: Algebra):
    """Hochschild coefficients: a named bimodule, a bimodule, or a complex of
    bimodules with no component in a positive degree."""
    if spec is None:
        return diagonal_bimodule(algebra)
    spec = spec_object(spec, "coefficients")
    if "named" in spec:
        spec_object(spec, "named coefficients", ("named",))
        if spec["named"] == "diagonal":
            return diagonal_bimodule(algebra)
        if spec["named"] == "dual":
            return dual_bimodule(algebra)
        raise InputError(f"named coefficients must be 'diagonal' or 'dual', not {spec['named']!r}")
    if "components" in spec:
        w = complex_from_spec(spec, hom_algebra(algebra, algebra))
        if w.hi > 0:
            raise InputError("coefficients must have no component in a positive degree")
        return w
    return module_from_spec(spec, hom_algebra(algebra, algebra))


def motive_from_spec(spec) -> NCMotive:
    """The motive of a JSON spec.  An idempotent that NCMotive refuses,
    such as one whose class is zero (an empty vertex cut, the complement of
    the identity or of a cut of every vertex), is malformed input."""
    spec = spec_object(spec, "motive spec", ("algebra", "idempotent"))
    a = algebra_from_spec(spec.get("algebra", {"kind": "scalar"}))
    try:
        idem = idempotent_from_spec(spec.get("idempotent"), a)
    except RecursionError as exc:
        raise InputError("idempotent spec is nested too deeply") from exc
    try:
        return NCMotive(a, idem)
    except ValueError as exc:  # a zero class, or one that is not idempotent
        raise InputError(str(exc)) from exc


def idempotent_from_spec(idem, a: Algebra) -> Correspondence | None:
    """The idempotent correspondence of a motive over a; None for the identity."""
    if idem is None:
        return None
    kind = spec_kind(spec_object(idem, "idempotent spec"), "idempotent", IDEMPOTENT_KEYS, "identity")
    if kind == "identity":
        return None
    if kind == "vertex-cut":
        n = len(a.idempotents)
        vertices = spec_list(idem.get("vertices", []), "vertex-cut vertices")
        vertices = [spec_index(v, n, f"vertex-cut vertices[{k}]") for k, v in enumerate(vertices)]
        try:
            return vertex_cut_idempotent(a, vertices)
        except ValueError as exc:  # a path between two of the vertices
            raise InputError(f"bad vertex cut: {exc}") from exc
    inner = idempotent_from_spec(idem.get("of"), a)
    if inner is None:
        inner = identity_correspondence(NCMotive(a))
    return complement_idempotent(inner)


def correspondence_from_spec(spec, src: NCMotive, dst: NCMotive) -> Correspondence:
    e = hom_algebra(src.algebra, dst.algebra)
    terms = []
    spec = spec_object(spec, "correspondence spec", ("terms",))
    for k, t in enumerate(spec_list(spec.get("terms"), "terms")):
        t = spec_object(t, f"terms[{k}]", ("bimodule", "coefficient", "shift"))
        b = spec_object(t.get("bimodule"), f"terms[{k}].bimodule")
        coeff = spec_scalar(t.get("coefficient", 1), f"terms[{k}].coefficient")
        kind = spec_kind(b, "bimodule", BIMODULE_KEYS)
        if kind == "simple":
            index = spec_index(b.get("index"), len(e.idempotents), f"terms[{k}].bimodule.index")
            pc = simple_resolutions(e)[index]
        elif kind == "projective":
            i, j = spec_list(b.get("pair"), f"terms[{k}].bimodule.pair", 2)
            i = spec_index(i, len(src.algebra.idempotents), f"terms[{k}].bimodule.pair[0]")
            n_b = len(dst.algebra.idempotents)
            j = spec_index(j, n_b, f"terms[{k}].bimodule.pair[1]")
            pc = PerfectComplex(e, {0: (i * n_b + j,)})
        else:
            if src.algebra is not dst.algebra:
                raise InputError("diagonal terms need equal source and target algebras")
            pc = diagonal_resolution(src.algebra)
        shift = spec_int(t.get("shift", 0), f"terms[{k}].shift")
        if shift:
            pc = pc.shift(shift)
        terms.append((coeff, pc))
    return Correspondence(src, dst, terms)


def load_json(path):
    """The JSON value in the file at path.  Bytes that do not decode as
    text, text that is not JSON, an integer literal past CPython's digit
    limit, and a top-level object whose format is present and not 1 all
    raise ValueError."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if isinstance(value, dict):
        fmt = value.get("format", 1)
        if type(fmt) is not int or fmt != 1:
            raise InputError(f"{path} has format {fmt!r}; only format 1 is read")
    return value
