"""Command-line front door.

Subcommands: euler-matrix, serre-check, smooth-check, hochschild, intersect,
trace, verify, corpus.  Inputs are JSON files (schemas in docs/formats.md);
output is a JSON report on stdout or --out.  Identical inputs and seed
produce byte-identical reports (timing is only included with --timing).

Exit codes: 0 all checks passed; 1 some check failed; 2 malformed input;
3 unsupported input class (e.g. a cyclic quiver, or an algebra past a size
bound); 4 a resolution longer than MAX_RESOLUTION_LENGTH (16); 5 internal
error (a traceback on stderr).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import random
import re
import sys
import time
import weakref
from fractions import Fraction
from importlib import import_module

from .algebra import (
    Algebra,
    AlgebraStructureError,
    CyclicQuiverError,
    Quiver,
    QuiverTooLargeError,
    TensorTooLargeError,
    hom_algebra,
    opposite,
    path_algebra,
    scalar_algebra,
    table_algebra,
    tensor,
)
from .complexes import Complex, PerfectComplex
from .corpus import (
    CORPUS_NAMES,
    corpus_algebra,
    corpus_motive_scenarios,
    quiver_euler_oracle,
    random_perfect_complex,
)
from .derived import (
    check_smooth,
    diagonal_resolution,
    euler_matrix,
    serre,
    euler_pairing,
    simple_resolutions,
)
from .hochschild import bar_oracle, hochschild, hochschild_euler, intersection_number
from .homalg import hom_complex
from .linalg import Matrix, exact_text, nonzero_pairs, norm_scalar, unbounded_int_text
from .modules import Module, diagonal_bimodule, dual_bimodule, table_module
from .motives import (
    Correspondence,
    NCMotive,
    build_hom_model,
    check_record,
    complement_idempotent,
    identity_correspondence,
    trace,
    verify_equivalence,
    vertex_cut_idempotent,
)
from .resolutions import ResolutionCapExceeded, resolution_length

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


class InputError(ValueError):
    pass


# -- scalar / matrix (de)serialization ------------------------------------------


# The one text form of a rational scalar: an integer or "p/q".
SCALAR_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def scalar_to_json(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return exact_text(x)
    return int(x)


def matrix_to_json(m: Matrix):
    return [[scalar_to_json(x) for x in row] for row in m.data]


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


# Quiver and table algebras built from specs, keyed by what _build_algebra
# reads from them: (vertex count, arrow triples) or (dim, labels, unit,
# idempotents, mul), with scalars as spec_scalar normalizes them.
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


def algebra_from_spec(spec) -> Algebra:
    """The algebra of a JSON spec.  Specs that are equal as read give one
    Algebra object (and so one set of caches) for as long as it is in use,
    whatever their scalar spellings, key order, `format` or defaults: `kind`
    defaults to quiver, a quiver's `arrows` to [] and a table's `labels` to
    b0 ... b{dim-1}.  An opposite or a tensor is memoized on its factors, and
    a named algebra by corpus_algebra.

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
        if name not in CORPUS_NAMES:
            raise InputError(f"unknown named algebra {name!r}")
        return corpus_algebra(name)
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
            a = path_algebra(Quiver(n, arrows))
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


# -- report plumbing ----------------------------------------------------------------


def digest(obj) -> str:
    """First 16 hex digits of the SHA-256 of obj's canonical JSON.

    The hash comes from CPython's own SHA-256 module (`_sha2` from 3.12,
    `_sha256` before), as `random` takes `_sha512`: `hashlib` loads
    OpenSSL's libcrypto, which adds about 3.5 MB to the peak memory of
    every command for one hash of a few hundred bytes.  `hashlib` is the
    fallback where neither module exists; the digest is the same."""
    for name in ("_sha2", "_sha256"):
        try:
            sha256 = import_module(name).sha256
            break
        except ImportError:
            continue
    else:
        from hashlib import sha256
    return sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def emit(report, args) -> int:
    report["format"] = 1
    if args.timing:
        report["elapsed_seconds"] = round(time.monotonic() - args._t0, 3)
    with unbounded_int_text():
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.get("verdict", True) else EXIT_FAIL


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


def load_scenario(args, required, optional=()):
    """The scenario file of a command and its source motive: a JSON object
    holding `source` and every required key, and no key but these, the
    optional ones and `format`."""
    spec = spec_object(load_json(args.scenario), "scenario", ("source", *required, *optional))
    missing = [k for k in ("source", *required) if k not in spec]
    if missing:
        raise InputError(f"scenario lacks {missing}")
    return spec, motive_from_spec(spec["source"])


# -- subcommands ---------------------------------------------------------------------


def cmd_euler_matrix(args) -> int:
    spec = load_json(args.algebra)
    a = algebra_from_spec(spec)
    g = euler_matrix(a)
    det = g.det()
    report = {
        "command": "euler-matrix",
        "inputs_digest": digest(spec),
        "algebra_dim": a.dim,
        "basis": "simple classes",
        "matrix": matrix_to_json(g),
        "determinant": scalar_to_json(det),
        "kernel_left": [[scalar_to_json(x) for x in v] for v in g.left_kernel_basis()],
        "kernel_right": [[scalar_to_json(x) for x in v] for v in g.kernel_basis()],
        "verdict": True,
    }
    return emit(report, args)


def cmd_smooth_check(args) -> int:
    spec = load_json(args.algebra)
    a = algebra_from_spec(spec)
    ok, res = check_smooth(a)
    report = {
        "command": "smooth-check",
        "inputs_digest": digest(spec),
        "smooth": ok,
        # every algebra the CLI builds is finite-dimensional, hence proper
        "proper": True,
        "diagonal_resolution_length": resolution_length(res) if ok else None,
        "verdict": ok,
    }
    return emit(report, args)


def serre_duality_holds(m, n, sm) -> bool:
    """Degreewise Serre duality: dim H^i Hom(M, N) = dim H^-i Hom(N, S(M))."""
    h_mn = hom_complex(m, n).homology_dims()
    h_nsm = hom_complex(n, sm).homology_dims()
    degs = set(h_mn) | {-d for d in h_nsm}
    return all(h_mn.get(i, 0) == h_nsm.get(-i, 0) for i in degs)


def cmd_serre_check(args) -> int:
    spec = load_json(args.algebra)
    a = algebra_from_spec(spec)
    rng = random.Random(args.seed)
    checks = []
    for trial in range(args.samples):
        m = random_perfect_complex(a, rng)
        n = random_perfect_complex(a, rng)
        sm = serre(m)
        checks.append(
            check_record(
                f"serre-duality-degreewise[{trial}]",
                "dim Hom(M, N shifted by -i) = dim Hom(N, S(M) shifted by i)",
                True,
                serre_duality_holds(m, n, sm),
            )
        )
        checks.append(
            check_record(
                f"serre-symmetry[{trial}]",
                "chi(M,N) = chi(N,S(M))",
                euler_pairing(m, n),
                euler_pairing(n, sm),
            )
        )
    report = {
        "command": "serre-check",
        "inputs_digest": digest([spec, args.seed, args.samples]),
        "samples": args.samples,
        "checks": checks,
        "verdict": all(c["pass"] for c in checks),
    }
    return emit(report, args)


def cmd_hochschild(args) -> int:
    spec = load_json(args.algebra)
    a = algebra_from_spec(spec)
    coeff_spec = load_json(args.coefficients) if args.coefficients else None
    w = coefficients_from_spec(coeff_spec, a)
    if args.bar_check is not None and not isinstance(w, Module):
        raise InputError("--bar-check needs a single bimodule, not a complex")
    top = args.top
    depth = top if args.bar_check is None else max(top, args.bar_check)
    dims = hochschild(a, w, top=depth)
    report = {
        "command": "hochschild",
        "inputs_digest": digest([spec, coeff_spec, top, args.bar_check]),
        "dims": dims[: top + 1],
        "euler_characteristic": hochschild_euler(a, w),
        "verdict": True,
    }
    if args.bar_check is not None:
        bar = bar_oracle(a, w, top=args.bar_check)
        dims = dims[: args.bar_check + 1]
        report["bar_dims"] = bar
        report["checks"] = [
            check_record(
                "hochschild-vs-bar",
                "resolution-based dims = bar-complex dims",
                bar,
                dims,
            )
        ]
        report["verdict"] = bar == dims
    return emit(report, args)


def cmd_intersect(args) -> int:
    spec, src = load_scenario(args, ("x", "y"), ("target",))
    dst = motive_from_spec(spec.get("target", spec["source"]))
    x = correspondence_from_spec(spec["x"], src, dst)
    y = correspondence_from_spec(spec["y"], dst, src)
    val = intersection_number(x, y)
    sym = intersection_number(y, x)
    report = {
        "command": "intersect",
        "inputs_digest": digest(spec),
        "intersection_number": scalar_to_json(val),
        "checks": [
            check_record("symmetry", "<x . y> = <y . x>", scalar_to_json(val), scalar_to_json(sym))
        ],
        "verdict": val == sym,
    }
    return emit(report, args)


def cmd_trace(args) -> int:
    spec, src = load_scenario(args, ("z",))
    z = correspondence_from_spec(spec["z"], src, src)
    val = trace(z)
    report = {
        "command": "trace",
        "inputs_digest": digest(spec),
        "trace": scalar_to_json(val),
        "verdict": True,
    }
    return emit(report, args)


def cmd_verify(args) -> int:
    spec, src = load_scenario(args, (), ("target",))
    dst = motive_from_spec(spec.get("target", spec["source"]))
    model = build_hom_model(src, dst)
    rep = verify_equivalence(model)
    rep["command"] = "verify"
    rep["inputs_digest"] = digest(spec)
    return emit(rep, args)


def cmd_corpus(args) -> int:
    rng = random.Random(args.seed)
    rows = []

    def add_row(section, name, ok, detail=""):
        rows.append({"section": section, "name": name, "pass": ok, "detail": detail})

    # per-algebra invariants
    for name in CORPUS_NAMES:
        a = corpus_algebra(name)
        g = euler_matrix(a)
        det = g.det()
        ok_det = det in (1, -1)
        add_row("euler", name, ok_det, f"det={scalar_to_json(det)}")
        if name != "Q":
            oracle = quiver_euler_oracle(name)
            add_row("euler-oracle", name, g.data == oracle, "matches arrow-count form")
        ok_s, res = check_smooth(a)
        length = resolution_length(res) if ok_s else None
        add_row("smooth", name, ok_s, f"diagonal resolution length {length}")
        w = diagonal_bimodule(a)
        top = args.bar_depth
        hh = hochschild(a, w, top=top)
        add_row("hochschild-vs-bar", name, hh == bar_oracle(a, w, top=top), f"dims={hh}")
        ok_serre = True
        for _ in range(args.samples):
            m = random_perfect_complex(a, rng)
            n = random_perfect_complex(a, rng)
            if not serre_duality_holds(m, n, serre(m)):
                ok_serre = False
        add_row("serre-duality", name, ok_serre, f"{args.samples} random pairs")

    # motive scenarios
    for name, src, dst in corpus_motive_scenarios():
        model = build_hom_model(src, dst)
        rep = verify_equivalence(model)
        detail = rep["kernel_statement"]
        add_row("verify", name, rep["verdict"], detail)

    rows.sort(key=lambda r: (r["section"], r["name"]))
    verdict = all(r["pass"] for r in rows)
    report = {
        "command": "corpus",
        "inputs_digest": digest({"seed": args.seed, "samples": args.samples}),
        "table": rows,
        "verdict": verdict,
    }
    code = emit(report, args)
    for r in rows:
        status = "pass" if r["pass"] else "FAIL"
        sys.stderr.write(f"{status:4}  {r['section']:18} {r['name']:24} {r['detail']}\n")
    return code


# -- entry point --------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def build_parser():
    # the common options are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write the JSON report to this path"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="seed for randomized sweeps (default 0)",
    )
    common.add_argument(
        "--timing",
        action="store_true",
        default=argparse.SUPPRESS,
        help="include elapsed time in the report (breaks byte-determinism)",
    )
    p = argparse.ArgumentParser(
        prog="ncmotives",
        description="Exact verification of Euler-form and Hochschild-pairing identities over quiver algebras",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("euler-matrix", parents=[common], help="Euler form Gram matrix on the simple basis")
    s.add_argument("algebra")
    s.set_defaults(func=cmd_euler_matrix)

    s = sub.add_parser("smooth-check", parents=[common], help="projective resolution of the diagonal bimodule")
    s.add_argument("algebra")
    s.set_defaults(func=cmd_smooth_check)

    s = sub.add_parser("serre-check", parents=[common], help="degreewise Serre duality on random perfect complexes")
    s.add_argument("algebra")
    s.add_argument("--samples", type=positive_int, default=10)
    s.set_defaults(func=cmd_serre_check)

    s = sub.add_parser("hochschild", parents=[common], help="Hochschild homology dimensions")
    s.add_argument("algebra")
    s.add_argument("--coefficients", help="bimodule JSON (default: diagonal)")
    s.add_argument("--top", type=non_negative_int, default=4)
    s.add_argument("--bar-check", type=non_negative_int, default=None, dest="bar_check")
    s.set_defaults(func=cmd_hochschild)

    s = sub.add_parser("intersect", parents=[common], help="intersection number of two correspondences")
    s.add_argument("scenario")
    s.set_defaults(func=cmd_intersect)

    s = sub.add_parser("trace", parents=[common], help="categorical trace of an endo-correspondence")
    s.add_argument("scenario")
    s.set_defaults(func=cmd_trace)

    s = sub.add_parser("verify", parents=[common], help="kernel-equality verdict for a Hom-space scenario")
    s.add_argument("scenario")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("corpus", parents=[common], help="run the built-in corpus and print a pass/fail table")
    s.add_argument("--samples", type=positive_int, default=6)
    s.add_argument("--bar-depth", type=non_negative_int, default=4, dest="bar_depth")
    s.set_defaults(func=cmd_corpus)

    return p


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector off: the package
    makes no reference cycle per operation (a dual holds nothing of its
    complex), so reference counting frees what a run drops.  One young pass
    right after parsing frees the argument parser, which argparse links
    both ways.  On return the collector's state is restored for in-process
    callers, after moving what the run built to the oldest generation
    (freeze then unfreeze, unless the caller has frozen objects) so that
    re-enabling does not start with a young pass over all of it.  gc.freeze
    is registered once as an exit hook, here rather than at import, so the
    final collections of shutdown skip what the process frees anyway."""
    enabled = gc.isenabled()
    gc.disable()
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        gc.collect(0)
        args.out = getattr(args, "out", None)
        args.seed = getattr(args, "seed", 0)
        args.timing = getattr(args, "timing", False)
        args._t0 = time.monotonic()
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_BAD_INPUT
    except (CyclicQuiverError, QuiverTooLargeError, TensorTooLargeError, AlgebraStructureError) as exc:
        sys.stderr.write(f"unsupported input: {exc}\n")
        return EXIT_UNSUPPORTED
    except ResolutionCapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except Exception:
        import traceback

        sys.stderr.write("internal error:\n" + traceback.format_exc())
        return EXIT_INTERNAL
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
