"""Command-line front door.

Subcommands: euler-matrix, serre-check, smooth-check, hochschild, intersect,
trace, verify, corpus.  Inputs are JSON files (schemas in docs/formats.md);
output is a JSON report on stdout or --out.  Identical inputs and seed
produce byte-identical reports (timing is only included with --timing).

Exit codes: 0 all checks passed; 1 some check failed; 2 malformed input;
3 unsupported input class (e.g. a cyclic quiver); 4 resolution cap exceeded;
5 internal error (a traceback on stderr).
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
    check_table,
    hom_algebra,
    opposite,
    path_algebra,
    scalar_algebra,
    sparse_table,
    tensor,
)
from .complexes import Complex, PerfectComplex
from .corpus import (
    CORPUS_NAMES,
    corpus_algebra,
    corpus_motive_scenarios,
    quiver_euler_oracle,
    random_correspondence,
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
from .linalg import Matrix, exact_text, norm_scalar, unbounded_int_text
from .modules import Module, diagonal_bimodule, dual_bimodule
from .motives import (
    Correspondence,
    NCMotive,
    build_hom_model,
    check_record,
    complement_idempotent,
    euler_gram,
    ideal_stability_samples,
    identity_correspondence,
    trace,
    verify_equivalence,
    vertex_cut_idempotent,
)
from .resolutions import DEFAULT_CAP, ResolutionCapExceeded, resolution_length

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


def scalar_from_json(v):
    if isinstance(v, bool):
        raise InputError("booleans are not scalars")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if not SCALAR_TEXT.fullmatch(v):
            raise InputError(f"bad rational literal {v!r}: write an integer or 'p/q'")
        try:
            return norm_scalar(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {v!r}") from exc
    raise InputError(f"bad scalar {v!r}")


def matrix_to_json(m: Matrix):
    return [[scalar_to_json(x) for x in row] for row in m.data]


def spec_index(value, bound: int, what: str) -> int:
    """An index field of a spec: an integer in [0, bound)."""
    if type(value) is not int or not 0 <= value < bound:
        raise InputError(f"{what} must be an integer in [0, {bound}), not {value!r}")
    return value

# -- algebra specs -----------------------------------------------------------------


# Algebras built from specs, keyed by the canonical JSON of the spec.
_interned_algebras = weakref.WeakValueDictionary()


def algebra_from_spec(spec) -> Algebra:
    """The algebra of a JSON spec.  Equal specs give one Algebra object (and
    so one set of caches) for as long as it is in use.

    Kinds: scalar | named | quiver | opposite | tensor | table."""
    try:
        return _interned_algebra(spec)
    except RecursionError as exc:
        raise InputError("algebra spec is nested too deeply") from exc


def _interned_algebra(spec) -> Algebra:
    key = json.dumps(spec, sort_keys=True)
    a = _interned_algebras.get(key)
    if a is None:
        a = _interned_algebras[key] = _build_algebra(spec)
    return a


def _build_algebra(spec) -> Algebra:
    if not isinstance(spec, dict):
        raise InputError("algebra spec must be an object")
    kind = spec.get("kind", "quiver")
    if kind == "scalar":
        return scalar_algebra()
    if kind == "named":
        name = spec.get("name")
        if name not in CORPUS_NAMES:
            raise InputError(f"unknown named algebra {name!r}")
        return corpus_algebra(name)
    if kind == "quiver":
        try:
            vertices = spec["vertices"]
            if type(vertices) is not int or vertices < 1:
                raise InputError(f"vertices must be a positive integer, not {vertices!r}")
            arrows = [
                (a["from"], a["to"], a["label"]) for a in spec.get("arrows", [])
            ]
            for source, target, label in arrows:
                spec_index(source, vertices, "arrow endpoint")
                spec_index(target, vertices, "arrow endpoint")
                if not isinstance(label, str) or "|" in label:
                    raise InputError(f"arrow labels must be strings without '|', not {label!r}")
            quiver = Quiver(vertices, arrows)
        except CyclicQuiverError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad quiver spec: {exc}") from exc
        a = path_algebra(quiver)
        if len(set(a.labels)) != a.dim:
            dup = next(lab for k, lab in enumerate(a.labels) if lab in a.labels[:k])
            raise InputError(f"two basis elements of the quiver are labelled {dup!r}")
        return a
    if kind == "opposite":
        if "of" not in spec:
            raise InputError("opposite spec needs an 'of' algebra")
        return opposite(_interned_algebra(spec["of"]))
    if kind == "tensor":
        factors = spec.get("factors", [])
        if not isinstance(factors, list) or len(factors) != 2:
            raise InputError("tensor spec needs a list of exactly two factors")
        return tensor(_interned_algebra(factors[0]), _interned_algebra(factors[1]))
    if kind == "table":
        try:
            dim = spec["dim"]
            if type(dim) is not int or dim < 1:
                raise InputError(f"table dim must be a positive integer, not {dim!r}")
            mul = [
                [[scalar_from_json(x) for x in vec] for vec in row]
                for row in spec["mul"]
            ]
            unit = [scalar_from_json(x) for x in spec["unit"]]
            idems = [
                [scalar_from_json(x) for x in e] for e in spec["idempotents"]
            ]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad table spec: {exc}") from exc
        # dim is bounded by the size of the file only once mul has dim rows
        if len(mul) != dim or any(len(row) != dim for row in mul):
            raise InputError(f"table mul must be {dim} x {dim} product vectors")
        labels = spec["labels"] if "labels" in spec else [f"b{i}" for i in range(dim)]
        if not (
            isinstance(labels, list)
            and all(isinstance(lab, str) and "|" not in lab for lab in labels)
            and len(set(labels)) == len(labels) == dim
        ):
            raise InputError(f"table labels must be a list of {dim} distinct strings without '|'")
        vectors = [v for row in mul for v in row] + [unit, *idems]
        if any(len(v) != dim for v in vectors):
            raise InputError(
                f"table product, unit and idempotent vectors must have length {dim}"
            )
        try:
            a = Algebra(dim, labels, sparse_table(mul), unit, idems, meta={"name": "table"})
            check_table(a)
            return a
        except AlgebraStructureError:
            raise
        except ValueError as exc:
            raise InputError(f"bad table spec: {exc}") from exc
    raise InputError(f"unknown algebra kind {kind!r}")


def module_from_spec(spec, algebra: Algebra) -> Module:
    """Module over `algebra` from {"dim": d, "action": {label: matrix}}."""
    if not isinstance(spec, dict):
        raise InputError("module spec must be an object")
    try:
        dim = spec["dim"]
        if type(dim) is not int or dim < 0:
            raise InputError(f"module dim must be a non-negative integer, not {dim!r}")
        pos = {lab: i for i, lab in enumerate(algebra.labels)}
        action = [None] * algebra.dim
        for lab, rows in spec["action"].items():
            if lab not in pos:
                raise InputError(f"unknown basis label {lab!r}")
            action[pos[lab]] = Matrix(
                dim, dim, [[scalar_from_json(x) for x in r] for r in rows]
            )
        if any(m is None for m in action):
            missing = [l for l, m in zip(algebra.labels, action) if m is None]
            raise InputError(f"action missing for basis elements {missing}")
        m = Module(algebra, dim, action)
        m.check()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad module spec: {exc}") from exc
    return m


def complex_from_spec(spec, algebra: Algebra):
    """Bounded complex from degree-indexed module specs plus differentials:
    {"components": {"0": <module>, "-1": <module>}, "differentials":
    {"-1": [[...]]}} where the matrix at degree n maps degree n to n+1.
    Each differential must be a module map: it commutes with the action of
    every basis element."""
    try:
        comps = {
            int(k): module_from_spec(v, algebra)
            for k, v in spec.get("components", {}).items()
        }
        diffs = {}
        for k, rows in spec.get("differentials", {}).items():
            n = int(k)
            mat = Matrix(
                comps[n].dim,
                comps[n + 1].dim if (n + 1) in comps else 0,
                [[scalar_from_json(x) for x in r] for r in rows],
            )
            diffs[n] = mat
        c = Complex(algebra, comps, diffs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad complex spec: {exc}") from exc
    for n, d in c.differentials.items():
        src, tgt = c.components[n].action, c.components[n + 1].action
        if any(x * d != d * y for x, y in zip(src, tgt)):
            raise InputError(f"differential at degree {n} is not a module map")
    return c


def coefficients_from_spec(spec, algebra: Algebra):
    """Hochschild coefficients: a named bimodule, a bimodule, or a complex of
    bimodules with no component in a positive degree."""
    if spec is None:
        return diagonal_bimodule(algebra)
    if isinstance(spec, dict) and "named" in spec:
        if spec["named"] == "diagonal":
            return diagonal_bimodule(algebra)
        if spec["named"] == "dual":
            return dual_bimodule(algebra)
        raise InputError(f"named coefficients must be 'diagonal' or 'dual', not {spec['named']!r}")
    if isinstance(spec, dict) and "components" in spec:
        w = complex_from_spec(spec, hom_algebra(algebra, algebra))
        if w.hi > 0:
            raise InputError("coefficients must have no component in a positive degree")
        return w
    return module_from_spec(spec, hom_algebra(algebra, algebra))


def motive_from_spec(spec, cap: int = DEFAULT_CAP) -> NCMotive:
    """The motive of a JSON spec; its idempotent is resolved and checked at
    cap.  An idempotent that NCMotive refuses, such as one whose class is
    zero (an empty vertex cut, the complement of the identity or of a cut of
    every vertex), is malformed input."""
    if not isinstance(spec, dict):
        raise InputError("motive spec must be an object")
    a = algebra_from_spec(spec.get("algebra", {"kind": "scalar"}))
    try:
        idem = idempotent_from_spec(spec.get("idempotent"), a, cap)
    except RecursionError as exc:
        raise InputError("idempotent spec is nested too deeply") from exc
    try:
        return NCMotive(a, idem, cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def idempotent_from_spec(idem, a: Algebra, cap: int = DEFAULT_CAP) -> Correspondence | None:
    """The idempotent correspondence of a motive over a; None for the identity."""
    if idem is None:
        return None
    if not isinstance(idem, dict):
        raise InputError("idempotent spec must be an object")
    kind = idem.get("kind", "identity")
    if kind == "identity":
        return None
    if kind == "vertex-cut":
        vertices = idem.get("vertices", [])
        if not isinstance(vertices, list):
            raise InputError("vertex-cut vertices must be a list")
        for v in vertices:
            spec_index(v, len(a.idempotents), "vertex-cut vertex")
        try:
            return vertex_cut_idempotent(a, vertices)
        except ValueError as exc:
            raise InputError(f"bad vertex cut: {exc}") from exc
    if kind == "complement":
        inner = idempotent_from_spec(idem.get("of"), a, cap)
        if inner is None:
            inner = identity_correspondence(NCMotive(a), cap)
        return complement_idempotent(inner, cap)
    raise InputError(f"unknown idempotent kind {kind!r}")


def correspondence_from_spec(spec, src: NCMotive, dst: NCMotive, cap: int) -> Correspondence:
    if not isinstance(spec, dict) or not isinstance(spec.get("terms"), list):
        raise InputError("correspondence spec must have a terms list")
    e = hom_algebra(src.algebra, dst.algebra)
    terms = []
    for t in spec["terms"]:
        b = t.get("bimodule") if isinstance(t, dict) else None
        if not isinstance(b, dict):
            raise InputError("correspondence term must be an object with a bimodule object")
        coeff = scalar_from_json(t.get("coefficient", 1))
        kind = b.get("kind")
        if kind == "simple":
            pc = simple_resolutions(e, cap)[
                spec_index(b.get("index"), len(e.idempotents), "simple index")
            ]
        elif kind == "projective":
            pair = b.get("pair")
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError("projective pair must be a list [i, j]")
            i = spec_index(pair[0], len(src.algebra.idempotents), "projective pair entry")
            n_b = len(dst.algebra.idempotents)
            j = spec_index(pair[1], n_b, "projective pair entry")
            pc = PerfectComplex(e, {0: (i * n_b + j,)})
        elif kind == "diagonal":
            if src.algebra is not dst.algebra:
                raise InputError("diagonal terms need equal source and target algebras")
            pc = diagonal_resolution(src.algebra, cap)
        else:
            raise InputError(f"unknown bimodule kind {kind!r}")
        shift = t.get("shift", 0)
        if type(shift) is not int:
            raise InputError(f"term shift must be an integer, not {shift!r}")
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
    if getattr(args, "timing", False):
        report["elapsed_seconds"] = round(time.monotonic() - args._t0, 3)
    with unbounded_int_text():
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
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


def load_scenario(path, *required):
    """A scenario file: a JSON object holding every required key."""
    spec = load_json(path)
    if not isinstance(spec, dict):
        raise InputError("scenario must be a JSON object")
    missing = [k for k in required if k not in spec]
    if missing:
        raise InputError(f"scenario lacks {missing}")
    return spec


def scenario_option(spec, key, default):
    """A non-negative integer from the scenario's options, default if absent;
    null only where the default is None."""
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise InputError("scenario options must be an object")
    value = options.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not int or value < 0:
        raise InputError(f"option {key} must be a non-negative integer, not {value!r}")
    return value


# -- subcommands ---------------------------------------------------------------------


def cmd_euler_matrix(args) -> int:
    spec = load_json(args.algebra)
    a = algebra_from_spec(spec)
    g = euler_matrix(a, args.cap)
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
    ok, res = check_smooth(a, args.cap)
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
    top = args.top
    depth = top if args.bar_check is None else max(top, args.bar_check)
    profile = hochschild(a, w, top=depth, cap=args.cap)
    report = {
        "command": "hochschild",
        "inputs_digest": digest([spec, coeff_spec, top, args.bar_check]),
        "dims": profile.dims[: top + 1],
        "euler_characteristic": hochschild_euler(a, w, args.cap),
        "verdict": True,
    }
    if args.bar_check is not None:
        if not isinstance(w, Module):
            raise InputError("--bar-check needs a single bimodule, not a complex")
        bar = bar_oracle(a, w, top=args.bar_check)
        dims = profile.dims[: args.bar_check + 1]
        report["bar_dims"] = bar.dims
        report["checks"] = [
            check_record(
                "hochschild-vs-bar",
                "resolution-based dims = bar-complex dims",
                bar.dims,
                dims,
            )
        ]
        report["verdict"] = bar.dims == dims
    return emit(report, args)


def cmd_intersect(args) -> int:
    spec = load_scenario(args.scenario, "source", "x", "y")
    cap = scenario_option(spec, "cap", args.cap)
    src = motive_from_spec(spec["source"], cap)
    dst = motive_from_spec(spec.get("target", spec["source"]), cap)
    x = correspondence_from_spec(spec["x"], src, dst, cap)
    y = correspondence_from_spec(spec["y"], dst, src, cap)
    val = intersection_number(x, y, cap)
    sym = intersection_number(y, x, cap)
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
    spec = load_scenario(args.scenario, "source", "z")
    cap = scenario_option(spec, "cap", args.cap)
    src = motive_from_spec(spec["source"], cap)
    z = correspondence_from_spec(spec["z"], src, src, cap)
    val = trace(z, cap)
    report = {
        "command": "trace",
        "inputs_digest": digest(spec),
        "trace": scalar_to_json(val),
        "verdict": True,
    }
    return emit(report, args)


def cmd_verify(args) -> int:
    spec = load_scenario(args.scenario, "source")
    cap = scenario_option(spec, "cap", args.cap)
    src = motive_from_spec(spec["source"], cap)
    dst = motive_from_spec(spec.get("target", spec["source"]), cap)
    sample_pairs = scenario_option(spec, "sample_pairs", None)
    stability_samples = scenario_option(spec, "stability_samples", 10)
    model = build_hom_model(src, dst, cap)
    rep = verify_equivalence(model, cap, sample_pairs=sample_pairs)
    rep["command"] = "verify"
    rep["inputs_digest"] = digest(spec)
    rng = random.Random(args.seed)
    if rep["kernel_dim"]:
        kr = euler_gram(model).kernel_basis()
        partners = [
            random_correspondence(dst, NCMotive(dst.algebra), rng)
            for _ in range(stability_samples)
        ]
        stable = ideal_stability_samples(model, kr, partners, cap)
        rep["ideal_stability"] = {
            "samples": len(stable),
            "all_stable": all(stable),
        }
        rep["verdict"] = rep["verdict"] and all(stable)
    else:
        rep["ideal_stability"] = {
            "samples": 0,
            "all_stable": True,
            "note": "kernel is zero; stability premise is empty",
        }
    return emit(rep, args)


def cmd_corpus(args) -> int:
    rng = random.Random(args.seed)
    rows = []
    checks_total = []

    def add_row(section, name, ok, detail=""):
        rows.append({"section": section, "name": name, "pass": ok, "detail": detail})

    # per-algebra invariants
    for name in CORPUS_NAMES:
        a = corpus_algebra(name)
        g = euler_matrix(a, args.cap)
        det = g.det()
        ok_det = det in (1, -1)
        add_row("euler", name, ok_det, f"det={scalar_to_json(det)}")
        if name != "Q":
            oracle = quiver_euler_oracle(name)
            add_row("euler-oracle", name, g.data == oracle, "matches arrow-count form")
        ok_s, res = check_smooth(a, args.cap)
        length = (res.hi - res.lo) if ok_s and not res.is_zero() else None
        add_row("smooth", name, ok_s, f"diagonal resolution length {length}")
        w = diagonal_bimodule(a)
        top = args.bar_depth
        hh = hochschild(a, w, top=top, cap=args.cap)
        bar = bar_oracle(a, w, top=top)
        add_row("hochschild-vs-bar", name, hh.dims == bar.dims, f"dims={hh.dims}")
        ok_serre = True
        for _ in range(args.samples):
            m = random_perfect_complex(a, rng)
            n = random_perfect_complex(a, rng)
            if not serre_duality_holds(m, n, serre(m)):
                ok_serre = False
        add_row("serre-duality", name, ok_serre, f"{args.samples} random pairs")

    # motive scenarios
    for name, src, dst in corpus_motive_scenarios():
        model = build_hom_model(src, dst, args.cap)
        rep = verify_equivalence(model, args.cap)
        detail = rep["kernel_statement"]
        add_row("verify", name, rep["verdict"], detail)
        checks_total.extend(rep["checks"])

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
        "--cap",
        type=non_negative_int,
        default=argparse.SUPPRESS,
        help=f"resolution length cap (default {DEFAULT_CAP})",
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
    s.add_argument("--samples", type=non_negative_int, default=10)
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
    s.add_argument("--samples", type=non_negative_int, default=6)
    s.add_argument("--bar-depth", type=non_negative_int, default=4, dest="bar_depth")
    s.set_defaults(func=cmd_corpus)

    return p


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector off: the package
    makes no reference cycle per operation (a dual holds its complex
    weakly), so reference counting frees what a run drops.  One young pass
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
        args.cap = getattr(args, "cap", DEFAULT_CAP)
        args.timing = getattr(args, "timing", False)
        args._t0 = time.monotonic()
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_BAD_INPUT
    except (CyclicQuiverError, AlgebraStructureError) as exc:
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
