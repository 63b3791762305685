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
import sys
import time
from fractions import Fraction
from importlib import import_module

from .algebra import AlgebraStructureError, CyclicQuiverError, QuiverTooLargeError, TensorTooLargeError
from .corpus import (
    CORPUS_NAMES,
    corpus_algebra,
    corpus_motive_scenarios,
    quiver_euler_oracle,
    random_perfect_complex,
)
from .derived import check_smooth, euler_matrix, euler_pairing, serre
from .hochschild import bar_oracle, hochschild, hochschild_euler, intersection_number
from .homalg import hom_complex
from .linalg import Matrix, exact_text, unbounded_int_text
from .modules import Module, diagonal_bimodule
from .motives import build_hom_model, check_record, trace, verify_equivalence
from .resolutions import ResolutionCapExceeded, resolution_length
from .specs import (
    InputError,
    algebra_from_spec,
    coefficients_from_spec,
    correspondence_from_spec,
    load_json,
    motive_from_spec,
    spec_object,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


# -- report plumbing ----------------------------------------------------------------


def scalar_to_json(x):
    if isinstance(x, Fraction) and x.denominator != 1:
        return exact_text(x)
    return int(x)


def matrix_to_json(m: Matrix):
    return [[scalar_to_json(x) for x in row] for row in m.data]


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

    The command runs with the cyclic garbage collector off, so no collector
    pass interrupts it.  A run does build cycles: an algebra's memos hold
    modules and resolutions whose .algebra points back, and op(a).meta["of"]
    is a; only a full collection frees them.  One young pass right after
    parsing frees the argument parser, which argparse links both ways.  On
    return the collector's state is restored for in-process callers, after
    moving what the run built to the oldest generation (freeze then
    unfreeze, unless the caller has frozen objects) so that re-enabling does
    not start with a young pass over all of it; an in-process caller holds
    the run's cyclic graph until its next full collection.  gc.freeze is
    registered once as an exit hook, here rather than at import, so the
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
