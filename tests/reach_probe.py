"""Reach probe: the functions of the package that a set of commands never enters.

Imports the package and runs seventeen commands of the command line in this
interpreter under sys.setprofile, records every function of the package
that is entered, and prints those never entered with their line counts,
then a summary line.  The import is traced too, so a decorator, which runs
only then, counts as entered.  Nested functions count; lambdas and
comprehensions do not.  The inputs are written to a temporary directory
and the reports are discarded.  Run it as

    python3 tests/reach_probe.py

The package is the one on the import path, so pointing PYTHONPATH at
another checkout's src probes that checkout; with no package on the path,
the src of the checkout holding this file is probed.  pytest does not
collect this file (its name does not start with test_).
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

from geometry_reference import kronecker_spec, line_spec

# found without importing the package, so that probe() traces its import
if find_spec("ncmotives") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
SRC = Path(find_spec("ncmotives").origin).resolve().parent

KRONECKER = kronecker_spec(2)
# A2 written as structure constants: basis e0, e1, a with e0 a = a = a e1
TABLE_A2 = {
    "format": 1,
    "kind": "table",
    "dim": 3,
    "labels": ["e0", "e1", "a"],
    "mul": [
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ],
    "unit": [1, 1, 0],
    "idempotents": [[1, 0, 0], [0, 1, 0]],
}
QXQ = {"format": 1, "kind": "quiver", "vertices": 2, "arrows": []}
# the diagonal bimodule of QxQ as an explicit module over its enveloping algebra
QXQ_DIAGONAL = {
    "format": 1,
    "dim": 2,
    "action": {
        "e0|e0": [[1, 0], [0, 0]],
        "e0|e1": [[0, 0], [0, 0]],
        "e1|e0": [[0, 0], [0, 0]],
        "e1|e1": [[0, 0], [0, 1]],
    },
}


def commands(tmp: Path):
    """The seventeen probed command lines, keyed by a short name."""

    def write(name, obj):
        path = tmp / name
        path.write_text(json.dumps(obj))
        return str(path)

    def scenario(src, dst, src_idem=None, dst_idem=None):
        s = {"format": 1, "source": {"algebra": src}, "target": {"algebra": dst}}
        for side, idem in (("source", src_idem), ("target", dst_idem)):
            if idem is not None:
                s[side]["idempotent"] = idem
        return s

    a2, a3 = line_spec(2), line_spec(3)
    cut = {"kind": "vertex-cut", "vertices": [0]}
    kron, table = write("kronecker.json", KRONECKER), write("table_a2.json", TABLE_A2)
    a2_path, a3_path, qxq = write("a2.json", a2), write("a3.json", a3), write("qxq.json", QXQ)
    simple = {"terms": [{"bimodule": {"kind": "simple", "index": 0}}]}
    half = {
        "terms": [{"coefficient": "1/2", "bimodule": {"kind": "simple", "index": 1}, "shift": 1}]
    }
    diagonal = {"terms": [{"bimodule": {"kind": "diagonal"}}]}
    one_term = {"format": 1, "components": {"0": QXQ_DIAGONAL}, "differentials": {}}
    return {
        "corpus": ["--seed", "1", "corpus", "--samples", "2", "--bar-depth", "3"],
        "verify A3->A3": ["--seed", "1", "verify", write("v1.json", scenario(a3, a3))],
        "verify A2 cut->Kronecker": [
            "--seed", "1", "verify", write("v2.json", scenario(a2, KRONECKER, cut)),
        ],
        "verify A3 complement->A2": [
            "--seed", "1", "verify",
            write("v3.json", scenario(a3, a2, {"kind": "complement", "of": cut})),
        ],
        "verify QxQ cut of both vertices": [
            "--seed", "1", "verify",
            write("v4.json", scenario(QXQ, QXQ, {"kind": "vertex-cut", "vertices": [0, 1]})),
        ],
        "hochschild A2 bar-check": ["hochschild", a2_path, "--top", "3", "--bar-check", "3"],
        "hochschild table A2 bar-check": ["hochschild", table, "--bar-check", "2"],
        "hochschild A3 dual": [
            "hochschild", a3_path, "--coefficients", write("dual.json", {"named": "dual"}),
        ],
        "hochschild QxQ module": [
            "hochschild", qxq, "--coefficients", write("module.json", QXQ_DIAGONAL),
        ],
        "hochschild QxQ complex": [
            "hochschild", qxq, "--coefficients", write("complex.json", one_term),
        ],
        "serre-check Kronecker": ["--seed", "3", "serre-check", kron, "--samples", "5"],
        "euler-matrix Kronecker": ["euler-matrix", kron],
        "euler-matrix table": ["euler-matrix", table],
        "smooth-check A3": ["smooth-check", a3_path],
        "smooth-check table": ["smooth-check", table],
        "trace A2": ["trace", write("t.json", {"format": 1, "source": {"algebra": a2}, "z": diagonal})],
        "intersect A2": [
            "intersect",
            write("i.json", {**scenario(a2, a2), "x": simple, "y": half}),
        ],
    }


def defined_functions():
    """(file, first line) -> (qualified name, line count) of every function
    defined in the package.  The first line is that of the code object:
    the first decorator's, if any."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(str(path), first)] = (f"{path.stem}.{name}", child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def probe():
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(record)
    try:
        from ncmotives.cli import main
    finally:
        sys.setprofile(None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(Path(tmp)).items():
            sink = io.StringIO()
            sys.setprofile(record)
            try:
                with contextlib.redirect_stderr(sink):
                    code = main(argv + ["--out", os.path.join(tmp, "report.json")])
            finally:
                sys.setprofile(None)
            print(f"exit {code}  {name}")
    return {(os.path.realpath(f), line) for f, line in entered}


def run():
    entered = probe()
    funcs = defined_functions()
    missed = sorted(v for k, v in funcs.items() if k not in entered)
    print("never entered (function, lines):")
    for name, lines in missed:
        print(f"  {name}  {lines}")
    print(
        f"{len(missed)} of {len(funcs)} functions "
        f"({sum(n for _, n in missed)} lines) never entered"
    )


if __name__ == "__main__":
    run()
