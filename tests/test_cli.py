import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from dense_reference import basis_vector
from ncmotives.cli import (
    InputError,
    algebra_from_spec,
    main,
    module_from_spec,
    motive_from_spec,
    scalar_to_json,
)
from ncmotives.modules import diagonal_bimodule

A2_SPEC = {
    "format": 1,
    "kind": "quiver",
    "vertices": 2,
    "arrows": [{"from": 0, "to": 1, "label": "a"}],
}

CYCLIC_SPEC = {
    "format": 1,
    "kind": "quiver",
    "vertices": 2,
    "arrows": [{"from": 0, "to": 1, "label": "a"}, {"from": 1, "to": 0, "label": "b"}],
}

DUAL_NUMBERS_SPEC = {
    "format": 1,
    "kind": "table",
    "dim": 2,
    "labels": ["1", "x"],
    "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "unit": [1, 0],
    "idempotents": [[1, 0]],
}


def write(tmp_path, name, obj):
    """Write obj as JSON, a string as the raw text of the file, or bytes as
    its raw contents."""
    p = tmp_path / name
    if isinstance(obj, bytes):
        p.write_bytes(obj)
    else:
        p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(p)


def run_to_report(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_euler_matrix_command(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    code, report = run_to_report(tmp_path, ["euler-matrix", spec])
    assert code == 0
    assert report["matrix"] == [[1, -1], [0, 1]]
    assert report["determinant"] in (1, -1)
    assert report["kernel_left"] == [] and report["kernel_right"] == []


def test_smooth_check_command(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    code, report = run_to_report(tmp_path, ["smooth-check", spec])
    assert code == 0
    assert report["smooth"] and report["proper"]
    assert report["diagonal_resolution_length"] == 1


def test_serre_check_command(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    code, report = run_to_report(tmp_path, ["--seed", "3", "serre-check", spec, "--samples", "4"])
    assert code == 0
    assert report["verdict"]
    assert len(report["checks"]) == 8


def test_hochschild_command_with_bar_check(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    code, report = run_to_report(
        tmp_path, ["hochschild", spec, "--top", "4", "--bar-check", "4"]
    )
    assert code == 0
    assert report["dims"] == [2, 0, 0, 0, 0]
    assert report["bar_dims"] == [2, 0, 0, 0, 0]


def test_hochschild_dual_coefficients(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    coeff = write(tmp_path, "coeff.json", {"named": "dual"})
    code, report = run_to_report(
        tmp_path, ["hochschild", spec, "--coefficients", coeff, "--top", "3"]
    )
    assert code == 0
    assert report["dims"] == [1, 0, 0, 0]


def test_hochschild_euler_characteristic_counts_every_degree(tmp_path):
    """--top truncates dims, not the Euler characteristic: with the diagonal
    bimodule of A2 in degree -5, HH_5 = 2 lies past the default top 4."""
    spec = write(tmp_path, "a2.json", A2_SPEC)
    coeff = write(
        tmp_path,
        "deep.json",
        {"format": 1, "components": {"-5": A2_DIAGONAL_SPEC}, "differentials": {}},
    )
    code, report = run_to_report(tmp_path, ["hochschild", spec, "--coefficients", coeff])
    assert code == 0
    assert report["dims"] == [0, 0, 0, 0, 0]
    assert report["euler_characteristic"] == -2


def test_hochschild_bar_check_deeper_than_top(tmp_path):
    """--bar-check past --top compares the bar dims with a profile computed
    to the bar depth, not with the truncated dims padded by zeros: the
    Kronecker quiver with dual coefficients has HH_1 = 3."""
    kronecker = {
        "format": 1,
        "kind": "quiver",
        "vertices": 2,
        "arrows": [{"from": 0, "to": 1, "label": x} for x in "ab"],
    }
    spec = write(tmp_path, "kronecker.json", kronecker)
    coeff = write(tmp_path, "dual.json", {"named": "dual"})
    argv = ["hochschild", spec, "--coefficients", coeff, "--top", "0", "--bar-check", "1"]
    code, report = run_to_report(tmp_path, argv)
    assert code == 0
    assert report["verdict"] is True
    assert report["dims"] == [1]
    assert report["bar_dims"] == [1, 3]
    assert report["checks"][0]["actual"] == "[1, 3]"
    assert report["euler_characteristic"] == -2


def test_hochschild_explicit_module_and_complex_coefficients(tmp_path):
    # the diagonal bimodule of QxQ written out as an explicit module over
    # the enveloping algebra, then the same thing as a one-term complex
    qxq = {"format": 1, "kind": "quiver", "vertices": 2, "arrows": []}
    labels = ["e0|e0", "e0|e1", "e1|e0", "e1|e1"]
    act = {
        "e0|e0": [[1, 0], [0, 0]],
        "e0|e1": [[0, 0], [0, 0]],
        "e1|e0": [[0, 0], [0, 0]],
        "e1|e1": [[0, 0], [0, 1]],
    }
    spec = write(tmp_path, "qxq.json", qxq)
    module_spec = {"format": 1, "dim": 2, "action": act}
    coeff = write(tmp_path, "diag.json", module_spec)
    code, report = run_to_report(
        tmp_path, ["hochschild", spec, "--coefficients", coeff, "--top", "2"]
    )
    assert code == 0
    assert report["dims"] == [2, 0, 0]
    coeff2 = write(
        tmp_path,
        "diag_complex.json",
        {"format": 1, "components": {"0": module_spec}, "differentials": {}},
    )
    code2, report2 = run_to_report(
        tmp_path, ["hochschild", spec, "--coefficients", coeff2, "--top", "2"]
    )
    assert code2 == 0
    assert report2["dims"] == [2, 0, 0]


def test_verify_command_identity_scenario(tmp_path):
    scenario = {
        "format": 1,
        "source": {"algebra": A2_SPEC},
        "target": {"algebra": A2_SPEC},
    }
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["verify", path])
    assert code == 0
    assert report["verdict"]
    assert report["unimodular"]
    assert report["ideal_stability"]["samples"] == 0


def test_verify_command_with_no_sampled_pairs(tmp_path):
    scenario = {"format": 1, "source": {"algebra": A2_SPEC}, "options": {"sample_pairs": 0}}
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["verify", path])
    assert code == 0
    assert not any("[" in c["name"] for c in report["checks"])


def test_verify_command_restricted_scenario(tmp_path):
    scenario = {
        "format": 1,
        "source": {
            "algebra": A2_SPEC,
            "idempotent": {"kind": "vertex-cut", "vertices": [0]},
        },
        "target": {"algebra": A2_SPEC},
    }
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["verify", path])
    assert code == 0
    assert report["verdict"]


def test_trace_command(tmp_path):
    scenario = {
        "format": 1,
        "source": {"algebra": A2_SPEC},
        "z": {"terms": [{"coefficient": 1, "bimodule": {"kind": "diagonal"}}]},
    }
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["trace", path])
    assert code == 0
    assert report["trace"] == 2


def test_intersect_command(tmp_path):
    scenario = {
        "format": 1,
        "source": {"algebra": A2_SPEC},
        "target": {"algebra": A2_SPEC},
        "x": {"terms": [{"coefficient": 1, "bimodule": {"kind": "simple", "index": 0}}]},
        "y": {"terms": [{"coefficient": "1/2", "bimodule": {"kind": "simple", "index": 1}}]},
    }
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["intersect", path])
    assert code == 0  # symmetry check passes


def test_equal_specs_share_one_algebra():
    spec = {"algebra": _line_quiver(3)}
    assert motive_from_spec(spec).algebra is motive_from_spec(json.loads(json.dumps(spec))).algebra
    assert algebra_from_spec(A2_SPEC) is algebra_from_spec(dict(reversed(list(A2_SPEC.items()))))


def test_intersect_diagonal_terms_on_equal_quiver_specs(tmp_path):
    """Source and target given by equal (non-named) specs are one algebra,
    so diagonal terms are accepted."""
    diagonal = {"terms": [{"bimodule": {"kind": "diagonal"}}]}
    scenario = {
        "format": 1,
        "source": {"algebra": A2_SPEC},
        "target": {"algebra": A2_SPEC},
        "x": diagonal,
        "y": diagonal,
    }
    path = write(tmp_path, "scenario.json", scenario)
    code, report = run_to_report(tmp_path, ["intersect", path])
    assert code == 0
    assert report["verdict"] is True


def test_malformed_json_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["euler-matrix", str(p)]) == 2


def test_bad_schema_exit_code(tmp_path):
    spec = write(tmp_path, "bad.json", {"kind": "quiver", "arrows": "nope"})
    assert main(["euler-matrix", spec]) == 2


def _table(**changes):
    spec = {"kind": "table", "dim": 1, "mul": [[[1]]], "unit": [1], "idempotents": [[1]]}
    spec.update(changes)
    return spec


MALFORMED_TABLES = {
    "product-vector-too-long": _table(mul=[[[1, 1]]]),
    "product-vector-too-short": _table(mul=[[[]]]),
    "too-few-rows": _table(mul=[]),
    "too-many-rows": _table(mul=[[[1]], [[1]]]),
    "row-too-long": _table(mul=[[[1], [0]]]),
    "unit-too-long": _table(unit=[1, 0]),
    "idempotent-too-long": _table(idempotents=[[1, 0]]),
    "dim-larger-than-table": _table(dim=2),
    "dim-not-an-integer": _table(dim="1"),
    "dim-negative": _table(dim=-1),
    "dim-zero": _table(dim=0, mul=[], unit=[], idempotents=[]),
    "unit-not-a-unit": _table(unit=[0]),
    "idempotent-not-idempotent": _table(idempotents=[["1/2"]]),
    "labels-too-many": _table(labels=["x", "y"]),
    "labels-not-a-list": _table(labels=5),
    "labels-not-strings": _table(labels=[1]),
    "labels-repeated": _table(
        dim=2,
        labels=["a", "a"],
        mul=[[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        unit=[1, 1],
        idempotents=[[1, 0], [0, 1]],
    ),
    # basis 1, x, y with x x = y, y x = y and x y = 0: (x x) x = y but x (x x) = 0
    "not-associative": _table(
        dim=3,
        mul=[
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 1], [0, 0, 0]],
        ],
        unit=[1, 0, 0],
        idempotents=[[1, 0, 0]],
    ),
}


@pytest.mark.parametrize("spec", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES.keys())
def test_malformed_table_spec_exit_code(tmp_path, spec):
    path = write(tmp_path, "table.json", spec)
    assert main(["euler-matrix", path]) == 2


def test_table_dim_is_checked_before_anything_of_that_size_is_built(tmp_path):
    """A table's dim is compared with its mul before default labels are
    made, so a dim of a million on an empty table costs nothing."""
    import tracemalloc

    path = write(tmp_path, "table.json", _table(dim=10**6, mul=[], unit=[], idempotents=[]))
    tracemalloc.start()
    try:
        assert main(["euler-matrix", path]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# Q[x]/(x^2 - x) on the basis 1, x: the unit is its one idempotent, but
# x and 1 - x split it, so e A e / e (rad A) e = A is two-dimensional.
NON_PRIMITIVE_TABLE = _table(
    dim=2,
    mul=[[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
    unit=[1, 0],
    idempotents=[[1, 0]],
)


def test_non_primitive_table_idempotent_is_unsupported(tmp_path, capsys):
    path = write(tmp_path, "table.json", NON_PRIMITIVE_TABLE)
    assert main(["euler-matrix", path]) == 3
    assert "idempotent 0 is not primitive" in capsys.readouterr().err


def test_the_same_algebra_on_its_primitive_idempotents_loads(tmp_path):
    """Q[x]/(x^2 - x) on the basis x, 1 - x with both as idempotents is
    Q x Q: its Euler matrix is the identity and HH = [2, 0, 0]."""
    path = write(
        tmp_path,
        "table.json",
        _table(
            dim=2,
            mul=[[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            unit=[1, 1],
            idempotents=[[1, 0], [0, 1]],
        ),
    )
    code, report = run_to_report(tmp_path, ["euler-matrix", path])
    assert code == 0 and report["matrix"] == [[1, 0], [0, 1]]
    code, report = run_to_report(tmp_path, ["hochschild", path, "--top", "2"])
    assert code == 0 and report["dims"] == [2, 0, 0]


A2_MOTIVE = {"algebra": A2_SPEC}
SIMPLE_TERMS = {"terms": [{"bimodule": {"kind": "simple", "index": 0}}]}


def _simple_times(coefficient):
    """The first simple class with a coefficient, as a correspondence spec."""
    return {"terms": [{"coefficient": coefficient, "bimodule": {"kind": "simple", "index": 0}}]}


def _trace_of_simple_times(coefficient):
    return ["trace", {"source": A2_MOTIVE, "z": _simple_times(coefficient)}]


def _cut(vertices):
    return {"algebra": A2_SPEC, "idempotent": {"kind": "vertex-cut", "vertices": vertices}}


# Command lines in which each non-string item is the contents of an input
# file.  Each is outside the documented input contract and must end in exit
# 2: never in a traceback (exit 1), a silent pass, or another exit code.
ZERO_ACTION = {"dim": 1, "action": {f"{x}|{y}": [[0]] for x in ("e0", "e1", "a") for y in ("e0", "e1", "a")}}
A2_DIAGONAL = diagonal_bimodule(algebra_from_spec(A2_SPEC))
A2_DIAGONAL_SPEC = {
    "dim": A2_DIAGONAL.dim,
    "action": {
        lab: [[scalar_to_json(x) for x in row] for row in m.data]
        for lab, m in zip(A2_DIAGONAL.algebra.labels, A2_DIAGONAL.action)
    },
}
NO_VERTICES = {"kind": "quiver", "vertices": 0}


def _quiver(vertices, arrows):
    arrows = [{"from": s, "to": t, "label": lab} for s, t, lab in arrows]
    return {"kind": "quiver", "vertices": vertices, "arrows": arrows}


def _diagonal_pair(d):
    """The diagonal bimodule of A2 (basis e0, e1, a) in degrees -1 and 0,
    with d from degree -1 to 0.  A d that is not a bimodule map either moves
    a Peirce block (e0 to e1) or keeps its blocks (e0 to e0, which fails
    e0 * a = a)."""
    comps = {"-1": A2_DIAGONAL_SPEC, "0": A2_DIAGONAL_SPEC}
    return {"format": 1, "components": comps, "differentials": {"-1": d}}


MALFORMED_INPUTS = {
    "vertex-cut-out-of-range": ["verify", {"source": _cut([7])}],
    "vertex-cut-with-a-path": ["verify", {"source": _cut([0, 1])}],
    "vertex-cut-not-a-list": ["verify", {"source": _cut(0)}],
    # an idempotent whose class is zero gives the zero motive
    "vertex-cut-empty": ["verify", {"source": _cut([])}],
    "complement-of-the-identity": [
        "verify", {"source": {"algebra": A2_SPEC, "idempotent": {"kind": "complement"}}},
    ],
    "complement-of-every-vertex": [
        "verify",
        {
            "source": {
                "algebra": _quiver(2, []),
                "idempotent": {"kind": "complement", "of": {"kind": "vertex-cut", "vertices": [0, 1]}},
            }
        },
    ],
    "idempotent-not-an-object": ["verify", {"source": {"algebra": A2_SPEC, "idempotent": "x"}}],
    "scenario-is-an-array": ["verify", [A2_MOTIVE]],
    "negative-option": ["verify", {"source": A2_MOTIVE, "options": {"stability_samples": -1}}],
    "intersect-without-x": ["intersect", {"source": A2_MOTIVE, "target": A2_MOTIVE, "y": SIMPLE_TERMS}],
    "trace-without-z": ["trace", {"source": A2_MOTIVE}],
    # a scenario names its source: none of these may default to Q
    "verify-without-source": ["verify", {"format": 1}],
    "trace-without-source": ["trace", {"format": 1, "z": {"terms": []}}],
    "intersect-without-source": ["intersect", {"format": 1, "x": {"terms": []}, "y": {"terms": []}}],
    # a file is read only in format 1
    "format-7": ["euler-matrix", {"format": 7, "kind": "named", "name": "A2"}],
    "format-a-string": ["euler-matrix", {"format": "1", "kind": "named", "name": "A2"}],
    "format-a-boolean": ["euler-matrix", {"format": True, "kind": "named", "name": "A2"}],
    "scenario-format-2": ["verify", {"format": 2, "source": A2_MOTIVE}],
    "coefficients-format-2": ["hochschild", A2_SPEC, "--coefficients", {"format": 2, "named": "dual"}],
    "term-not-an-object": ["trace", {"source": A2_MOTIVE, "z": {"terms": [1]}}],
    "simple-index-out-of-range": [
        "trace",
        {"source": A2_MOTIVE, "z": {"terms": [{"bimodule": {"kind": "simple", "index": 9}}]}},
    ],
    "projective-pair-out-of-range": [
        "trace",
        {"source": A2_MOTIVE, "z": {"terms": [{"bimodule": {"kind": "projective", "pair": [0, 2]}}]}},
    ],
    "arrow-out-of-range": [
        "euler-matrix",
        {"kind": "quiver", "vertices": 2, "arrows": [{"from": 0, "to": 5, "label": "a"}]},
    ],
    "negative-vertex-count": ["euler-matrix", {"kind": "quiver", "vertices": -1}],
    "no-vertices-serre-check": ["serre-check", NO_VERTICES],
    "no-vertices-verify": ["verify", {"source": {"algebra": NO_VERTICES}}],
    "arrow-labels-integers": ["euler-matrix", _quiver(3, [(0, 1, 1), (1, 2, 2)])],
    "arrow-labelled-as-a-vertex": ["euler-matrix", _quiver(2, [(0, 1, "e0")])],
    "arrow-labelled-as-a-path": [
        "euler-matrix",
        _quiver(3, [(0, 1, "a"), (1, 2, "b"), (0, 2, "a*b")]),
    ],
    # raw file contents: bytes that are not UTF-8, and an integer literal
    # past CPython's limit of 4300 digits for converting text to int
    "file-not-utf-8": ["euler-matrix", b"\xff\xfe"],
    "integer-literal-too-long": ["euler-matrix", b'{"kind":"quiver","vertices":' + b"1" * 5000 + b"}"],
    "coefficient-literal-too-long": [
        "trace",
        b'{"source": {"algebra": {"vertices": 2}}, "z": {"terms": [{"coefficient": '
        + b"1" * 5000
        + b', "bimodule": {"kind": "simple", "index": 0}}]}}',
    ],
    # a scalar string is an integer or "p/q": no other form Fraction reads
    "scalar-string-too-long": _trace_of_simple_times("1" * 5000),
    "scalar-exponent": _trace_of_simple_times("1e5000"),
    "scalar-negative-exponent": _trace_of_simple_times("1e-5000"),
    "scalar-decimal": _trace_of_simple_times("0.5"),
    "scalar-underscore": _trace_of_simple_times("1_000"),
    "scalar-spaces": _trace_of_simple_times(" 1/2 "),
    "scalar-zero-denominator": _trace_of_simple_times("1/0"),
    # tensor labels are `la|lb`, so a label holding `|` can collide
    "arrow-label-with-a-bar": ["euler-matrix", _quiver(3, [(0, 1, "e1|e2"), (1, 2, "e0|e1")])],
    "table-label-with-a-bar": ["euler-matrix", {**DUAL_NUMBERS_SPEC, "labels": ["1", "x|y"]}],
    "module-axioms-fail": ["hochschild", A2_SPEC, "--coefficients", ZERO_ACTION],
    "module-dim-is-a-boolean": [
        "hochschild",
        A2_SPEC,
        "--coefficients",
        {"dim": True, "action": {lab: [[int(lab == "e0|e0")]] for lab in ZERO_ACTION["action"]}},
    ],
    "coefficient-differential-moves-a-block": [
        "hochschild", A2_SPEC, "--coefficients", _diagonal_pair([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    ],
    "coefficient-differential-keeps-its-blocks": [
        "hochschild", A2_SPEC, "--coefficients", _diagonal_pair([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ],
    "coefficients-in-degree-1": [
        "hochschild",
        A2_SPEC,
        "--coefficients",
        {"format": 1, "components": {"1": A2_DIAGONAL_SPEC}, "differentials": {}},
    ],
    "negative-top": ["hochschild", A2_SPEC, "--top", "-3"],
    "negative-bar-check": ["hochschild", A2_SPEC, "--bar-check", "-1"],
    "negative-samples": ["serre-check", A2_SPEC, "--samples", "-1"],
    "negative-cap": ["--cap", "-1", "euler-matrix", A2_SPEC],
    "corpus-negative-samples": ["corpus", "--samples", "-1"],
    "corpus-negative-bar-depth": ["corpus", "--bar-depth", "-2"],
}


@pytest.mark.parametrize("argv", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exit_code(tmp_path, argv):
    argv = [
        a if isinstance(a, str) else write(tmp_path, f"input{k}.json", a)
        for k, a in enumerate(argv)
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad option value
        code = exc.code
    assert code == 2


def test_files_without_a_format_are_read_as_format_1(tmp_path):
    a2 = write(tmp_path, "a2.json", {k: v for k, v in A2_SPEC.items() if k != "format"})
    assert main(["euler-matrix", a2, "--out", str(tmp_path / "e.json")]) == 0
    dual = write(tmp_path, "dual.json", {"named": "dual"})
    assert main(["hochschild", a2, "--coefficients", dual, "--out", str(tmp_path / "h.json")]) == 0
    scenario = write(tmp_path, "s.json", {"source": {"algebra": A2_SPEC}})
    assert main(["verify", scenario, "--out", str(tmp_path / "v.json")]) == 0


def test_complement_idempotent_of_a_quiver_spec(tmp_path):
    """The complement is built over the motive's own algebra, so it needs
    no named algebra to be idempotent."""
    target = {"algebra": A2_SPEC, "idempotent": {"kind": "complement", "of": _cut([1])["idempotent"]}}
    path = write(tmp_path, "scenario.json", {"format": 1, "source": _cut([0]), "target": target})
    code, report = run_to_report(tmp_path, ["verify", path])
    assert code == 0
    assert report["verdict"] is True


def test_rational_literals_are_normalized_on_load():
    """"4/2" is the integer 2 once loaded; Matrix keeps entries as given."""
    a2 = algebra_from_spec(A2_SPEC)
    spec = {
        "dim": 2,
        "action": {
            "e0": [["2/2", 0], [0, 0]],
            "e1": [[0, 0], [0, "3/3"]],
            "a": [[0, "4/2"], [0, 0]],
        },
    }
    m = module_from_spec(spec, a2)
    entries = [x for mat in m.action for row in mat.data for x in row]
    assert all(type(x) is int for x in entries)
    assert m.action[a2.labels.index("a")].data[0][1] == 2


def test_exact_results_of_any_length_are_written(tmp_path):
    """Each 4000-digit coefficient is within the input limit of 4300 digits,
    and their 8000-digit product is written in full."""
    c = 10**4000 - 1
    one = {"format": 1, "source": A2_MOTIVE, "target": A2_MOTIVE, "x": SIMPLE_TERMS, "y": SIMPLE_TERMS}
    big = {**one, "x": _simple_times(c), "y": _simple_times(c)}
    code, report = run_to_report(tmp_path, ["intersect", write(tmp_path, "one.json", one)])
    assert code == 0
    unit = report["intersection_number"]
    out = tmp_path / "big.json"
    assert main(["intersect", write(tmp_path, "big.json", big), "--out", str(out)]) == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out.read_text())
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["intersection_number"] == unit * c * c != 0
    assert report["verdict"] is True


def test_cyclic_quiver_exit_code(tmp_path):
    spec = write(tmp_path, "cyclic.json", CYCLIC_SPEC)
    assert main(["euler-matrix", spec]) == 3


def test_cap_exceeded_exit_code(tmp_path):
    spec = write(tmp_path, "dual.json", DUAL_NUMBERS_SPEC)
    assert main(["--cap", "4", "euler-matrix", spec]) == 4


def test_cap_exceeded_on_a_hom_algebra_exit_code(tmp_path):
    """The simple resolutions over op(A3) (x) A3 have length 2, so cap 1
    must refuse them even though each factor's resolutions fit."""
    a3 = {"algebra": _line_quiver(3)}
    path = write(tmp_path, "a3.json", {"format": 1, "source": a3, "target": a3})
    assert main(["--cap", "1", "verify", path]) == 4


def test_report_determinism(tmp_path):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["--seed", "11", "serre-check", spec, "--samples", "3", "--out", str(out1)]) == 0
    assert main(["--seed", "11", "serre-check", spec, "--samples", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_corpus_command_small(tmp_path):
    code, report = run_to_report(
        tmp_path, ["--seed", "5", "corpus", "--samples", "1", "--bar-depth", "2"]
    )
    assert code == 0
    assert report["verdict"]
    sections = {row["section"] for row in report["table"]}
    assert {"euler", "euler-oracle", "smooth", "hochschild-vs-bar", "serre-duality", "verify"} <= sections


def _table_example_from_docs():
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    block = re.search(r'```json\n(\{"kind": "table".*?)```', text, re.S).group(1)
    return json.loads(block)


def test_dense_table_specs_load_and_multiply():
    """The JSON table format stays dense; loading converts it to the sparse
    structure constants and the basis products read back as in the file."""
    for spec in (_table_example_from_docs(), DUAL_NUMBERS_SPEC):
        a = algebra_from_spec(spec)
        a._check_basic()
        for i in range(a.dim):
            for j in range(a.dim):
                product = a.multiply(basis_vector(a, i), basis_vector(a, j))
                assert product == spec["mul"][i][j]


def _line_quiver(n):
    arrows = [{"from": i, "to": i + 1, "label": f"a{i}"} for i in range(n - 1)]
    return {"format": 1, "kind": "quiver", "vertices": n, "arrows": arrows}


# SHA-256 of the reports of the benchmark's commands.  They depend only on
# the mathematics, so a change of representation or of how much
# intermediate work is built must leave them byte-identical.
PINNED_VERIFY = {
    (3, 3): "ca66a827db84da1538f5aa85acc98d81f817dfca381a0840e8fae56bf403b382",
    (4, 2): "7904f49a9dd3e440bb156adaa05af9b676619a1bee182106a9fb1f051d3a0229",
    (5, 3): "ca015bd098424cf466a5665f495a275e77aabad6c0e3f5217b982731e4362a0d",
}
PINNED_CORPUS = "1e6fc928f8fa8616796f1da209bf543f21987ae5d21196a1b7c13da0b301461a"


def _report_sha256(tmp_path, argv):
    out = tmp_path / "pinned.json"
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_benchmark_reports_are_pinned(tmp_path):
    for (m, n), expected in PINNED_VERIFY.items():
        scenario = {
            "format": 1,
            "source": {"algebra": _line_quiver(m)},
            "target": {"algebra": _line_quiver(n)},
        }
        path = write(tmp_path, f"verify_A{m}_A{n}.json", scenario)
        assert _report_sha256(tmp_path, ["--seed", "1", "verify", path]) == expected
    corpus = ["--seed", "1", "corpus", "--samples", "2", "--bar-depth", "3"]
    assert _report_sha256(tmp_path, corpus) == PINNED_CORPUS


def _plus_one_on_first_call(f):
    calls = []

    def mutated(*args):
        calls.append(args)
        return f(*args) + (len(calls) == 1)

    return mutated


# (function in motives, its mutation, the check family that must catch it)
VERIFY_MUTATIONS = {
    "one-trace-plus-one": ("trace", _plus_one_on_first_call, "trace-formula"),
    "one-intersection-number-plus-one": (
        "intersection_number",
        _plus_one_on_first_call,
        "commutative-square",
    ),
    "serre-is-the-identity": ("serre_correspondence", lambda f: lambda x: x, "serre-symmetry"),
}


@pytest.mark.parametrize("mutation", VERIFY_MUTATIONS.values(), ids=VERIFY_MUTATIONS.keys())
def test_each_pairwise_check_can_fail(tmp_path, monkeypatch, mutation):
    """The pairwise checks share their left side chi(x, y) with the Euler
    Gram of the report, so a wrong right side must still flip the verdict
    of verify A3 -> A3."""
    from ncmotives import motives

    name, mutate, family = mutation
    monkeypatch.setattr(motives, name, mutate(getattr(motives, name)))
    a3 = {"algebra": _line_quiver(3)}
    path = write(tmp_path, "a3.json", {"format": 1, "source": a3, "target": a3})
    code, report = run_to_report(tmp_path, ["--seed", "1", "verify", path])
    assert code == 1 and report["verdict"] is False
    failed = {c["name"].split("[")[0] for c in report["checks"] if not c["pass"]}
    assert family in failed


def test_verify_three_arrow_kronecker_endo(tmp_path):
    k3 = {
        "format": 1,
        "kind": "quiver",
        "vertices": 2,
        "arrows": [{"from": 0, "to": 1, "label": x} for x in "abc"],
    }
    path = write(tmp_path, "k3.json", {"format": 1, "source": {"algebra": k3}, "target": {"algebra": k3}})
    code, report = run_to_report(tmp_path, ["verify", path])
    assert code == 0
    assert report["verdict"] is True
    assert report["dim"] == 4
    assert report["kernel_dim"] == 0


def _nested_opposite(spec, depth):
    for _ in range(depth):
        spec = {"kind": "opposite", "of": spec}
    return spec


MALFORMED_COMPOSITE_SPECS = {
    "opposite-without-of": {"kind": "opposite"},
    "opposite-of-a-number": {"kind": "opposite", "of": 5},
    "tensor-factors-a-number": {"kind": "tensor", "factors": 5},
    "tensor-factors-a-string": {"kind": "tensor", "factors": "ab"},
    "tensor-one-factor": {"kind": "tensor", "factors": [A2_SPEC]},
    "tensor-factor-a-number": {"kind": "tensor", "factors": [A2_SPEC, 1]},
    # valid JSON, but nested past what the recursive spec builder can follow
    "opposite-nested-700-deep": _nested_opposite(A2_SPEC, 700),
    # too deep for json.load itself; json.dumps cannot write it, so raw text
    "opposite-nested-5000-deep": '{"kind": "opposite", "of": ' * 5000
    + json.dumps(A2_SPEC)
    + "}" * 5000,
}


@pytest.mark.parametrize(
    "spec", MALFORMED_COMPOSITE_SPECS.values(), ids=MALFORMED_COMPOSITE_SPECS.keys()
)
def test_malformed_opposite_and_tensor_specs_exit_code(tmp_path, spec):
    path = write(tmp_path, "composite.json", spec)
    assert main(["euler-matrix", path]) == 2


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    """An exception outside the documented classes is a bug: exit 5 with the
    traceback on stderr, never exit 1 (a failed check)."""
    import ncmotives.cli as cli

    def broken(args):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(cli, "cmd_euler_matrix", broken)
    assert main(["euler-matrix", write(tmp_path, "a2.json", A2_SPEC)]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: deliberate failure" in err


def test_unknown_named_coefficients_name_the_allowed_values(tmp_path, capsys):
    spec = write(tmp_path, "a2.json", A2_SPEC)
    coeff = write(tmp_path, "coeff.json", {"named": "foo"})
    assert main(["hochschild", spec, "--coefficients", coeff]) == 2
    err = capsys.readouterr().err
    assert "'diagonal'" in err and "'dual'" in err and "'foo'" in err


def test_deeply_nested_idempotent_spec_is_malformed():
    """A complement nested past the recursion limit is malformed input, not
    an internal error."""
    idem = {"kind": "vertex-cut", "vertices": [0]}
    for _ in range(sys.getrecursionlimit()):
        idem = {"kind": "complement", "of": idem}
    with pytest.raises(InputError, match="nested too deeply"):
        motive_from_spec({"algebra": A2_SPEC, "idempotent": idem})


def test_commands_load_no_openssl(tmp_path):
    """verify and corpus never load hashlib's OpenSSL backend: the report
    digest comes from CPython's own SHA-256 module.  This runs in a fresh
    interpreter, since pytest itself may import hashlib."""
    a3 = {
        "format": 1,
        "kind": "quiver",
        "vertices": 3,
        "arrows": [{"from": i, "to": i + 1, "label": f"a{i}"} for i in range(2)],
    }
    path = write(tmp_path, "a3.json", {"format": 1, "source": {"algebra": a3}, "target": {"algebra": a3}})
    script = (
        "import sys\n"
        "from ncmotives.cli import main\n"
        f"assert main(['verify', {path!r}, '--out', {str(tmp_path / 'v.json')!r}]) == 0\n"
        "argv = ['corpus', '--samples', '1', '--bar-depth', '1']\n"
        f"assert main(argv + ['--out', {str(tmp_path / 'c.json')!r}]) == 0\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
    )
    assert _run_fresh(script, timeout=120) == "[]"


DIGEST_INPUTS = [
    A2_SPEC,
    {"format": 1, "kind": "quiver", "vertices": 2, "arrows": [{"from": 0, "to": 1, "label": "α→β"}]},
    [DUAL_NUMBERS_SPEC, 7, 20],
    {"seed": 1, "samples": 2},
]


def _hashlib_digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "present",
    [None, "_sha2", "_sha256", "hashlib"],
    ids=["this-interpreter", "sha2-branch", "sha256-branch", "hashlib-fallback"],
)
def test_digest_is_sha256_on_every_import_branch(monkeypatch, present):
    """digest takes sha256 from `_sha2`, else `_sha256`, else hashlib.  Each
    branch is forced by blocking the modules before it (None in sys.modules
    makes an import fail) and standing in a counting wrapper for the module
    it should take; on each, the digest is hashlib's SHA-256, also of a spec
    with non-ASCII labels."""
    import types

    from ncmotives.cli import digest

    expected = [_hashlib_digest(obj) for obj in DIGEST_INPUTS]
    calls = []
    sha256 = hashlib.sha256

    def counted(data):
        calls.append(data)
        return sha256(data)

    if present is not None:
        for name in ("_sha2", "_sha256"):
            stand_in = types.SimpleNamespace(sha256=counted) if name == present else None
            monkeypatch.setitem(sys.modules, name, stand_in)
    if present == "hashlib":
        monkeypatch.setattr(hashlib, "sha256", counted)
    assert [digest(obj) for obj in DIGEST_INPUTS] == expected
    assert len(calls) == (0 if present is None else len(DIGEST_INPUTS))


def _run_fresh(script, timeout):
    """Run a Python script in a fresh interpreter on this checkout's package
    and return its last line of output; a hang fails the test at timeout.
    The interpreter runs with -B, so it leaves no bytecode in the checkout."""
    import subprocess

    import ncmotives

    src = str(Path(ncmotives.__file__).resolve().parents[1])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    p = subprocess.run(
        [sys.executable, "-B", "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert p.returncode == 0, p.stderr
    return p.stdout.strip().splitlines()[-1]


def test_fresh_interpreters_write_no_bytecode():
    assert _run_fresh("import sys\nprint(sys.flags.dont_write_bytecode)", timeout=30) == "1"


def test_a_run_makes_no_reference_cycle_per_sample(tmp_path):
    """main runs without the cycle collector, which is safe only while the
    package makes no reference cycle per operation.  With collection off
    and every unreachable object saved, the garbage left by a run must not
    grow with its number of samples (a strong complex <-> dual pair made
    serre-check A3 leave 696 objects at 2 samples and 9851 at 40)."""
    a3 = write(tmp_path, "a3.json", {"format": 1, "kind": "named", "name": "A3"})
    out = str(tmp_path / "out.json")
    script = (
        "import gc\n"
        "from ncmotives.cli import main\n"
        "gc.disable()\n"
        "gc.set_debug(gc.DEBUG_SAVEALL)\n"
        "counts = []\n"
        f"for argv in (['serre-check', {a3!r}, '--samples', '2'], ['serre-check', {a3!r}, '--samples', '40'],\n"
        "             ['corpus', '--samples', '2', '--bar-depth', '1'], ['corpus', '--samples', '6', '--bar-depth', '1']):\n"
        f"    assert main(argv + ['--out', {out!r}]) == 0\n"
        "    counts.append(gc.collect())\n"
        "print(counts)\n"
    )
    serre2, serre40, corpus2, corpus6 = json.loads(_run_fresh(script, timeout=120))
    assert serre40 - serre2 < 5 * 38
    assert corpus6 - corpus2 < 5 * 4


def test_a_run_leaves_none_of_its_algebras_alive(tmp_path):
    """A memo lives on the object it derives from, so no algebra a run
    builds outlives it: no memo on the shared scalar algebra may hold one.
    After verify and one full collection (an algebra and its opposite point
    at each other), the interned algebra of the scenario is gone."""
    import gc

    from ncmotives import cli

    algebra = _quiver(3, [(0, 1, "lone0"), (1, 2, "lone1")])
    scenario = write(tmp_path, "s.json", {"format": 1, "source": {"algebra": algebra}})
    assert main(["verify", scenario, "--out", str(tmp_path / "v.json")]) == 0
    gc.collect()
    assert not [a for a in cli._interned_algebras.values() if "lone0" in a.labels]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    """main restores the collector's state, and the one collector pass it
    runs is the young pass that frees the argument parser: none during the
    command, and none on re-enabling, which would walk every object the
    command built."""
    import gc

    a2 = write(tmp_path, "a2.json", A2_SPEC)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    passes = []
    gc.callbacks.append(lambda phase, info: passes.append((phase, info["generation"])))
    try:
        scenario = write(tmp_path, "s.json", {"source": A2_MOTIVE})
        assert main(["verify", scenario, "--out", str(tmp_path / "v.json")]) == 0
        # fewer new containers than the young generation's threshold
        kept = [[] for _ in range(gc.get_threshold()[0] // 2)]
        assert kept and passes == [("start", 0), ("stop", 0)]
        assert main(["euler-matrix", a2, "--out", str(tmp_path / "out.json")]) == 0
        assert gc.isenabled() is enabled
        assert main(["euler-matrix", str(tmp_path / "missing.json")]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["--cap", "-1", "euler-matrix", a2])
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.pop()
        (gc.enable if before else gc.disable)()


def test_main_registers_one_exit_hook(tmp_path):
    """Three calls to main leave gc.freeze to run once at exit.  The hook is
    counted by running the exit functions with gc.freeze wrapped
    (atexit._ncallbacks() also counts the slots that unregister clears)."""
    a2 = write(tmp_path, "a2.json", A2_SPEC)
    script = (
        "import atexit, gc\n"
        "from ncmotives.cli import main\n"
        "calls, exiting = [], []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: calls.append(bool(exiting)) or freeze()\n"
        "for _ in range(3):\n"
        f"    assert main(['euler-matrix', {a2!r}, '--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
        "exiting.append(True)\n"
        "atexit._run_exitfuncs()\n"
        "print(calls.count(True))\n"
    )
    assert _run_fresh(script, timeout=60) == "1"


def test_hochschild_coefficients_with_a_wide_degree_gap(tmp_path):
    """Coefficients in degrees 0 and -300000000 take as long as any other
    two-term complex: the tensor layout and the homology walk the occupied
    degrees, not every integer between them."""
    scalar = write(tmp_path, "scalar.json", {"format": 1, "kind": "scalar"})
    m = {"format": 1, "dim": 1, "action": {"1": [[1]]}}
    coeff = write(
        tmp_path,
        "gap.json",
        {"format": 1, "components": {"0": m, "-300000000": m}, "differentials": {}},
    )
    out = str(tmp_path / "hh.json")
    script = (
        "import json\n"
        "from ncmotives.cli import main\n"
        f"assert main(['hochschild', {scalar!r}, '--coefficients', {coeff!r}, '--out', {out!r}]) == 0\n"
        f"r = json.load(open({out!r}))\n"
        "print(r['dims'], r['euler_characteristic'])\n"
    )
    assert _run_fresh(script, timeout=30) == "[1, 0, 0, 0, 0] 2"


def test_verify_assembles_no_differential_matrix(tmp_path):
    """verify reads perfect complexes through their copies and blocks: on
    A3->A3 and A4->A2 it assembles no dense differential.  A fresh
    interpreter keeps complexes cached by other tests from hiding a read."""
    paths = []
    for m, n in ((3, 3), (4, 2)):
        scenario = {
            "format": 1,
            "source": {"algebra": _line_quiver(m)},
            "target": {"algebra": _line_quiver(n)},
        }
        paths.append(write(tmp_path, f"A{m}_A{n}.json", scenario))
    out = str(tmp_path / "v.json")
    script = (
        "from ncmotives import complexes\n"
        "from ncmotives.cli import main\n"
        "calls = []\n"
        "assemble = complexes.assemble_block_matrix\n"
        "def counted(*args):\n"
        "    calls.append(args)\n"
        "    return assemble(*args)\n"
        "complexes.assemble_block_matrix = counted\n"
        f"for path in {paths!r}:\n"
        f"    assert main(['--seed', '1', 'verify', path, '--out', {out!r}]) == 0\n"
        "print(len(calls))\n"
    )
    assert _run_fresh(script, timeout=120) == "0"


def test_a_scenario_cap_reaches_every_resolution(tmp_path):
    """verify A3 -> A3 with "cap": 5 resolves the simples of A3, of its
    opposite and of the Hom algebra, and builds their Euler matrices, at
    cap 5 alone: no cache of those algebras holds an entry at another cap.
    So does a source with a vertex cut or its complement, whose law
    e o e = e (and the complement's diagonal resolution) is read on load."""
    a3 = _line_quiver(3)
    cut = {"kind": "vertex-cut", "vertices": [1]}
    paths = []
    for k, idem in enumerate([None, cut, {"kind": "complement", "of": cut}]):
        source = {"algebra": a3} if idem is None else {"algebra": a3, "idempotent": idem}
        scenario = {"format": 1, "source": source, "target": {"algebra": a3}, "options": {"cap": 5}}
        paths.append(write(tmp_path, f"A3_A3_{k}.json", scenario))
    out = str(tmp_path / "v.json")
    script = (
        "from ncmotives.algebra import hom_algebra, opposite\n"
        "from ncmotives.cli import algebra_from_spec, main\n"
        f"a = algebra_from_spec({a3!r})\n"
        f"for path in {paths!r}:\n"
        f"    assert main(['--seed', '1', 'verify', path, '--out', {out!r}]) == 0\n"
        "names = ('simple_resolutions', 'euler_matrix', 'diagonal_resolution')\n"
        "caches = [b._cache for b in (a, opposite(a), hom_algebra(a, a))]\n"
        "print(sorted({k for c in caches for k in c if isinstance(k, tuple) and k[0] in names}))\n"
    )
    assert _run_fresh(script, timeout=60) == (
        "[('diagonal_resolution', 5), ('euler_matrix', 5), ('simple_resolutions', 5)]"
    )


def _radical_square_zero_line(n):
    """The line quiver on n vertices with every product of two arrows zero,
    as a `table` spec (dimension 2n - 1, global dimension n - 1)."""
    dim = 2 * n - 1
    labels = [f"e{i}" for i in range(n)] + [f"a{i}" for i in range(n - 1)]

    def product(i, j):
        if i == j < n:
            return i
        if i < n <= j and j - n == i:  # e_i a_i = a_i
            return j
        if j < n <= i and i - n + 1 == j:  # a_i e_(i+1) = a_i
            return i
        return None

    def unit_vector(k):
        return [int(t == k) for t in range(dim)]

    return {
        "format": 1,
        "kind": "table",
        "dim": dim,
        "labels": labels,
        "mul": [[unit_vector(product(i, j)) for j in range(dim)] for i in range(dim)],
        "unit": [int(t < n) for t in range(dim)],
        "idempotents": [unit_vector(i) for i in range(n)],
    }


def test_an_idempotent_motive_is_checked_at_the_scenario_cap(tmp_path):
    """A source of global dimension 18 needs "cap": 20.  Its vertex cut is
    checked idempotent at that cap, not at the default 16, so verify
    passes instead of exiting 4."""
    cut = {"kind": "vertex-cut", "vertices": [0]}
    scenario = {
        "format": 1,
        "source": {"algebra": _radical_square_zero_line(19), "idempotent": cut},
        "target": {"algebra": {"kind": "scalar"}},
        "options": {"cap": 20},
    }
    code, report = run_to_report(tmp_path, ["verify", write(tmp_path, "cut.json", scenario)])
    assert code == 0
    assert report["dim"] == 1 and report["verdict"] is True
