"""The Beilinson algebras of P^1 and P^2 (tests/geometry_reference.py), and
P^1 x P^1 as their `tensor` spec, run through the command line as `table`
inputs: their Euler form is the inverse of the binomial Cartan matrix, the
diagonal resolution has length n and the Koszul copy counts, the trace of
the diagonal is n + 1 (the Euler characteristic of P^n, 4 for P^1 x P^1),
Serre duality holds, and the verify reports are pinned.  Ringel's canonical
algebra C(2,2,2), whose relation a3 b3 = a1 b1 - a2 b2 is a product with two
terms and a negative coefficient, has its command-line results pinned too,
and so have Beilinson's exterior algebras of P^1 and P^2, whose products all
carry signs; their Coxeter polynomials are those of B_1 and B_2."""

import hashlib
import json
from collections import Counter
from math import comb

import pytest

from geometry_reference import beilinson_cartan, beilinson_spec, canonical_spec, exterior_spec
from ncmotives.cli import main
from ncmotives.specs import algebra_from_spec
from ncmotives.derived import diagonal_resolution

# P^1, P^2 and P^1 x P^1 as specs, with the length of their diagonal
# resolutions (the dimension) and the trace of the diagonal (the Euler
# characteristic of the variety)
GEOMETRY = {
    "P1": (beilinson_spec(1), 1, 2),
    "P2": (beilinson_spec(2), 2, 3),
    "P1xP1": ({"format": 1, "kind": "tensor", "factors": [beilinson_spec(1)] * 2}, 2, 4),
}


def _report(tmp_path, argv, spec):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert main(argv + [str(path), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_euler_matrix_of_the_beilinson_algebra_inverts_its_cartan_matrix(tmp_path, n):
    """chi(e_i B, S_j) = delta_ij and [e_i B] = sum_k C_ik [S_k], so the
    Euler matrix on the simple basis is C^-1 with C_ij = binom(n + j - i, n)."""
    report = json.loads(_report(tmp_path, ["euler-matrix"], beilinson_spec(n)))
    chi = report["matrix"]
    cartan = beilinson_cartan(n)
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*cartan)] for row in chi]
    assert product == [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    assert report["determinant"] == 1


# SHA-256 of the `--seed 1 verify` reports on the identity motives of the
# Beilinson algebras; like the pinned benchmark reports, they depend only on
# the mathematics.
PINNED_BEILINSON_VERIFY = {
    (1, 2): "551be28c0fde06dc00a33153a43a268db12059237e3568f49ec8ea82a396b889",
    (2, 2): "ffafbbba217815b0a8e8c5645f6d3e2caa3053e8e685018392e1437e68d85403",
}


@pytest.mark.parametrize("pair", PINNED_BEILINSON_VERIFY, ids=lambda p: f"P{p[0]}-to-P{p[1]}")
def test_verify_reports_on_beilinson_algebras_are_pinned(tmp_path, pair):
    m, n = pair
    scenario = {
        "format": 1,
        "source": {"algebra": beilinson_spec(m)},
        "target": {"algebra": beilinson_spec(n)},
    }
    report = _report(tmp_path, ["--seed", "1", "verify"], scenario)
    assert hashlib.sha256(report).hexdigest() == PINNED_BEILINSON_VERIFY[pair]


@pytest.mark.parametrize("name", GEOMETRY)
def test_smooth_check_gives_the_dimension(tmp_path, name):
    spec, dim, _ = GEOMETRY[name]
    report = json.loads(_report(tmp_path, ["smooth-check"], spec))
    assert report["smooth"] is True
    assert report["diagonal_resolution_length"] == dim


@pytest.mark.parametrize("name", GEOMETRY)
def test_trace_of_the_diagonal_is_the_euler_characteristic(tmp_path, name):
    spec, _, euler = GEOMETRY[name]
    scenario = {"format": 1, "source": {"algebra": spec}, "z": {"terms": [{"bimodule": {"kind": "diagonal"}}]}}
    assert json.loads(_report(tmp_path, ["trace"], scenario))["trace"] == euler


@pytest.mark.parametrize("name", GEOMETRY)
def test_serre_check_holds(tmp_path, name):
    report = json.loads(_report(tmp_path, ["--seed", "1", "serre-check", "--samples", "3"], GEOMETRY[name][0]))
    assert report["verdict"] is True
    assert len(report["checks"]) == 6


@pytest.mark.parametrize("n", [1, 2])
def test_diagonal_resolution_has_the_koszul_copy_counts(n):
    """B_n is Koszul: in degree -k the diagonal resolution has copy (i, i+k),
    index i (n + 1) + i + k, exactly binom(n + 1, k) times (the k-th
    exterior power of the n + 1 variables), for k = 0 ... n, and no other
    copy."""
    res = diagonal_resolution(algebra_from_spec(beilinson_spec(n)))
    expected = {
        -k: {i * (n + 1) + i + k: comb(n + 1, k) for i in range(n + 1 - k)} for k in range(n + 1)
    }
    assert {d: dict(Counter(res.copies_at(d))) for d in res.copies} == expected


CANONICAL = canonical_spec()
# command, its options, its input, and what its report must hold on C(2,2,2)
CANONICAL_RESULTS = {
    "euler-matrix": (
        [],
        CANONICAL,
        {
            "determinant": 1,
            "matrix": [
                [1, -1, -1, -1, 1],
                [0, 1, 0, 0, -1],
                [0, 0, 1, 0, -1],
                [0, 0, 0, 1, -1],
                [0, 0, 0, 0, 1],
            ],
        },
    ),
    "smooth-check": ([], CANONICAL, {"smooth": True, "diagonal_resolution_length": 2}),
    "hochschild": (
        ["--top", "3", "--bar-check", "2"],
        CANONICAL,
        {"dims": [5, 0, 0, 0], "bar_dims": [5, 0, 0], "verdict": True},
    ),
    "verify": (
        [],
        {"format": 1, "source": {"algebra": CANONICAL}, "target": {"algebra": CANONICAL}},
        {"dim": 25, "det_gram_chi": "1", "kernel_dim": 0, "verdict": True},
    ),
}


@pytest.mark.parametrize("command", CANONICAL_RESULTS)
def test_canonical_algebra_results_are_pinned(tmp_path, command):
    """C(2,2,2) has dimension 13, an Euler matrix of determinant 1, a
    diagonal resolution of length 2, HH = [5, 0, 0, 0] as the bar complex
    agrees, and a unimodular 25-dimensional Hom model of its identity
    motive.  A projective module that drops the second term of a product,
    or its sign, makes its perfect complexes fail d^2 = 0."""
    options, spec, expected = CANONICAL_RESULTS[command]
    assert CANONICAL["dim"] == 13
    report = json.loads(_report(tmp_path, [command, *options], spec))
    assert {key: report[key] for key in expected} == expected


def _identity(spec):
    return {"format": 1, "source": {"algebra": spec}, "target": {"algebra": spec}}


HH_OPTIONS = ["--top", "3", "--bar-check", "2"]
# (n, command): its options, its input, and what its report must hold on
# the exterior algebra of P^n
EXTERIOR_RESULTS = {
    (1, "euler-matrix"): ([], exterior_spec(1), {"determinant": 1, "matrix": [[1, -2], [0, 1]]}),
    (2, "euler-matrix"): (
        [],
        exterior_spec(2),
        {"determinant": 1, "matrix": [[1, -3, 6], [0, 1, -3], [0, 0, 1]]},
    ),
    (1, "hochschild"): (HH_OPTIONS, exterior_spec(1), {"dims": [2, 0, 0, 0], "verdict": True}),
    (2, "hochschild"): (HH_OPTIONS, exterior_spec(2), {"dims": [3, 0, 0, 0], "verdict": True}),
    (1, "smooth-check"): ([], exterior_spec(1), {"smooth": True, "diagonal_resolution_length": 1}),
    (2, "smooth-check"): ([], exterior_spec(2), {"smooth": True, "diagonal_resolution_length": 2}),
    (2, "serre-check"): (["--seed", "1"], exterior_spec(2), {"verdict": True}),
    (2, "verify"): (
        ["--seed", "1"],
        _identity(exterior_spec(2)),
        {"dim": 9, "det_gram_chi": "1", "kernel_dim": 0, "verdict": True},
    ),
}


@pytest.mark.parametrize("case", EXTERIOR_RESULTS, ids=lambda c: f"L{c[0]}-{c[1]}")
def test_exterior_algebra_results_are_pinned(tmp_path, case):
    """Lambda_n has dimension 4, 12 for n = 1, 2 and, like B_n, an Euler
    matrix of determinant 1, HH = [n + 1, 0, 0, 0] as the bar complex
    agrees, a diagonal resolution of length n, Serre duality, and a
    unimodular Hom model of its identity motive.  Every product of
    non-idempotents carries a sign, so the blocks of its perfect complexes
    are the signed ones a Hom complex precomposes with."""
    n, command = case
    options, spec, expected = EXTERIOR_RESULTS[case]
    assert exterior_spec(n)["dim"] == (4, 12)[n - 1]
    report = json.loads(_report(tmp_path, [command, *options], spec))
    assert {key: report[key] for key in expected} == expected


@pytest.mark.parametrize("n", [1, 2])
def test_exterior_and_beilinson_algebras_share_their_coxeter_polynomial(tmp_path, n):
    """Lambda_n and B_n are derived equivalent, so their Coxeter matrices
    -M^-1 M^T, read from the Euler matrices M of the command line, have one
    characteristic polynomial, computed by sympy: (x - 1)^2 for n = 1 and
    (x + 1)^3 for n = 2."""
    import sympy

    x = sympy.Symbol("x")
    expected = ((x - 1) ** 2, (x + 1) ** 3)[n - 1]
    for spec in (exterior_spec(n), beilinson_spec(n)):
        m = sympy.Matrix(json.loads(_report(tmp_path, ["euler-matrix"], spec))["matrix"])
        coxeter = -m.inv() * m.T
        assert sympy.expand(coxeter.charpoly(x).as_expr() - expected) == 0
